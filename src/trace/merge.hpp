#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "trace/store.hpp"
#include "trace/stream.hpp"

namespace mpipred::trace {

/// One received message tagged with its receiver: the unit of the global,
/// cross-rank trace the prediction engine demultiplexes. `time` is post
/// time at the logical level and delivery time at the physical level.
struct MergedRecord {
  sim::SimTime time{0};
  std::int32_t receiver = 0;
  std::int32_t sender = kUnresolvedSender;
  std::int64_t bytes = 0;
  OpKind kind = OpKind::PointToPoint;

  [[nodiscard]] bool operator==(const MergedRecord&) const = default;
};

/// The one global merge of a store level: a k-way merge of the ranks'
/// filtered record streams keyed by (time, rank), each rank's records
/// kept in their program/delivery order among equal times. That is
/// exactly the order of concatenating the ranks and stable-sorting by
/// time, without materializing either step: a rank whose filtered
/// records are already in time order (as a simulated run records them)
/// is read in place, and only a rank whose times decrease somewhere (an
/// imported trace) is stably sorted into a private copy first. drain()
/// hands each record straight to the caller, so every output shape
/// (merged records, engine events, timed events) is written once, at its
/// final size.
class RecordMerge {
 public:
  RecordMerge(const TraceStore& store, Level level, const StreamFilter& filter = {});

  /// Records the merge yields: those of `level` that pass the filter.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Calls `emit(receiver, record)` once per record, in merged order.
  /// Consumes the merge: a second drain emits nothing.
  template <typename Emit>
  void drain(Emit&& emit) {
    while (!heap_.empty()) {
      Run& top = heap_.front();
      emit(top.rank, *top.next);
      top.next = skip_filtered(top.next + 1, top.end);
      if (top.next == top.end) {
        top = heap_.back();
        heap_.pop_back();
      }
      sift_down(0);
    }
  }

 private:
  /// One rank's pending records: [next, end), next always passing.
  struct Run {
    const Record* next;
    const Record* end;
    std::int32_t rank;
  };

  /// Heap order: (time, rank) ascending, so equal times leave rank-major.
  [[nodiscard]] static bool before(const Run& a, const Run& b) noexcept {
    return a.next->time != b.next->time ? a.next->time < b.next->time : a.rank < b.rank;
  }

  [[nodiscard]] const Record* skip_filtered(const Record* p, const Record* end) const noexcept {
    while (p != end && !filter_.passes(*p)) {
      ++p;
    }
    return p;
  }

  /// Restores the min-heap below `i` after heap_[i] changed.
  void sift_down(std::size_t i) noexcept {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t left = 2 * i + 1;
      if (left >= n) {
        return;
      }
      const std::size_t right = left + 1;
      const std::size_t child = right < n && before(heap_[right], heap_[left]) ? right : left;
      if (!before(heap_[child], heap_[i])) {
        return;
      }
      std::swap(heap_[i], heap_[child]);
      i = child;
    }
  }

  StreamFilter filter_;
  std::size_t size_ = 0;
  std::vector<Run> heap_;
  /// Stably time-sorted, filtered copies of the ranks that needed one.
  std::vector<std::vector<Record>> sorted_;
};

/// Flattens one level of the store into a single stream ordered by time
/// (stable: records of one rank keep their program/delivery order, so the
/// per-receiver subsequence is exactly that rank's filtered record stream).
[[nodiscard]] std::vector<MergedRecord> merged_records(const TraceStore& store, Level level,
                                                       const StreamFilter& filter = {});

}  // namespace mpipred::trace
