#include "trace/merge.hpp"

#include <algorithm>
#include <iterator>
#include <span>

namespace mpipred::trace {

RecordMerge::RecordMerge(const TraceStore& store, Level level, const StreamFilter& filter)
    : filter_(filter) {
  heap_.reserve(static_cast<std::size_t>(store.nranks()));
  for (int rank = 0; rank < store.nranks(); ++rank) {
    const std::span<const Record> records = store.records(rank, level);
    std::size_t passing = 0;
    bool ordered = true;
    const Record* last = nullptr;
    for (const Record& rec : records) {
      if (filter_.passes(rec)) {
        ordered = ordered && (last == nullptr || !(rec.time < last->time));
        last = &rec;
        ++passing;
      }
    }
    if (passing == 0) {
      continue;
    }
    size_ += passing;
    const Record* begin = records.data();
    const Record* end = begin + records.size();
    if (!ordered) {
      std::vector<Record>& copy = sorted_.emplace_back();
      copy.reserve(passing);
      std::copy_if(begin, end, std::back_inserter(copy),
                   [this](const Record& rec) { return filter_.passes(rec); });
      std::stable_sort(copy.begin(), copy.end(),
                       [](const Record& a, const Record& b) { return a.time < b.time; });
      begin = copy.data();
      end = begin + copy.size();
    }
    heap_.push_back({.next = skip_filtered(begin, end), .end = end, .rank = rank});
  }
  for (std::size_t i = heap_.size() / 2; i-- > 0;) {
    sift_down(i);
  }
}

std::vector<MergedRecord> merged_records(const TraceStore& store, Level level,
                                         const StreamFilter& filter) {
  RecordMerge merge(store, level, filter);
  std::vector<MergedRecord> out;
  out.reserve(merge.size());
  merge.drain([&out](std::int32_t receiver, const Record& rec) {
    out.push_back({.time = rec.time,
                   .receiver = receiver,
                   .sender = rec.sender,
                   .bytes = rec.bytes,
                   .kind = rec.kind});
  });
  return out;
}

}  // namespace mpipred::trace
