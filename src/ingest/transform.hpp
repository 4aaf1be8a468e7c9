#pragma once

// Composable source transforms over the streaming pipeline: every
// transform is itself an EventStream wrapping another, so a 10k-rank
// multi-hour capture can be sliced to a time window and folded onto a
// small rank space without ever materializing — and the result feeds the
// engine, the adaptive replay, and the determinism gates exactly like an
// untransformed trace. Transforms are deterministic pure functions of the
// event sequence, so the streamed==materialized gates hold through any
// composition of them.
//
// CLI surface (replay_trace, the one tool that reads a trace):
//   --window <t0>:<t1>      keep events with t0 <= time_ns < t1 (either
//                           side empty = unbounded)
//   --remap-ranks <spec>    mod:<N>            fold ranks via old % N
//                           keep:<r1,r2,a-b>   subset receivers, renumber
//                                              densely; foreign senders
//                                              become one "external" rank
//                           append :strict to reject (exit nonzero) when
//                           two observed old ranks collide on one new rank

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ingest/streaming.hpp"

namespace mpipred::ingest {

/// Half-open capture-time slice [begin_ns, end_ns).
struct TimeWindow {
  std::int64_t begin_ns = std::numeric_limits<std::int64_t>::min();
  std::int64_t end_ns = std::numeric_limits<std::int64_t>::max();

  /// Parses "<t0>:<t1>" (integers, nanoseconds; either side may be empty
  /// for an unbounded edge — "5000:", ":90000"). Throws UsageError on a
  /// malformed spec or an empty window.
  [[nodiscard]] static TimeWindow parse(std::string_view spec);

  [[nodiscard]] bool contains(std::int64_t time_ns) const noexcept {
    return time_ns >= begin_ns && time_ns < end_ns;
  }
  [[nodiscard]] bool bounded_begin() const noexcept {
    return begin_ns != std::numeric_limits<std::int64_t>::min();
  }
  [[nodiscard]] bool bounded_end() const noexcept {
    return end_ns != std::numeric_limits<std::int64_t>::max();
  }
  /// "[5000:90000)" with unbounded edges left empty: "[5000:)".
  [[nodiscard]] std::string to_string() const;
};

/// Keeps only events inside the window. When the inner stream is
/// time-ordered, the slice stops pulling (and parsing) at the first event
/// past the end — slicing the warm-up of a huge capture reads only its
/// prefix.
class TimeWindowSource final : public EventStream {
 public:
  TimeWindowSource(std::unique_ptr<EventStream> inner, TimeWindow window)
      : inner_(std::move(inner)), window_(window) {}

  std::size_t next_batch(std::size_t max_events, std::vector<TimedEvent>& out) override;
  [[nodiscard]] bool time_ordered() const noexcept override { return inner_->time_ordered(); }

  [[nodiscard]] const TimeWindow& window() const noexcept { return window_; }
  /// "window [5000:90000): kept 120 of 400 events" over everything
  /// streamed so far — deterministic, printed by the --window tools.
  [[nodiscard]] std::string summary() const;

 private:
  std::unique_ptr<EventStream> inner_;
  TimeWindow window_;
  std::vector<TimedEvent> scratch_;
  std::int64_t events_in_ = 0;
  std::int64_t kept_ = 0;
  bool done_ = false;
};

/// How ranks of a capture are renamed onto a smaller key space.
struct RankRemapConfig {
  enum class Mode {
    Modulo,  ///< new = old % modulo; deliberate folding of a large job
    Keep,    ///< subset of receiver ranks, renumbered densely by old rank
  };
  /// What to do when two distinct observed old ranks land on one new
  /// rank. Keep mode's external-sender rank merges foreign senders by
  /// design and is exempt; dense renumbering makes kept ranks
  /// collision-free, so only Modulo folds can trip Reject.
  enum class Collisions {
    Fold,    ///< merge their streams (the point of mod:N)
    Reject,  ///< throw IngestError naming both ranks (spec suffix :strict)
  };

  Mode mode = Mode::Modulo;
  std::int32_t modulo = 1;
  /// Keep mode: normalized (sorted, disjoint) inclusive old-rank ranges.
  std::vector<std::pair<std::int32_t, std::int32_t>> keep;
  Collisions collisions = Collisions::Fold;

  /// Parses "mod:<N>" or "keep:<r1,r2,a-b>", optional ":strict" suffix.
  /// Throws UsageError on malformed specs.
  [[nodiscard]] static RankRemapConfig parse(std::string_view spec);

  /// Canonical spec spelling ("mod:8:strict", "keep:0-3,7").
  [[nodiscard]] std::string to_string() const;

  /// Size of the keep set (Keep mode); senders outside it map to this
  /// value, one past the dense range — the single "external world" rank.
  [[nodiscard]] std::int32_t kept_count() const noexcept;
};

/// Deterministic account of one remap run: every observed old rank and
/// where it went, plus fold/drop counts. Built from the events actually
/// streamed, so it is identical for any batch size or shard count.
struct RankRemapReport {
  std::int64_t events_in = 0;
  std::int64_t events_kept = 0;
  std::int64_t events_dropped = 0;  ///< receivers outside the keep set
  /// (old rank, new rank) for every rank observed in a kept event,
  /// sorted by old rank.
  std::vector<std::pair<std::int32_t, std::int32_t>> mapping;
  std::int32_t ranks_observed = 0;
  std::int32_t new_ranks = 0;  ///< distinct new ids observed
  std::int32_t folded = 0;     ///< observed old ranks sharing a new id
  std::int32_t external_senders = 0;  ///< Keep mode: senders outside the set

  /// Rank count of the remapped trace: max observed new id + 1.
  [[nodiscard]] std::int32_t nranks() const noexcept;
  /// One deterministic line, printed by the --remap-ranks tools.
  [[nodiscard]] std::string summary() const;
};

/// Applies a RankRemapConfig to every event: receivers outside a keep set
/// drop the event, everything else is renamed. With Collisions::Reject, a
/// fold throws IngestError the moment it is observed.
class RankRemapSource final : public EventStream {
 public:
  RankRemapSource(std::unique_ptr<EventStream> inner, RankRemapConfig cfg);

  std::size_t next_batch(std::size_t max_events, std::vector<TimedEvent>& out) override;
  [[nodiscard]] bool time_ordered() const noexcept override { return inner_->time_ordered(); }

  [[nodiscard]] const RankRemapConfig& config() const noexcept { return cfg_; }
  /// Mapping report over everything streamed so far.
  [[nodiscard]] RankRemapReport report() const;

 private:
  /// New id of `old_rank`, or nullopt when a Keep-mode receiver is
  /// outside the set. `is_sender` routes foreign senders to the external
  /// rank instead of dropping.
  [[nodiscard]] std::optional<std::int32_t> map_rank(std::int32_t old_rank, bool is_sender) const;
  void record(std::int32_t old_rank, std::int32_t new_rank);

  std::unique_ptr<EventStream> inner_;
  RankRemapConfig cfg_;
  std::vector<TimedEvent> scratch_;
  std::unordered_map<std::int32_t, std::int32_t> old_to_new_;
  std::unordered_map<std::int32_t, std::int32_t> new_to_first_old_;
  std::int64_t events_in_ = 0;
  std::int64_t events_kept_ = 0;
  std::int64_t events_dropped_ = 0;
};

/// The parsed transform surface of one tool invocation.
struct TransformSpec {
  std::optional<TimeWindow> window;
  std::optional<RankRemapConfig> remap;

  [[nodiscard]] bool active() const noexcept { return window.has_value() || remap.has_value(); }

  /// Parses the two CLI specs; an empty string means the flag was absent.
  /// Throws UsageError on malformed specs.
  [[nodiscard]] static TransformSpec parse(const std::string& window_spec,
                                           const std::string& remap_spec);
};

/// A transform pipeline over `stream`, with borrowed views of the stages
/// for their reports (null when the stage is absent).
struct TransformChain {
  std::unique_ptr<EventStream> stream;
  TimeWindowSource* window = nullptr;
  RankRemapSource* remap = nullptr;
};

/// Wraps `base` in the spec's transforms: the window slices first (by
/// original capture time), then ranks are remapped — so a mapping report
/// covers exactly the sliced events.
[[nodiscard]] TransformChain apply_transforms(std::unique_ptr<EventStream> base,
                                              const TransformSpec& spec);

}  // namespace mpipred::ingest
