#pragma once

// The parallel substrate of PredictionEngine: per-stream state, an
// open-addressing stream table, and the shard set that hash-partitions
// streams across worker threads. Split out of engine.cpp so the table and
// partitioning are unit-testable and reusable without going through a full
// engine — the serve layer builds one ShardSet per tenant session on top
// of a shared WorkerPool and the same invariants.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/accuracy.hpp"
#include "core/predictor.hpp"
#include "engine/arena.hpp"
#include "engine/engine.hpp"
#include "engine/worker_pool.hpp"

namespace mpipred::engine {

/// Both dimensions of one demultiplexed stream: a fresh predictor clone
/// each, wrapped in the same evaluator a hand-wired single-stream run
/// would use.
struct StreamState {
  StreamState(const core::Predictor& prototype, std::size_t horizon)
      : sender_predictor(prototype.clone_fresh()),
        size_predictor(prototype.clone_fresh()),
        sender_eval(*sender_predictor, horizon),
        size_eval(*size_predictor, horizon) {}

  /// The stream's one bill: both predictors' footprints and both
  /// evaluators' heaps (pending predictions and horizon rows). The engine
  /// report and the serve layer's resident bytes both read it.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return sender_predictor->footprint_bytes() + size_predictor->footprint_bytes() +
           sender_eval.heap_bytes() + size_eval.heap_bytes();
  }

  std::unique_ptr<core::Predictor> sender_predictor;
  std::unique_ptr<core::Predictor> size_predictor;
  core::AccuracyEvaluator sender_eval;
  core::AccuracyEvaluator size_eval;
  std::int64_t events = 0;
};

/// Fixed bookkeeping a resident stream costs beyond footprint_bytes(): the
/// StreamState block itself plus its table entry.
inline constexpr std::size_t kStreamOverheadBytes = sizeof(StreamState) + 64;

/// Deterministic 64-bit mix of all three key dimensions (splitmix64
/// finalizer). The low bits index a StreamTable; the high bits pick the
/// shard, so shard selection never starves table buckets of entropy.
[[nodiscard]] std::uint64_t stream_key_hash(const StreamKey& key) noexcept;

/// Open-addressing (linear-probing, power-of-two capacity) map from
/// StreamKey to StreamState. States live in a pooled arena behind stable
/// pointers, so references returned by find_or_create survive growth;
/// entries() walks insertion order, which is deterministic for a
/// deterministic feed. Streams are never removed: a state lives as long
/// as its table.
class StreamTable {
 public:
  struct Entry {
    StreamKey key{};
    StreamState* state = nullptr;  // owned via the table's arena
  };

  StreamTable();
  StreamTable(StreamTable&&) noexcept = default;
  StreamTable& operator=(StreamTable&&) noexcept = default;
  ~StreamTable();

  /// The state of `key`, created from `prototype` on first sight. The
  /// hash-taking overloads let callers that already hashed the key (for
  /// shard routing) skip a recomputation on the per-event path.
  StreamState& find_or_create(const StreamKey& key, std::uint64_t hash,
                              const core::Predictor& prototype, std::size_t horizon);
  StreamState& find_or_create(const StreamKey& key, const core::Predictor& prototype,
                              std::size_t horizon) {
    return find_or_create(key, stream_key_hash(key), prototype, horizon);
  }

  /// nullptr for keys never observed.
  [[nodiscard]] const StreamState* find(const StreamKey& key, std::uint64_t hash) const noexcept;
  [[nodiscard]] const StreamState* find(const StreamKey& key) const noexcept {
    return find(key, stream_key_hash(key));
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  [[nodiscard]] std::span<const Entry> entries() const noexcept { return entries_; }

 private:
  void grow();

  struct Slot {
    StreamKey key{};
    std::uint32_t index = 0;  // 0 = empty, else entries_[index - 1]
  };

  std::vector<Slot> slots_;
  std::vector<Entry> entries_;
  PoolArena<StreamState> arena_;
};

/// One worker shard: its partition of the stream table. A shard is only
/// ever touched by one thread at a time — ownership moves with the
/// WorkerPool's per-slot mutex handoff, not with a lock of its own, so
/// there is no capability here for the thread-safety analysis to name;
/// the TSan CI job and the shard-count byte-identity gates cover this
/// contract (docs/STATIC_ANALYSIS.md has the coverage matrix).
class EngineShard {
 public:
  EngineShard(const core::Predictor& prototype, std::size_t horizon)
      : prototype_(&prototype), horizon_(horizon) {}

  /// Routes one event into this shard's table; `key`/`hash` are the
  /// event's precomputed stream key and its hash (already needed for
  /// shard routing — recomputing them per event would double the
  /// demux cost this layer exists to cut).
  void observe(const Event& event, const StreamKey& key, std::uint64_t hash);

  /// This shard's share of a pooled feed, read in place: observes, in
  /// feed order, every event of `events` whose entry in `owners` (the
  /// shard index the feed computed for it, one per event) is `self`.
  void observe_owned(std::span<const Event> events, std::span<const std::uint32_t> owners,
                     std::uint32_t self, const KeyPolicy& policy);

  [[nodiscard]] const StreamTable& table() const noexcept { return table_; }
  [[nodiscard]] StreamTable& table() noexcept { return table_; }

 private:
  const core::Predictor* prototype_;
  std::size_t horizon_;
  StreamTable table_;
};

/// Batches smaller than this run inline on the caller's thread instead of
/// being dispatched to the shard workers: below it, the owner pass plus
/// the wake-and-join of the resident pool costs more than the parallel
/// drain saves. It is the measured crossover, the smallest power of two
/// at which no registered predictor drains slower pooled than inline; the
/// cheapest predictor sets it. `bench_engine latency` p50 per feed at 4
/// shards, one build forced inline against one forced pooled, median of 3
/// runs of 5 (Release, GCC 12.2, 4-vCPU Xeon VM, with the copy-free feed):
///   dpd          1 event   1.1 vs 13.9 µs,  64 events  58.2 vs 38.1 µs;
///   last-value 256 events 27.9 vs 31.2 µs, 512 events 55.6 vs 46.2 µs.
/// A one-event last-value feed costs 0.2 µs inline and 13 µs pooled, so
/// the inline path stays. Never changes any report.
inline constexpr std::size_t kMinParallelBatch = 512;

/// Runtime wiring of a ShardSet beyond the stream-space partitioning: the
/// resident pool to use (owned when null — the serve layer passes its
/// shared one so every tenant session reuses one set of worker threads)
/// and the metrics destination.
struct ShardSetOptions {
  /// Shared resident workers (must have >= shards - 1 slots and outlive
  /// the set); nullptr = the set lazily owns its own.
  WorkerPool* pool = nullptr;
  /// Registry for the set's feed/stream metrics; nullptr = own a private
  /// one. Only shard-invariant quantities are exported (event and batch
  /// totals, resident stream count), never anything per-shard, so a
  /// caller-shared registry snapshots byte-identically across shard
  /// counts — the same invariant the reports already hold.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Labels on the set's metrics (e.g. {view=arrival} or {tenant=7}).
  telemetry::LabelSet metric_labels{};
};

/// Fixed set of shards hash-partitioning the stream space. feed() is the
/// batched path: for a batch of at least kMinParallelBatch events the
/// caller's thread computes each event's shard once into an owner array
/// (one per feeding thread, reused by every set that thread feeds), then
/// every shard that owns an event walks the caller's span concurrently on
/// a resident worker woken for this feed (shard 0 on the caller's thread)
/// and observes only its own events; all are joined before feed returns.
/// No event is copied. Smaller batches and observe_one() run on the
/// caller's thread. Because a stream lives in exactly one shard and each
/// shard walks the span in feed order, results never depend on shard
/// count, batch size, or thread interleaving.
class ShardSet {
 public:
  /// `prototype` must outlive the set (the engine or server owns it).
  ShardSet(std::size_t shards, const core::Predictor& prototype, std::size_t horizon,
           KeyPolicy policy, ShardSetOptions options = {});

  void observe_one(const Event& event);

  /// Blocks until every event is observed. If an observation throws (a
  /// predictor, or an allocation), the error is rethrown after every
  /// shard has stopped: the shards that did not throw observed all their
  /// events, the throwing one stopped at its failing event, and stream
  /// state stays as far as each got. A feed keeps no state past its
  /// return, so the next feed observes exactly its own events and never
  /// one of a failed feed's.
  void feed(std::span<const Event> events);

  /// The one key-to-stream lookup behind the query verb of the engine
  /// and the serve layer; invalid for keys never observed.
  [[nodiscard]] StreamRef stream(const StreamKey& key) const noexcept;
  [[nodiscard]] std::size_t stream_count() const noexcept;
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Visits every stream (shard-major, insertion order within a shard —
  /// callers needing a canonical order sort afterwards).
  template <typename Fn>
  void for_each_stream(Fn&& fn) const {
    for (const EngineShard& shard : shards_) {
      for (const StreamTable::Entry& entry : shard.table().entries()) {
        fn(entry.key, *entry.state);
      }
    }
  }

 private:
  [[nodiscard]] std::size_t shard_index(std::uint64_t hash) const noexcept;
  void route(const Event& event);
  void update_resident_gauge() noexcept;

  KeyPolicy policy_;
  std::vector<EngineShard> shards_;
  WorkerPool* pool_;                        // resident workers actually used
  std::unique_ptr<WorkerPool> owned_pool_;  // set when options.pool was null
  std::vector<std::uint8_t> touched_;  // reused: shards owning an event this feed
  std::vector<std::size_t> pending_;   // reused worker-slot scratch
  std::unique_ptr<telemetry::MetricsRegistry> owned_metrics_;  // when none was passed
  telemetry::Counter* feed_events_ = nullptr;
  telemetry::Counter* feed_batches_ = nullptr;
  telemetry::Gauge* streams_resident_ = nullptr;
};

/// The canonical report over a shard set: per-stream rows in key order
/// plus order-independent aggregates — the one implementation behind
/// PredictionEngine::report() and serve::Session::report(), so the
/// engine and the session cannot drift apart.
[[nodiscard]] EngineReport report_of(const ShardSet& shards);

}  // namespace mpipred::engine
