#pragma once

// The parallel substrate of PredictionEngine: per-stream state, an
// open-addressing stream table, and the shard set that hash-partitions
// streams across worker threads. Split out of engine.cpp so the table and
// partitioning are unit-testable and reusable without going through a full
// engine — the serve layer builds one ShardSet per tenant session on top
// of a shared WorkerPool and the same invariants.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
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

  std::unique_ptr<core::Predictor> sender_predictor;
  std::unique_ptr<core::Predictor> size_predictor;
  core::AccuracyEvaluator sender_eval;
  core::AccuracyEvaluator size_eval;
  std::int64_t events = 0;
  /// Value of the owning set's feed clock when this stream last received
  /// an event — the recency the serve layer's cold-stream eviction sorts
  /// by. Never part of a report.
  std::uint64_t last_touch = 0;
};

/// Deterministic 64-bit mix of all three key dimensions (splitmix64
/// finalizer). The low bits index a StreamTable; the high bits pick the
/// shard, so shard selection never starves table buckets of entropy.
[[nodiscard]] std::uint64_t stream_key_hash(const StreamKey& key) noexcept;

/// Open-addressing (linear-probing, power-of-two capacity) map from
/// StreamKey to StreamState. States live in a pooled arena behind stable
/// pointers, so references returned by find_or_create survive growth;
/// entries() walks insertion order, which is deterministic for a
/// deterministic feed. erase() (the serve layer's eviction hook) recycles
/// the state's arena slot and leaves a tombstone in the probe sequence;
/// erasing one stream never perturbs any other stream's state.
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

  /// nullptr for keys never observed (or evicted since).
  [[nodiscard]] const StreamState* find(const StreamKey& key, std::uint64_t hash) const noexcept;
  [[nodiscard]] const StreamState* find(const StreamKey& key) const noexcept {
    return find(key, stream_key_hash(key));
  }

  /// Destroys the stream `key` and recycles its slot; false if unknown.
  bool erase(const StreamKey& key, std::uint64_t hash);
  bool erase(const StreamKey& key) { return erase(key, stream_key_hash(key)); }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  [[nodiscard]] std::span<const Entry> entries() const noexcept { return entries_; }

 private:
  void grow();

  struct Slot {
    StreamKey key{};
    std::uint32_t index = 0;  // 0 = empty, kTombstone = erased, else entries_[index - 1]
  };

  std::vector<Slot> slots_;
  std::vector<Entry> entries_;
  std::size_t tombstones_ = 0;
  PoolArena<StreamState> arena_;
};

/// One worker shard: its partition of the stream table plus the reusable
/// batch buffer the feed loop fills for it. A shard is only ever touched
/// by one thread at a time — ownership moves with the WorkerPool's
/// per-slot mutex handoff, not with a lock of its own, so there is no
/// capability here for the thread-safety analysis to name; the TSan CI
/// job and the shard-count byte-identity gates cover this contract
/// (docs/STATIC_ANALYSIS.md has the coverage matrix).
class EngineShard {
 public:
  EngineShard(const core::Predictor& prototype, std::size_t horizon)
      : prototype_(&prototype), horizon_(horizon) {}

  /// Routes one event into this shard's table; `key`/`hash` are the
  /// event's precomputed stream key and its hash (already needed for
  /// shard routing — recomputing them per event would double the
  /// demux cost this layer exists to cut). `tick` stamps the stream's
  /// last_touch recency.
  void observe(const Event& event, const StreamKey& key, std::uint64_t hash, std::uint64_t tick);

  /// Processes the queued batch in order, then clears it (keeping its
  /// capacity for the next feed).
  void drain(const KeyPolicy& policy, std::uint64_t tick);

  [[nodiscard]] std::vector<Event>& batch() noexcept { return batch_; }
  [[nodiscard]] const StreamTable& table() const noexcept { return table_; }
  [[nodiscard]] StreamTable& table() noexcept { return table_; }

 private:
  const core::Predictor* prototype_;
  std::size_t horizon_;
  StreamTable table_;
  std::vector<Event> batch_;
};

/// Batches smaller than this run inline on the caller's thread instead of
/// being dispatched to the shard workers: partitioning plus dispatch costs
/// more than it saves for a handful of events. Never changes any report.
inline constexpr std::size_t kMinParallelBatch = 2048;

/// Runtime wiring of a ShardSet beyond the stream-space partitioning: the
/// resident pool and feed clock to use (owned when null — the serve layer
/// passes its shared ones so every tenant session reuses one set of worker
/// threads and one recency clock) and the metrics destination.
struct ShardSetOptions {
  /// Shared resident workers (must have >= shards - 1 slots and outlive
  /// the set); nullptr = the set lazily owns its own.
  WorkerPool* pool = nullptr;
  /// Shared feed clock for StreamState::last_touch; nullptr = own one.
  std::atomic<std::uint64_t>* clock = nullptr;
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
/// batched path: batches of at least kMinParallelBatch events are queued
/// per shard, then all non-empty shards drain concurrently on resident
/// worker threads woken per feed (the caller's thread included) and are
/// joined before feed returns; smaller batches and observe_one() run on
/// the caller's thread. Because a stream lives in exactly one shard and
/// each shard consumes its queue in feed order, results never depend on
/// shard count, batch size, or thread interleaving.
class ShardSet {
 public:
  /// `prototype` must outlive the set (the engine or server owns it).
  ShardSet(std::size_t shards, const core::Predictor& prototype, std::size_t horizon,
           KeyPolicy policy, ShardSetOptions options = {});

  void observe_one(const Event& event);

  /// Blocks until every event is observed. If it throws (allocation
  /// failure in a predictor or queue), stream state is partially updated;
  /// unprocessed queued events are dropped by the next feed, never
  /// replayed.
  void feed(std::span<const Event> events);

  /// Evicts the stream `key`, returning the predictor bytes it held;
  /// nullopt if unknown. Surviving streams are untouched: their rows in a
  /// later report are identical to a run that never held `key`'s state.
  std::optional<std::size_t> erase(const StreamKey& key);

  /// The one key-to-stream lookup behind every query verb of the engine
  /// and the serve layer; invalid for keys never observed (or evicted).
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
  [[nodiscard]] std::uint64_t next_tick() noexcept;
  void observe_tick(const Event& event, std::uint64_t tick);
  void partition(std::span<const Event> events);
  void update_resident_gauge() noexcept;

  KeyPolicy policy_;
  std::vector<EngineShard> shards_;
  WorkerPool* pool_;                        // resident workers actually used
  std::unique_ptr<WorkerPool> owned_pool_;  // set when options.pool was null
  std::atomic<std::uint64_t>* clock_;
  std::atomic<std::uint64_t> own_clock_{0};
  std::vector<std::size_t> pending_;  // reused worker-slot scratch
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
