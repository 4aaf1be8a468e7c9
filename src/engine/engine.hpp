#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/accuracy.hpp"
#include "core/predictor.hpp"
#include "engine/config.hpp"
#include "engine/registry.hpp"
#include "trace/merge.hpp"
#include "trace/store.hpp"

namespace mpipred::engine {

/// "src=3 dst=1 tag=*" — for report rows and error messages.
[[nodiscard]] std::string to_string(const StreamKey& key);

/// The shard count `requested` resolves to: itself, or the hardware
/// concurrency (at least 1) when `requested` is 0 (= auto).
[[nodiscard]] std::size_t effective_shard_count(std::size_t requested) noexcept;

/// The stream `event` belongs to under `policy`; dimensions the policy
/// ignores collapse to kAnyKey.
[[nodiscard]] StreamKey key_for(const Event& event, const KeyPolicy& policy) noexcept;

/// Accuracy and footprint of one stream: what a hand-wired evaluation of
/// that stream in isolation would report.
struct StreamReport {
  StreamKey key{};
  std::int64_t events = 0;
  core::AccuracyReport senders;
  core::AccuracyReport sizes;
  /// Bytes held by this stream's two predictors and their two accuracy
  /// evaluators (StreamState::footprint_bytes).
  std::size_t footprint_bytes = 0;

  [[nodiscard]] bool operator==(const StreamReport&) const = default;
};

/// Per-stream rows plus the element-wise aggregate over all streams.
/// Field-wise comparable so the engine-equivalence harness can assert that
/// sharded and sequential runs produce literally the same report.
struct EngineReport {
  std::vector<StreamReport> streams;  // sorted by key
  std::int64_t events = 0;
  core::AccuracyReport aggregate_senders;
  core::AccuracyReport aggregate_sizes;
  std::size_t total_footprint_bytes = 0;

  [[nodiscard]] bool operator==(const EngineReport&) const = default;
};

class ShardSet;

/// Cheap live view of one stream's track record, for consumers that gate
/// decisions on how well a stream has predicted *so far* (the adaptive
/// runtime's confidence signal). Unlike report(), reading one snapshot
/// costs a single table lookup, not a walk over every stream.
struct StreamSnapshot {
  std::int64_t events = 0;
  /// Observed +1 accuracy over all samples so far (the paper's metric:
  /// warm-up samples count as misses).
  double sender_accuracy = 0.0;
  double size_accuracy = 0.0;
};

struct StreamState;

/// One stream resolved once: the one query verb of the engine and the
/// serve layer (`stream(key)`). ShardSet::stream is the only code that
/// turns a key into one; per-message consumers that read several horizons
/// and both dimensions keep one and pay the lookup once. Streams are never
/// removed, so a view is invalidated only by the next feed into the
/// owning shard set.
class StreamRef {
 public:
  /// False for keys never observed; all queries then return empty.
  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  [[nodiscard]] std::optional<core::Predictor::Value> predict_sender(std::size_t h = 1) const;
  [[nodiscard]] std::optional<core::Predictor::Value> predict_size(std::size_t h = 1) const;
  [[nodiscard]] StreamSnapshot snapshot() const;

 private:
  friend class ShardSet;
  explicit StreamRef(const StreamState* state) : state_(state) {}

  const StreamState* state_;
};

/// Fills a cleared buffer with the next batch of events; leaving it empty
/// signals the end of the feed. Calls never overlap — a producer may reuse
/// captured state without locking.
using BatchProducer = std::function<void(std::vector<Event>&)>;

/// Double-buffered pull loop shared by every batched feed path (the engine
/// and the layers above it): repeatedly asks `produce` for the next batch
/// and hands it to `feed`, overlapping the production (parse) of batch N+1
/// with the feed of batch N on a second thread. Batches are handed over at
/// the join, so the feed order is exactly the sequential one. A throw from
/// `produce` propagates after the in-flight feed completes.
void drive_batches(const BatchProducer& produce,
                   const std::function<void(std::span<const Event>)>& feed);

/// Online multi-stream prediction: demultiplexes a global trace of MPI
/// events into per-key streams and maintains, per stream, one predictor
/// for the sender-rank dimension and one for the message-size dimension,
/// scoring every prediction as its target sample arrives (single pass).
///
/// Per stream the engine is exactly `AccuracyEvaluator` over a fresh clone
/// of the prototype, so per-stream numbers match a hand-wired evaluation
/// of that stream in isolation — the property engine_test pins down.
///
/// Streams are hash-partitioned across `EngineConfig::shards` worker
/// shards; `observe_all()` batches of at least kMinParallelBatch events
/// are drained by resident workers, one per shard, each walking the
/// caller's batch in place and observing only the events its shard owns
/// (no copies, no shared mutable state, joined before return), while
/// `observe()` and smaller batches run on the caller's thread. Every
/// stream's event subsequence reaches its predictors in feed order
/// regardless of shard count, so reports are byte-identical across shard
/// counts — engine_parallel_test pins that equivalence. Calls on one
/// engine must not overlap: the engine is internally parallel, not
/// thread-safe for concurrent callers.
class PredictionEngine {
 public:
  /// Builds the per-stream prototype through the registry.
  explicit PredictionEngine(EngineConfig cfg = {});

  PredictionEngine(PredictionEngine&&) noexcept;
  PredictionEngine& operator=(PredictionEngine&&) noexcept;
  ~PredictionEngine();  // out of line: StreamState is incomplete here

  /// Routes one event to its stream; creates the stream on first sight.
  void observe(const Event& event);

  void observe_all(std::span<const Event> events);

  /// Pull-based batched feed — the streaming-ingest hook. Repeatedly asks
  /// `produce` for the next batch and feeds it through the sharded
  /// observe path, overlapping the production (parse) of batch N+1 with
  /// the shard drain of batch N on a second thread. Equivalent to one
  /// observe_all over the concatenated batches: batch boundaries never
  /// change any stream's event order, so report() is byte-identical for
  /// any batch size — the ingest gates pin this. A throw from `produce`
  /// propagates to the caller after the in-flight drain completes.
  void observe_batches(const BatchProducer& produce);

  /// The key `event` routes to under this engine's policy.
  [[nodiscard]] StreamKey key_of(const Event& event) const;

  [[nodiscard]] std::size_t stream_count() const noexcept;

  /// Actual number of shards (cfg().shards with 0 resolved to hardware).
  [[nodiscard]] std::size_t shard_count() const noexcept;

  /// Effective horizon: cfg().options.horizon clamped to the prototype's
  /// max_horizon(). Predictions exist for h = 1..horizon() only.
  [[nodiscard]] std::size_t horizon() const noexcept { return horizon_; }

  /// Resolves `key` with one lookup; the returned view answers prediction
  /// (`h` steps ahead; nullopt for an unknown stream or one whose
  /// predictor has no basis yet) and snapshot queries until the engine's
  /// next observe call.
  [[nodiscard]] StreamRef stream(const StreamKey& key) const;

  /// Accuracy and footprint of everything observed so far.
  [[nodiscard]] EngineReport report() const;

  [[nodiscard]] const EngineConfig& config() const noexcept { return cfg_; }

 private:
  EngineConfig cfg_;
  std::unique_ptr<core::Predictor> prototype_;
  std::size_t horizon_ = 1;
  std::unique_ptr<ShardSet> shards_;
};

/// One engine event per merged trace record (trace::RecordMerge order,
/// written straight into the result); the OpKind becomes the tag.
[[nodiscard]] std::vector<Event> events_from_trace(const trace::TraceStore& store,
                                                   trace::Level level,
                                                   const trace::StreamFilter& filter = {});

/// Events of one receiving rank only, in that rank's record order — the
/// single-receiver slice of events_from_trace() without the global merge.
[[nodiscard]] std::vector<Event> events_from_rank(const trace::TraceStore& store, int rank,
                                                  trace::Level level,
                                                  const trace::StreamFilter& filter = {});

}  // namespace mpipred::engine
