#pragma once

// Multi-tenant resident prediction service. A PredictionServer owns the
// expensive shared machinery once — the per-stream predictor prototype,
// one WorkerPool of resident shard threads, one recency clock, and an
// optional global memory budget — and hands out Sessions, each of which
// is a fully isolated prediction namespace (its own ShardSet over the
// shared pool). Two sessions feeding streams with identical
// (source, destination, tag) keys never share or perturb each other's
// predictor state; a session's report is byte-identical to what a
// standalone PredictionEngine fed the same events would produce — the
// property serve_test pins.
//
// The single-tenant PredictionEngine and a Session are two handles on the
// same ShardSet code: feeds, queries (ShardSet::stream -> StreamRef),
// reports (report_of), and pulled batches (drive_batches) all run one
// implementation underneath, so the two surfaces cannot drift apart.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "engine/config.hpp"
#include "engine/engine.hpp"
#include "engine/shard.hpp"

namespace mpipred::serve {

struct ServeConfig {
  /// Predictor family, options, key policy, and shard count every session
  /// of this server runs with.
  engine::EngineConfig engine{};
  /// Global cap on resident predictor state across all sessions, in
  /// bytes; 0 = unlimited. When a feed pushes the total over the cap, the
  /// coldest streams (least recently fed, ties broken by session id then
  /// key) are evicted server-wide until the total fits. Eviction drops
  /// whole streams only: surviving streams' predictor state and report
  /// rows are exactly what they would be had the evicted streams never
  /// existed.
  std::size_t memory_budget_bytes = 0;
};

/// Point-in-time accounting of a server, for budget monitoring and tests.
struct ServerStats {
  std::size_t sessions = 0;
  std::size_t streams = 0;
  /// Bytes the budget meters: per-stream predictor footprints plus the
  /// fixed per-stream bookkeeping overhead.
  std::size_t resident_bytes = 0;
  std::size_t budget_bytes = 0;
  /// Streams evicted over the server's lifetime.
  std::uint64_t evictions = 0;
};

class ServerCore;

/// One tenant's prediction namespace. Sessions are handed out by
/// PredictionServer::open_session() and support the full engine verb set
/// — observe / observe_all / observe_batches / predict / snapshot /
/// stream / report. A session is internally synchronized against the
/// server's eviction pass; distinct sessions may feed concurrently (the
/// shared worker pool serializes dispatches), but calls on ONE session
/// must not overlap, same as one engine.
///
/// A session may outlive its server: destruction of the server orphans
/// live sessions, after which mutating calls (observe / observe_all) throw
/// UsageError while reads (report, predict, snapshot) keep answering
/// from the frozen state.
class Session {
 public:
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session();

  /// Server-unique id, in open order starting at 1. Part of the eviction
  /// tie-break, so eviction order is deterministic.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  /// Routes one event into this session's streams. Throws UsageError if
  /// the server has been destroyed.
  void observe(const engine::Event& event) MPIPRED_EXCLUDES(mu_);

  /// Batched feed through the resident shard workers; blocks until every
  /// event is observed (and any budget-driven eviction ran).
  void observe_all(std::span<const engine::Event> events) MPIPRED_EXCLUDES(mu_);

  /// Pull-based batched feed; same double-buffered driver as
  /// PredictionEngine::observe_batches.
  void observe_batches(const engine::BatchProducer& produce);

  [[nodiscard]] engine::StreamKey key_of(const engine::Event& event) const;

  [[nodiscard]] std::optional<core::Predictor::Value> predict_sender(
      const engine::StreamKey& key, std::size_t h = 1) const MPIPRED_EXCLUDES(mu_);
  [[nodiscard]] std::optional<core::Predictor::Value> predict_size(
      const engine::StreamKey& key, std::size_t h = 1) const MPIPRED_EXCLUDES(mu_);
  [[nodiscard]] std::optional<engine::StreamSnapshot> snapshot(const engine::StreamKey& key) const
      MPIPRED_EXCLUDES(mu_);

  /// One-lookup stream view; invalidated by this session's next observe
  /// and by any eviction that removes the stream.
  [[nodiscard]] engine::StreamRef stream(const engine::StreamKey& key) const
      MPIPRED_EXCLUDES(mu_);

  /// Accuracy and footprint of everything this session observed and still
  /// holds; identical to a standalone engine's report over the same feed
  /// (when nothing was evicted).
  [[nodiscard]] engine::EngineReport report() const MPIPRED_EXCLUDES(mu_);

  [[nodiscard]] std::size_t stream_count() const MPIPRED_EXCLUDES(mu_);
  [[nodiscard]] std::size_t shard_count() const noexcept { return shard_count_; }
  [[nodiscard]] std::size_t horizon() const noexcept { return horizon_; }

 private:
  friend class PredictionServer;
  friend class ServerCore;

  Session(std::shared_ptr<ServerCore> core, std::uint64_t id);

  std::shared_ptr<ServerCore> core_;
  std::uint64_t id_;
  std::size_t horizon_;
  /// Copied out of shards_ at construction (immutable afterwards) so the
  /// lock-free shard_count() observer needs no capability.
  std::size_t shard_count_;
  /// Guards shards_ against the server's cross-session eviction pass.
  mutable common::Mutex mu_;
  engine::ShardSet shards_ MPIPRED_GUARDED_BY(mu_);
};

/// The resident service: builds the predictor prototype and worker pool
/// once, then serves any number of tenants. Thread-safe for concurrent
/// open_session / stats / per-session calls from different threads.
class PredictionServer {
 public:
  explicit PredictionServer(ServeConfig cfg = {});

  PredictionServer(const PredictionServer&) = delete;
  PredictionServer& operator=(const PredictionServer&) = delete;

  /// Orphans any live sessions: their reads stay valid, their feeds start
  /// throwing UsageError. The shared machinery (worker pool, prototype) is
  /// co-owned by live sessions and is released — joining the resident
  /// threads — when the last session is destroyed.
  ~PredictionServer();

  /// A fresh, empty, isolated prediction namespace over the shared pool.
  [[nodiscard]] std::shared_ptr<Session> open_session();

  [[nodiscard]] ServerStats stats() const;

  [[nodiscard]] const ServeConfig& config() const noexcept;
  [[nodiscard]] std::size_t shard_count() const noexcept;
  [[nodiscard]] std::size_t horizon() const noexcept;

 private:
  std::shared_ptr<ServerCore> core_;
};

}  // namespace mpipred::serve
