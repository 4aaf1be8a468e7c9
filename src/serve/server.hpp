#pragma once

// Multi-tenant resident prediction service. A PredictionServer owns the
// expensive shared machinery once — the per-stream predictor prototype
// and one WorkerPool of resident shard threads — and hands out Sessions,
// each of which is a fully isolated prediction namespace (its own ShardSet
// over the shared pool). A session keeps every stream it has seen for its
// whole lifetime. Two sessions feeding streams with identical
// (source, destination, tag) keys never share or perturb each other's
// predictor state; a session's report is byte-identical to what a
// standalone PredictionEngine fed the same events would produce — the
// property serve_test pins.
//
// The single-tenant PredictionEngine and a Session are two handles on the
// same ShardSet code: feeds, the one query (ShardSet::stream -> StreamRef),
// reports (report_of), and pulled batches (drive_batches) all run one
// implementation underneath, so the two surfaces cannot drift apart.

#include <cstddef>
#include <cstdint>
#include <memory>
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
};

/// Point-in-time accounting of a server, for monitoring and tests.
struct ServerStats {
  std::size_t sessions = 0;
  std::size_t streams = 0;
  /// Per stream: its engine report footprint (both predictors and both
  /// accuracy evaluators' heaps) plus engine::kStreamOverheadBytes (the
  /// StreamState block and table entry).
  std::size_t resident_bytes = 0;
  /// Always 0: the server never evicts. Kept only for readers that still
  /// check it.
  std::uint64_t evictions = 0;
};

class ServerCore;

/// One tenant's prediction namespace. Sessions are handed out by
/// PredictionServer::open_session() and support the full engine verb set
/// — observe / observe_all / observe_batches / stream / report. A session
/// is internally synchronized against the server's stats() walk; distinct
/// sessions may feed concurrently (the shared worker pool serializes
/// dispatches), but calls on ONE session must not overlap, same as one
/// engine.
///
/// A session may outlive its server: destruction of the server orphans
/// live sessions, after which mutating calls (observe / observe_all) throw
/// UsageError while reads (stream, report) keep answering from the frozen
/// state.
class Session {
 public:
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session();

  /// Server-unique id, in open order starting at 1; the session's
  /// {tenant=id} metric label.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  /// Routes one event into this session's streams. Throws UsageError if
  /// the server has been destroyed.
  void observe(const engine::Event& event) MPIPRED_EXCLUDES(mu_);

  /// Batched feed through the resident shard workers; blocks until every
  /// event is observed.
  void observe_all(std::span<const engine::Event> events) MPIPRED_EXCLUDES(mu_);

  /// Pull-based batched feed; same double-buffered driver as
  /// PredictionEngine::observe_batches.
  void observe_batches(const engine::BatchProducer& produce);

  [[nodiscard]] engine::StreamKey key_of(const engine::Event& event) const;

  /// One-lookup stream view answering prediction and snapshot queries;
  /// invalidated only by this session's next observe.
  [[nodiscard]] engine::StreamRef stream(const engine::StreamKey& key) const
      MPIPRED_EXCLUDES(mu_);

  /// Accuracy and footprint of everything this session observed; identical
  /// to a standalone engine's report over the same feed.
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
  /// Guards shards_ against the server's cross-session stats() walk.
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
