#include "serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <tuple>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "engine/registry.hpp"
#include "engine/worker_pool.hpp"

namespace mpipred::serve {

namespace {

/// Fixed bookkeeping charged per stream on top of its two predictors'
/// footprints: the StreamState block itself plus table/entry overhead.
constexpr std::size_t kStreamOverheadBytes = sizeof(engine::StreamState) + 64;

[[nodiscard]] telemetry::LabelSet tenant_labels(std::uint64_t session_id) {
  telemetry::LabelSet labels;
  labels.set("tenant", std::to_string(session_id));
  return labels;
}

}  // namespace

/// Shared machinery of one server, co-owned by the server handle and every
/// session (shared_ptr), so an orphaned session never dangles: the pool,
/// clock, and prototype live until the last owner is gone.
class ServerCore {
 public:
  explicit ServerCore(ServeConfig config)
      : cfg(std::move(config)),
        prototype(engine::make_predictor(cfg.engine.predictor, cfg.engine.options)),
        horizon(std::min(cfg.engine.options.horizon, prototype->max_horizon())),
        shards(engine::effective_shard_count(cfg.engine.shards)),
        pool(shards - 1) {
    MPIPRED_REQUIRE(horizon >= 1, "server horizon must be at least 1");
    metrics = cfg.engine.metrics;
    if (metrics == nullptr) {
      owned_metrics = std::make_unique<telemetry::MetricsRegistry>();
      metrics = owned_metrics.get();
    }
    evictions_total = &metrics->counter("serve.evictions");
    sessions_opened = &metrics->counter("serve.sessions.opened");
    resident_bytes = &metrics->gauge("serve.resident_bytes");
  }

  void unregister(Session* session) MPIPRED_EXCLUDES(mu) {
    const common::MutexLock lk(mu);
    std::erase(sessions, session);
  }

  /// Evicts coldest-first across every session until resident bytes fit
  /// the budget. Lock order: core mutex, then session mutexes in id order
  /// — callers must hold neither (feeds release their session mutex
  /// before entering). Locking a *dynamic* set of session mutexes is
  /// beyond the thread-safety analysis's lexical scope, so this function
  /// opts out; the TSan CI job covers it instead.
  void enforce_budget() MPIPRED_NO_THREAD_SAFETY_ANALYSIS {
    if (cfg.memory_budget_bytes == 0) {
      return;
    }
    const common::MutexLock core_lk(mu);
    if (closed.load(std::memory_order_acquire)) {
      return;
    }
    std::vector<std::unique_lock<common::Mutex>> session_locks;
    session_locks.reserve(sessions.size());
    for (Session* session : sessions) {
      session_locks.emplace_back(session->mu_);
    }
    struct Candidate {
      std::uint64_t last_touch = 0;
      std::uint64_t session_id = 0;
      engine::StreamKey key{};
      std::size_t bytes = 0;
      Session* owner = nullptr;
    };
    std::vector<Candidate> candidates;
    std::size_t total = 0;
    for (Session* session : sessions) {
      session->shards_.for_each_stream(
          [&](const engine::StreamKey& key, const engine::StreamState& state) {
            const std::size_t bytes = state.sender_predictor->footprint_bytes() +
                                      state.size_predictor->footprint_bytes() +
                                      kStreamOverheadBytes;
            total += bytes;
            candidates.push_back({state.last_touch, session->id_, key, bytes, session});
          });
    }
    resident_bytes->set(static_cast<std::int64_t>(total));
    if (total <= cfg.memory_budget_bytes) {
      return;
    }
    // Deterministic victim order: least recently fed first, ties broken by
    // session id then stream key — never by hash or thread timing.
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return std::tie(a.last_touch, a.session_id, a.key) <
                       std::tie(b.last_touch, b.session_id, b.key);
              });
    for (const Candidate& victim : candidates) {
      if (total <= cfg.memory_budget_bytes) {
        break;
      }
      victim.owner->shards_.erase(victim.key);
      total -= victim.bytes;
      evictions_total->inc();
      metrics->counter("serve.session.evictions", tenant_labels(victim.session_id)).inc();
    }
    resident_bytes->set(static_cast<std::int64_t>(total));
  }

  /// Same dynamic lock-set shape as enforce_budget, same opt-out.
  [[nodiscard]] ServerStats stats() const MPIPRED_NO_THREAD_SAFETY_ANALYSIS {
    const common::MutexLock core_lk(mu);
    std::vector<std::unique_lock<common::Mutex>> session_locks;
    session_locks.reserve(sessions.size());
    for (Session* session : sessions) {
      session_locks.emplace_back(session->mu_);
    }
    ServerStats out;
    out.sessions = sessions.size();
    out.budget_bytes = cfg.memory_budget_bytes;
    out.evictions = static_cast<std::uint64_t>(evictions_total->value());
    for (const Session* session : sessions) {
      session->shards_.for_each_stream(
          [&](const engine::StreamKey&, const engine::StreamState& state) {
            ++out.streams;
            out.resident_bytes += state.sender_predictor->footprint_bytes() +
                                  state.size_predictor->footprint_bytes() + kStreamOverheadBytes;
          });
    }
    resident_bytes->set(static_cast<std::int64_t>(out.resident_bytes));
    return out;
  }

  const ServeConfig cfg;
  const std::unique_ptr<core::Predictor> prototype;
  const std::size_t horizon;
  const std::size_t shards;
  engine::WorkerPool pool;
  std::atomic<std::uint64_t> clock{0};
  /// Set (once) by the server handle's destructor; sessions check it to
  /// reject further mutation.
  std::atomic<bool> closed{false};
  /// Guards the session registry and the eviction counter.
  mutable common::Mutex mu;
  /// id order (ids are handed out in order).
  std::vector<Session*> sessions MPIPRED_GUARDED_BY(mu);
  std::uint64_t next_id MPIPRED_GUARDED_BY(mu) = 1;
  /// Registry behind serve.* metrics and every session's engine.*
  /// metrics (per-tenant labels) — cfg.engine.metrics, or an owned one.
  std::unique_ptr<telemetry::MetricsRegistry> owned_metrics;
  telemetry::MetricsRegistry* metrics = nullptr;  // never null after ctor
  telemetry::Counter* evictions_total = nullptr;
  telemetry::Counter* sessions_opened = nullptr;
  telemetry::Gauge* resident_bytes = nullptr;
};

Session::Session(std::shared_ptr<ServerCore> core, std::uint64_t id)
    : core_(std::move(core)),
      id_(id),
      horizon_(core_->horizon),
      shard_count_(core_->shards),
      shards_(core_->shards, *core_->prototype, core_->horizon, core_->cfg.engine.key,
              {.pool = &core_->pool,
               .clock = &core_->clock,
               .metrics = core_->metrics,
               .metric_labels = tenant_labels(id)}) {}

Session::~Session() { core_->unregister(this); }

void Session::observe(const engine::Event& event) {
  {
    const common::MutexLock lk(mu_);
    MPIPRED_REQUIRE(!core_->closed.load(std::memory_order_acquire),
                    "session is orphaned: its PredictionServer was destroyed");
    shards_.observe_one(event);
  }
  core_->enforce_budget();
}

void Session::observe_all(std::span<const engine::Event> events) {
  {
    const common::MutexLock lk(mu_);
    MPIPRED_REQUIRE(!core_->closed.load(std::memory_order_acquire),
                    "session is orphaned: its PredictionServer was destroyed");
    shards_.feed(events);
  }
  core_->enforce_budget();
}

void Session::observe_batches(const engine::BatchProducer& produce) {
  engine::drive_batches(produce,
                        [this](std::span<const engine::Event> batch) { observe_all(batch); });
}

engine::StreamKey Session::key_of(const engine::Event& event) const {
  return engine::key_for(event, core_->cfg.engine.key);
}

// The query verbs resolve keys through ShardSet::stream, the engine's one
// lookup; predict and snapshot read under the session mutex, so a
// concurrent eviction pass never frees the state mid-read.
std::optional<core::Predictor::Value> Session::predict_sender(const engine::StreamKey& key,
                                                              std::size_t h) const {
  const common::MutexLock lk(mu_);
  return shards_.stream(key).predict_sender(h);
}

std::optional<core::Predictor::Value> Session::predict_size(const engine::StreamKey& key,
                                                            std::size_t h) const {
  const common::MutexLock lk(mu_);
  return shards_.stream(key).predict_size(h);
}

std::optional<engine::StreamSnapshot> Session::snapshot(const engine::StreamKey& key) const {
  const common::MutexLock lk(mu_);
  const engine::StreamRef ref = shards_.stream(key);
  return ref.valid() ? std::optional(ref.snapshot()) : std::nullopt;
}

engine::StreamRef Session::stream(const engine::StreamKey& key) const {
  const common::MutexLock lk(mu_);
  return shards_.stream(key);
}

engine::EngineReport Session::report() const {
  const common::MutexLock lk(mu_);
  return engine::report_of(shards_);
}

std::size_t Session::stream_count() const {
  const common::MutexLock lk(mu_);
  return shards_.stream_count();
}

PredictionServer::PredictionServer(ServeConfig cfg)
    : core_(std::make_shared<ServerCore>(std::move(cfg))) {}

PredictionServer::~PredictionServer() {
  core_->closed.store(true, std::memory_order_release);
  // The pool, clock, and prototype are co-owned by live sessions through
  // the shared core, so orphaned sessions keep answering reads; the
  // worker threads join when the last owner is destroyed.
}

std::shared_ptr<Session> PredictionServer::open_session() {
  const common::MutexLock lk(core_->mu);
  MPIPRED_REQUIRE(!core_->closed.load(std::memory_order_acquire),
                  "cannot open a session on a destroyed server");
  auto session = std::shared_ptr<Session>(new Session(core_, core_->next_id++));
  core_->sessions.push_back(session.get());
  core_->sessions_opened->inc();
  return session;
}

ServerStats PredictionServer::stats() const { return core_->stats(); }

const ServeConfig& PredictionServer::config() const noexcept { return core_->cfg; }

std::size_t PredictionServer::shard_count() const noexcept { return core_->shards; }

std::size_t PredictionServer::horizon() const noexcept { return core_->horizon; }

}  // namespace mpipred::serve
