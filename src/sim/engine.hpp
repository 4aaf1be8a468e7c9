#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/fiber.hpp"
#include "sim/network.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace mpipred::telemetry {
class TraceEventSink;
}  // namespace mpipred::telemetry

namespace mpipred::sim {

class Engine;

/// Per-rank execution handle. A rank's program receives a reference to its
/// Rank and uses it to consume simulated CPU time and to block on events
/// (the MPI layer builds send/recv on top of block()/unblock()).
class Rank {
 public:
  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] int world_size() const noexcept;
  [[nodiscard]] SimTime now() const noexcept;
  [[nodiscard]] Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  /// Spends simulated CPU time, perturbed by the configured compute jitter
  /// (models load imbalance across hosts).
  void compute(SimTime d);

  /// Spends exactly `d` of simulated CPU time (no jitter).
  void compute_exact(SimTime d);

  /// Suspends this rank until some event handler calls unblock(). `why` is
  /// kept for deadlock diagnostics. Must be called from this rank's fiber.
  void block(std::string why);

  /// Makes a blocked rank runnable again; it resumes at the current
  /// simulated time (after already-scheduled same-time events). Safe to
  /// call from event-handler context or from another rank's fiber.
  void unblock();

  /// True while the rank is suspended in block().
  [[nodiscard]] bool blocked() const noexcept { return blocked_; }

 private:
  friend class Engine;
  Rank(Engine& engine, int id, std::uint64_t seed) : engine_(&engine), id_(id), rng_(seed) {}

  Engine* engine_;
  int id_;
  Rng rng_;
  bool blocked_ = false;
  bool resume_pending_ = false;
  std::string block_reason_;
};

/// Aggregate counters exposed after a run, for reports and tests.
struct EngineStats {
  std::int64_t events_processed = 0;
  std::int64_t context_switches = 0;
  /// Always 0: no rank polls. Kept, with its `sim.idle_polls` metric,
  /// because the benchmark driver reads it.
  std::int64_t idle_polls = 0;
  SimTime final_time{0};
};

/// Deterministic discrete-event engine: one fiber per simulated rank, a
/// single event queue ordered by (time, insertion sequence), one OS thread.
/// Identical configuration + seed -> identical event order, identical
/// traces.
class Engine {
 public:
  explicit Engine(int nranks, EngineConfig cfg = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs `rank_main` once per rank (as that rank's fiber body) until every
  /// rank finishes. Throws DeadlockError if no event can make progress
  /// while some rank is still blocked; rethrows the first exception that
  /// escapes any rank body.
  void run(const std::function<void(Rank&)>& rank_main);

  /// Current simulated time. Valid during and after run().
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// The rank whose fiber is currently executing, or -1 in engine (event
  /// handler) context. This is what binds nonblocking-operation handles to
  /// their owning rank: a wait from the wrong fiber is a diagnosable
  /// usage error instead of scheduler corruption.
  [[nodiscard]] int current_rank() const noexcept { return current_rank_; }

  [[nodiscard]] int nranks() const noexcept { return static_cast<int>(ranks_.size()); }
  [[nodiscard]] Network& network() noexcept { return network_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] Rank& rank(int r);
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

  /// Schedules `cb` to run in event context at absolute time `when`
  /// (clamped to now), after all events already scheduled for that time.
  void schedule(SimTime when, std::function<void()> cb);

  /// Schedules `cb` to run `delay` after the current time.
  void schedule_after(SimTime delay, std::function<void()> cb);

  /// The span/instant sink of the configured telemetry, or nullptr when
  /// no telemetry was configured or tracing is disabled on it. Cached at
  /// construction; its clock is bound to this engine's simulated time.
  [[nodiscard]] telemetry::TraceEventSink* tracer() const noexcept { return tracer_; }

 private:
  friend class Rank;

  struct Event {
    SimTime when;
    std::uint64_t seq;
    std::function<void()> cb;
    // Min-heap on (when, seq): earlier time first, FIFO within a timestamp.
    [[nodiscard]] bool operator>(const Event& o) const noexcept {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };

  void resume_rank(int r);
  /// Unwinds every rank fiber that has not finished, while whatever its
  /// frames point at (the MPI world's endpoints) is still alive.
  void unwind_unfinished_ranks() noexcept;
  [[nodiscard]] std::string describe_blocked_ranks() const;

  EngineConfig cfg_;
  Network network_;
  telemetry::TraceEventSink* tracer_ = nullptr;
  SimTime now_{0};
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  EngineStats stats_;
  bool running_ = false;
  int current_rank_ = -1;
};

}  // namespace mpipred::sim
