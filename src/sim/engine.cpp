#include "sim/engine.hpp"

#include <sstream>
#include <utility>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "telemetry/telemetry.hpp"

namespace mpipred::sim {

int Rank::world_size() const noexcept { return engine_->nranks(); }

SimTime Rank::now() const noexcept { return engine_->now(); }

void Rank::compute(SimTime d) {
  const double cv = engine_->config().network.compute_jitter_cv;
  compute_exact(from_ns(to_ns(d) * rng_.lognormal_factor(cv)));
}

void Rank::compute_exact(SimTime d) {
  MPIPRED_REQUIRE(d >= SimTime{0}, "compute duration cannot be negative");
  if (d == SimTime{0}) {
    return;
  }
  TELEM_SPAN(engine_->tracer(), id_, "compute", "compute");
  // Like every blocking primitive built on block()/unblock(), this loops:
  // other subsystems may unblock this rank spuriously (condition-variable
  // semantics), so completion is tracked with an explicit flag. The flag
  // lives on the fiber stack, which outlives the event because the fiber
  // stays suspended until the event fires.
  bool done = false;
  engine_->schedule_after(d, [this, &done] {
    done = true;
    unblock();
  });
  while (!done) {
    block("compute");
  }
}

void Rank::idle_poll(SimTime d) {
  MPIPRED_REQUIRE(d > SimTime{0}, "poll quantum must be positive");
  ++engine_->stats_.idle_polls;
  TELEM_SPAN(engine_->tracer(), id_, "idle-poll", "poll");
  // Same shape as compute_exact, but semantically a yield: the rank is not
  // doing work, it is giving the event loop a quantum in which deliveries
  // addressed to it may land. Spurious wakeups (e.g. a completion event)
  // re-block until the quantum elapses; the caller re-checks its predicate.
  bool done = false;
  engine_->schedule_after(d, [this, &done] {
    done = true;
    unblock();
  });
  while (!done) {
    block("progress-poll");
  }
}

void Rank::block(std::string why) {
  MPIPRED_REQUIRE(Fiber::current() != nullptr, "block() must run inside a rank fiber");
  MPIPRED_REQUIRE(!blocked_, "rank is already blocked");
  block_reason_ = std::move(why);
  blocked_ = true;
  telemetry::TraceEventSink* tracer = engine_->tracer();
  const std::int64_t blocked_at = tracer != nullptr ? tracer->now() : 0;
  // An unblock() may already be pending (e.g. the condition was satisfied
  // between deciding to block and blocking); if so, stay logically blocked
  // until the scheduled resume fires.
  Fiber::yield();
  if (tracer != nullptr) {
    tracer->complete(id_, block_reason_, "block", blocked_at, tracer->now() - blocked_at);
  }
  blocked_ = false;
  block_reason_.clear();
}

void Rank::unblock() {
  if (resume_pending_) {
    return;  // a resume is already scheduled; don't double-schedule
  }
  resume_pending_ = true;
  // Captures only `this`, so the callback fits std::function's inline
  // buffer: an unblock allocates nothing.
  engine_->schedule(engine_->now(), [this] {
    resume_pending_ = false;
    engine_->resume_rank(id_);
  });
}

Engine::Engine(int nranks, EngineConfig cfg)
    : cfg_(cfg),
      network_(nranks, cfg.network, cfg.seed),
      tracer_(cfg.telemetry != nullptr ? cfg.telemetry->tracer() : nullptr) {
  MPIPRED_REQUIRE(nranks > 0, "engine needs at least one rank");
  if (tracer_ != nullptr) {
    tracer_->set_clock([this] { return now_.count(); });
    for (int r = 0; r < nranks; ++r) {
      tracer_->set_track_name(r, "rank " + std::to_string(r));
    }
  }
  ranks_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    const std::uint64_t rank_seed =
        derive_seed(cfg.seed, std::uint64_t{0x52414E4B} + static_cast<std::uint64_t>(r));
    ranks_.emplace_back(std::unique_ptr<Rank>(new Rank(*this, r, rank_seed)));
  }
}

Engine::~Engine() = default;

Rank& Engine::rank(int r) {
  MPIPRED_REQUIRE(r >= 0 && r < nranks(), "rank index out of range");
  return *ranks_[static_cast<std::size_t>(r)];
}

void Engine::schedule(SimTime when, std::function<void()> cb) {
  MPIPRED_REQUIRE(cb != nullptr, "cannot schedule a null callback");
  if (when < now_) {
    when = now_;  // time never flows backwards
  }
  events_.push(Event{when, next_seq_++, std::move(cb)});
}

void Engine::schedule_after(SimTime delay, std::function<void()> cb) {
  MPIPRED_REQUIRE(delay >= SimTime{0}, "delay cannot be negative");
  schedule(now_ + delay, std::move(cb));
}

void Engine::resume_rank(int r) {
  Fiber& f = *fibers_[static_cast<std::size_t>(r)];
  if (f.finished()) {
    return;
  }
  ++stats_.context_switches;
  const int prev = current_rank_;
  current_rank_ = r;
  f.resume();  // rethrows anything that escaped the rank body
  current_rank_ = prev;
}

void Engine::unwind_unfinished_ranks() noexcept {
  for (int r = 0; r < nranks(); ++r) {
    Fiber& f = *fibers_[static_cast<std::size_t>(r)];
    if (!f.finished()) {
      current_rank_ = r;
      f.unwind();
      // The unwind left block() by exception, past its own reset.
      Rank& rank = *ranks_[static_cast<std::size_t>(r)];
      rank.blocked_ = false;
      rank.block_reason_.clear();
    }
  }
  current_rank_ = -1;
}

std::string Engine::describe_blocked_ranks() const {
  std::ostringstream os;
  for (int r = 0; r < nranks(); ++r) {
    const auto& rank = *ranks_[static_cast<std::size_t>(r)];
    const auto& fiber = *fibers_[static_cast<std::size_t>(r)];
    if (!fiber.finished()) {
      os << "\n  rank " << r << ": "
         << (rank.blocked_ ? rank.block_reason_ : std::string("not yet finished"));
    }
  }
  return os.str();
}

void Engine::run(const std::function<void(Rank&)>& rank_main) {
  MPIPRED_REQUIRE(rank_main != nullptr, "rank_main must be callable");
  MPIPRED_REQUIRE(!running_, "engine is already running");
  MPIPRED_REQUIRE(fibers_.empty(), "engine cannot be reused for a second run");
  running_ = true;

  fibers_.reserve(ranks_.size());
  for (auto& rank : ranks_) {
    Rank* rp = rank.get();
    fibers_.push_back(std::make_unique<Fiber>([rp, &rank_main] { rank_main(*rp); }));
  }
  for (int r = 0; r < nranks(); ++r) {
    schedule(SimTime{0}, [this, r] { resume_rank(r); });
  }
  // A deadlock or an escaping exception leaves fibers suspended; unwinding
  // them frees what their frames own. Runs after the DeadlockError text is
  // built, and before the caller's objects (the MPI world) go away.
  struct UnwindOnExit {
    Engine& engine;
    ~UnwindOnExit() { engine.unwind_unfinished_ranks(); }
  } unwind_on_exit{*this};

  while (!events_.empty()) {
    // std::priority_queue exposes only a const top(); moving out right
    // before pop() is safe because pop() never reads the moved-from cb.
    Event ev = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    now_ = ev.when;
    ++stats_.events_processed;
    ev.cb();
  }

  stats_.final_time = now_;
  running_ = false;

  if (cfg_.telemetry != nullptr) {
    telemetry::MetricsRegistry& metrics = cfg_.telemetry->metrics();
    metrics.counter("sim.events_processed").add(stats_.events_processed);
    metrics.counter("sim.context_switches").add(stats_.context_switches);
    metrics.counter("sim.idle_polls").add(stats_.idle_polls);
    metrics.gauge("sim.final_time_ns").set(stats_.final_time.count());
  }

  for (const auto& fiber : fibers_) {
    if (!fiber->finished()) {
      throw DeadlockError("simulation ran out of events with unfinished ranks:" +
                          describe_blocked_ranks());
    }
  }
}

}  // namespace mpipred::sim
