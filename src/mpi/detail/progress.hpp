#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>

#include "mpi/detail/state.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace mpipred::mpi::detail {

/// One unit of receive-side library work. Packet arrivals, credit returns,
/// and deferred deliveries are all expressed as tasks so the endpoint's
/// bottom half has a single, inspectable execution pipeline instead of
/// ad-hoc inline work in the delivery handlers.
struct ProgressTask {
  enum class Kind : std::uint8_t {
    EagerArrival,    ///< match or park a delivered eager payload
    RtsArrival,      ///< match or park a rendezvous announcement
    RendezvousData,  ///< land a granted rendezvous payload
    CreditRelease,   ///< return per-pair eager credit, relaunch queued sends
    Callback,        ///< deferred work, e.g. a priced fallback's late delivery
  };
  static constexpr int kKinds = 5;

  Kind kind = Kind::Callback;
  Arrival arrival{};                // EagerArrival / RtsArrival
  std::shared_ptr<SendState> send;  // RendezvousData
  std::shared_ptr<RecvState> recv;  // RendezvousData
  int peer = -1;                    // CreditRelease
  std::int64_t bytes = 0;           // CreditRelease
  bool per_stream = false;          // CreditRelease: stream credit, not per-pair
  std::function<void()> fn;         // Callback
};

/// Stable task-kind names, used as metric labels and trace-event names.
[[nodiscard]] const char* kind_name(ProgressTask::Kind kind) noexcept;

struct ProgressStats {
  std::int64_t submitted = 0;
  std::int64_t executed = 0;
  std::int64_t drains = 0;  ///< drain passes that executed at least one task
  std::int64_t max_queue_depth = 0;
  std::int64_t by_kind[ProgressTask::kKinds] = {};
};

/// FIFO pending-operation queue with a synchronous drain. `submit` enqueues
/// and — unless a drain is already running — immediately drains the queue to
/// empty, dispatching each task to the handler in submission order. Tasks
/// submitted by a handler (reentrant submits) append behind the task being
/// processed and run in the same drain pass, never nested.
///
/// The synchronous drain is a deliberate equivalence argument: work routed
/// through the queue executes at exactly the point it would have executed
/// inline, so converting a handler body into a task is behavior-preserving
/// by construction (the trace gate in mpi_gate_test pins this).
///
/// Accounting lives in registry-backed instruments: per-kind counters, a
/// submitted/executed/drains trio, and a queue-depth gauge whose peak is
/// the old max_queue_depth. A caller that passes no registry gets a
/// private one, so standalone (unit-test) engines need no wiring.
///
/// Single-threaded by design — it runs in the simulation's event loop (or a
/// caller's thread in unit tests); there is no locking to get wrong, and
/// therefore no capability for the thread-safety analysis to check: its
/// invariants (FIFO order, non-nested drains) are pinned by progress_test
/// and the mpi_gate_test byte-identity goldens instead.
class ProgressEngine {
 public:
  using Handler = std::function<void(ProgressTask&)>;

  explicit ProgressEngine(Handler handler, telemetry::MetricsRegistry* metrics = nullptr,
                          const telemetry::LabelSet& labels = {});

  ProgressEngine(const ProgressEngine&) = delete;
  ProgressEngine& operator=(const ProgressEngine&) = delete;

  /// Routes per-task instant events and the queue-depth counter track to
  /// `tracer` (track `track`); nullptr disables emission.
  void set_tracer(telemetry::TraceEventSink* tracer, int track) {
    tracer_ = tracer;
    track_ = track;
  }

  /// Enqueues `t`; drains the queue unless a drain is already in progress.
  void submit(ProgressTask t);

  [[nodiscard]] bool idle() const noexcept { return queue_.empty() && !draining_; }
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }
  /// Point-in-time view assembled from the registry instruments.
  [[nodiscard]] ProgressStats stats() const;

 private:
  void drain();

  Handler handler_;
  std::deque<ProgressTask> queue_;
  bool draining_ = false;
  std::unique_ptr<telemetry::MetricsRegistry> owned_metrics_;  // when none was passed
  telemetry::Counter* submitted_ = nullptr;
  telemetry::Counter* executed_ = nullptr;
  telemetry::Counter* drains_ = nullptr;
  telemetry::Gauge* queue_depth_ = nullptr;
  telemetry::Counter* by_kind_[ProgressTask::kKinds] = {};
  telemetry::TraceEventSink* tracer_ = nullptr;
  int track_ = 0;
};

}  // namespace mpipred::mpi::detail
