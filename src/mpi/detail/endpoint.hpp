#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>

#include "mpi/detail/progress.hpp"
#include "mpi/detail/state.hpp"
#include "mpi/types.hpp"
#include "sim/engine.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/store.hpp"

namespace mpipred::mpi {
class World;
}  // namespace mpipred::mpi

namespace mpipred::mpi::detail {

/// Per-endpoint traffic counters. `unexpected_bytes_peak` is the §2.2
/// quantity: how much receiver memory uncontrolled eager sends can pin.
struct EndpointCounters {
  std::int64_t eager_received = 0;
  std::int64_t rendezvous_received = 0;
  std::int64_t unexpected_arrivals = 0;
  std::int64_t unexpected_bytes_now = 0;
  std::int64_t unexpected_bytes_peak = 0;
  std::int64_t sends_posted = 0;
  std::int64_t recvs_posted = 0;
  /// Eager sends that had to queue for per-pair credit (§2.1 throttling).
  std::int64_t eager_credit_stalls = 0;
  // Closed-loop counters, populated only under WorldConfig::adaptive:
  /// Arrivals the receiver's pre-post plan anticipated.
  std::int64_t prepost_hits = 0;
  /// Arrivals the plan missed — the slow ask-permission fallback.
  std::int64_t prepost_misses = 0;
  /// Unexpected eager bytes parked in pre-posted (pledged) buffers
  /// instead of the unbounded unexpected pool.
  std::int64_t preposted_bytes_now = 0;
  std::int64_t preposted_bytes_peak = 0;
  /// Sender side: large sends that skipped the RTS/CTS handshake because
  /// the receiver's predictions anticipated them.
  std::int64_t rendezvous_elided = 0;
  /// §2.2 priced fallbacks: unexpected-pool eager arrivals that paid the
  /// ask-permission round-trip (only under NetworkConfig::fallback_cost >
  /// 0), and the total simulated ns those round-trips added before the
  /// parked payloads became usable.
  std::int64_t fallback_round_trips = 0;
  std::int64_t fallback_ns = 0;
  /// Live per-stream eager credits (RuntimeConfig::per_stream_credits):
  /// grants consumed by credited sends, releases returned at consumption,
  /// and the outstanding credited bytes (now/peak). Conservation — grants
  /// == releases and now == 0 after drain — is a pinned invariant.
  std::int64_t stream_credit_grants = 0;
  std::int64_t stream_credit_releases = 0;
  std::int64_t stream_credit_bytes_now = 0;
  std::int64_t stream_credit_bytes_peak = 0;

  /// One row of the field table below: the snapshot-struct member a
  /// registry instrument backs, under its exported metric name.
  struct Field {
    const char* name;
    std::int64_t EndpointCounters::* member;
  };
  /// Every field, in declaration order — the one list aggregation,
  /// registry export, and tests iterate instead of hand-written sums.
  [[nodiscard]] static std::span<const Field> fields() noexcept;

  [[nodiscard]] bool operator==(const EndpointCounters&) const = default;
};

/// The per-rank bottom half of the MPI library: tag matching, the
/// eager/rendezvous protocol, and both trace hooks. Post operations are
/// called from the owning rank's fiber. Packet deliveries enter through the
/// `deliver_*`/`credit_returned` entry points (engine event context), which
/// wrap the packet in a ProgressTask; matching, adaptive feed, buffer
/// routing, and credit release all execute as drained progress tasks.
class Endpoint {
 public:
  Endpoint(World& world, int rank);

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Posts a send of `data` (copied) to world rank `dst`. Chooses eager or
  /// rendezvous from the configured threshold. Returns immediately; the
  /// returned state completes via events.
  [[nodiscard]] std::shared_ptr<SendState> post_send(std::span<const std::byte> data, int dst,
                                                     int tag, std::uint32_t comm_id,
                                                     trace::OpKind kind, trace::Op op);

  /// Posts a receive into `buffer` (which must stay valid until the state
  /// completes). `src` may be kAnySource, `tag` may be kAnyTag.
  [[nodiscard]] std::shared_ptr<RecvState> post_recv(std::span<std::byte> buffer, int src, int tag,
                                                     std::uint32_t comm_id, trace::OpKind kind,
                                                     trace::Op op);

  // --- network-delivery entry points (engine event context) ---------------
  // Each submits one progress task; the queue drains synchronously, so the
  // packet is processed at exactly this simulated instant.

  void deliver_eager(Arrival arrival);
  void deliver_rts(Arrival arrival);
  void deliver_data(std::shared_ptr<SendState> send, std::shared_ptr<RecvState> recv);
  void credit_returned(int peer, std::int64_t bytes);
  /// Per-stream variant: the receiver consumed a credited payload and
  /// returns the stream credit this endpoint (the sender) spent on it.
  void stream_credit_returned(int peer, std::int64_t bytes);

  // --- cooperative progress & cancellation (owner fiber context) ----------

  /// Drains pending progress tasks. Returns true if any task ran.
  bool progress_poll() { return progress_.poll(); }

  /// Simulated duration of one unsuccessful progress poll
  /// (mpi::kProgressPollNs).
  [[nodiscard]] sim::SimTime progress_quantum() const;

  /// Removes an unmatched receive from the posted queue. Returns false if
  /// the receive already matched (cancellation lost the race).
  bool cancel_recv(const std::shared_ptr<RecvState>& recv);

  /// Removes a still-queued (credit-stalled) eager send. Returns false if
  /// the payload already left (launched or rendezvous-announced).
  bool cancel_send(const std::shared_ptr<SendState>& send);

  /// Registers a hook invoked (as a progress task) for every receive that
  /// completes on this endpoint — user and collective traffic alike.
  void set_recv_notify(std::function<void(const Status&)> cb) { recv_notify_ = std::move(cb); }

  /// Called by the source endpoint when a send owned by this rank
  /// completes: flips the state, dispatches then() continuations as
  /// progress tasks, and wakes the owner.
  void finish_send(const std::shared_ptr<SendState>& send);

  /// Point-in-time copy assembled from this endpoint's registry-backed
  /// instruments (the `{rank=N}`-labelled mpi.endpoint.* metrics).
  [[nodiscard]] EndpointCounters counters() const;
  [[nodiscard]] ProgressStats progress_stats() const { return progress_.stats(); }
  [[nodiscard]] int rank() const noexcept { return rank_; }

  /// Outstanding credited bytes per destination (sender side) — the
  /// per-stream conservation quantity the credit tests assert drains to
  /// zero for every flow.
  [[nodiscard]] std::span<const std::int64_t> stream_credit_outstanding() const noexcept {
    return stream_credit_used_;
  }

 private:
  // Task bodies (run inside the progress drain).
  void dispatch(ProgressTask& task);
  void handle_eager(const Arrival& arrival);
  void handle_rts(const Arrival& arrival);
  void handle_data(const std::shared_ptr<SendState>& send, const std::shared_ptr<RecvState>& recv);
  void handle_credit(int peer, std::int64_t bytes, bool per_stream);

  // §2.1 per-pair eager flow control (sender side): an eager message may
  // only fly while the receiver's per-peer buffer has room; otherwise it
  // queues here until a credit returns.
  void launch_eager(const std::shared_ptr<SendState>& send);

  // Matching helpers.
  [[nodiscard]] static bool matches(const RecvState& recv, const Arrival& arrival) noexcept;
  [[nodiscard]] std::shared_ptr<RecvState> take_posted_match(const Arrival& arrival);
  void deliver_eager_to(const std::shared_ptr<RecvState>& recv, const Arrival& arrival);
  void grant_cts(const std::shared_ptr<SendState>& send, const std::shared_ptr<RecvState>& recv);

  /// Completion tail shared by the eager and rendezvous paths: flips the
  /// state, then dispatches then() continuations and the recv-notify hook
  /// as progress tasks (they run before the owner's fiber resumes).
  void finish_recv(const std::shared_ptr<RecvState>& recv, const Status& st);

  void record_logical_post(RecvState& recv);
  void resolve_logical(const RecvState& recv, int sender, std::int64_t bytes);
  void record_physical_arrival(int sender, std::int64_t bytes, trace::OpKind kind,
                               trace::Op op);

  /// Feeds one physical arrival to the world's adaptive policy (when
  /// enabled) and scores it against this receiver's pre-post plan.
  /// Returns true when the arrival may park in a pre-posted buffer.
  bool note_adaptive_arrival(int sender, std::int64_t bytes, trace::OpKind kind);

  void wake_owner();

  /// Registry instruments behind EndpointCounters, labelled {rank=N}.
  /// now/peak counter pairs collapse into one Gauge each (add never
  /// lowers a peak — the exact semantics of the structs they replace).
  struct Instruments {
    telemetry::Counter* eager_received = nullptr;
    telemetry::Counter* rendezvous_received = nullptr;
    telemetry::Counter* unexpected_arrivals = nullptr;
    telemetry::Gauge* unexpected_bytes = nullptr;
    telemetry::Counter* sends_posted = nullptr;
    telemetry::Counter* recvs_posted = nullptr;
    telemetry::Counter* eager_credit_stalls = nullptr;
    telemetry::Counter* prepost_hits = nullptr;
    telemetry::Counter* prepost_misses = nullptr;
    telemetry::Gauge* preposted_bytes = nullptr;
    telemetry::Counter* rendezvous_elided = nullptr;
    telemetry::Counter* fallback_round_trips = nullptr;
    telemetry::Counter* fallback_ns = nullptr;
    telemetry::Counter* stream_credit_grants = nullptr;
    telemetry::Counter* stream_credit_releases = nullptr;
    telemetry::Gauge* stream_credit_bytes = nullptr;
    telemetry::Histogram* message_bytes = nullptr;
  };

  /// Emits the preposted/unexpected byte-pool counter tracks after a
  /// pool-size change (tracing only; no-op when the tracer is off).
  void trace_buffer_pools();

  World* world_;
  int rank_;
  telemetry::TraceEventSink* tracer_;  // cached; null when tracing is off
  ProgressEngine progress_;
  std::deque<std::shared_ptr<RecvState>> posted_;
  std::deque<Arrival> unexpected_;
  std::vector<std::int64_t> credit_used_;                           // per destination
  std::vector<std::int64_t> stream_credit_used_;                    // per destination
  std::vector<std::deque<std::shared_ptr<SendState>>> send_queue_;  // per destination
  std::function<void(const Status&)> recv_notify_;
  Instruments inst_;
};

}  // namespace mpipred::mpi::detail
