#include "mpi/detail/endpoint.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <sstream>

#include "adaptive/policy.hpp"
#include "common/assert.hpp"
#include "common/error.hpp"
#include "mpi/world.hpp"

namespace mpipred::mpi::detail {

namespace {

[[nodiscard]] telemetry::LabelSet rank_labels(int rank) {
  telemetry::LabelSet labels;
  labels.set("rank", std::to_string(rank));
  return labels;
}

[[nodiscard]] std::string fixed3(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", x);
  return buf;
}

}  // namespace

std::span<const EndpointCounters::Field> EndpointCounters::fields() noexcept {
  static constexpr Field kFields[] = {
      {"eager_received", &EndpointCounters::eager_received},
      {"rendezvous_received", &EndpointCounters::rendezvous_received},
      {"unexpected_arrivals", &EndpointCounters::unexpected_arrivals},
      {"unexpected_bytes_now", &EndpointCounters::unexpected_bytes_now},
      {"unexpected_bytes_peak", &EndpointCounters::unexpected_bytes_peak},
      {"sends_posted", &EndpointCounters::sends_posted},
      {"recvs_posted", &EndpointCounters::recvs_posted},
      {"eager_credit_stalls", &EndpointCounters::eager_credit_stalls},
      {"prepost_hits", &EndpointCounters::prepost_hits},
      {"prepost_misses", &EndpointCounters::prepost_misses},
      {"preposted_bytes_now", &EndpointCounters::preposted_bytes_now},
      {"preposted_bytes_peak", &EndpointCounters::preposted_bytes_peak},
      {"rendezvous_elided", &EndpointCounters::rendezvous_elided},
      {"fallback_round_trips", &EndpointCounters::fallback_round_trips},
      {"fallback_ns", &EndpointCounters::fallback_ns},
      {"stream_credit_grants", &EndpointCounters::stream_credit_grants},
      {"stream_credit_releases", &EndpointCounters::stream_credit_releases},
      {"stream_credit_bytes_now", &EndpointCounters::stream_credit_bytes_now},
      {"stream_credit_bytes_peak", &EndpointCounters::stream_credit_bytes_peak},
  };
  return kFields;
}

Endpoint::Endpoint(World& world, int rank)
    : world_(&world),
      rank_(rank),
      tracer_(world.telemetry().tracer()),
      progress_([this](ProgressTask& t) { dispatch(t); }, &world.telemetry().metrics(),
                rank_labels(rank)) {
  credit_used_.assign(static_cast<std::size_t>(world.nranks()), 0);
  stream_credit_used_.assign(static_cast<std::size_t>(world.nranks()), 0);
  send_queue_.resize(static_cast<std::size_t>(world.nranks()));

  telemetry::MetricsRegistry& metrics = world.telemetry().metrics();
  const telemetry::LabelSet labels = rank_labels(rank);
  inst_.eager_received = &metrics.counter("mpi.endpoint.eager_received", labels);
  inst_.rendezvous_received = &metrics.counter("mpi.endpoint.rendezvous_received", labels);
  inst_.unexpected_arrivals = &metrics.counter("mpi.endpoint.unexpected_arrivals", labels);
  inst_.unexpected_bytes = &metrics.gauge("mpi.endpoint.unexpected_bytes", labels);
  inst_.sends_posted = &metrics.counter("mpi.endpoint.sends_posted", labels);
  inst_.recvs_posted = &metrics.counter("mpi.endpoint.recvs_posted", labels);
  inst_.eager_credit_stalls = &metrics.counter("mpi.endpoint.eager_credit_stalls", labels);
  inst_.prepost_hits = &metrics.counter("mpi.endpoint.prepost_hits", labels);
  inst_.prepost_misses = &metrics.counter("mpi.endpoint.prepost_misses", labels);
  inst_.preposted_bytes = &metrics.gauge("mpi.endpoint.preposted_bytes", labels);
  inst_.rendezvous_elided = &metrics.counter("mpi.endpoint.rendezvous_elided", labels);
  inst_.fallback_round_trips = &metrics.counter("mpi.endpoint.fallback_round_trips", labels);
  inst_.fallback_ns = &metrics.counter("mpi.endpoint.fallback_ns", labels);
  inst_.stream_credit_grants = &metrics.counter("mpi.endpoint.stream_credit_grants", labels);
  inst_.stream_credit_releases = &metrics.counter("mpi.endpoint.stream_credit_releases", labels);
  inst_.stream_credit_bytes = &metrics.gauge("mpi.endpoint.stream_credit_bytes", labels);
  inst_.message_bytes = &metrics.histogram(
      "mpi.endpoint.message_bytes", {64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}, labels);
  progress_.set_tracer(tracer_, rank_);
}

EndpointCounters Endpoint::counters() const {
  EndpointCounters c;
  c.eager_received = inst_.eager_received->value();
  c.rendezvous_received = inst_.rendezvous_received->value();
  c.unexpected_arrivals = inst_.unexpected_arrivals->value();
  c.unexpected_bytes_now = inst_.unexpected_bytes->value();
  c.unexpected_bytes_peak = inst_.unexpected_bytes->peak();
  c.sends_posted = inst_.sends_posted->value();
  c.recvs_posted = inst_.recvs_posted->value();
  c.eager_credit_stalls = inst_.eager_credit_stalls->value();
  c.prepost_hits = inst_.prepost_hits->value();
  c.prepost_misses = inst_.prepost_misses->value();
  c.preposted_bytes_now = inst_.preposted_bytes->value();
  c.preposted_bytes_peak = inst_.preposted_bytes->peak();
  c.rendezvous_elided = inst_.rendezvous_elided->value();
  c.fallback_round_trips = inst_.fallback_round_trips->value();
  c.fallback_ns = inst_.fallback_ns->value();
  c.stream_credit_grants = inst_.stream_credit_grants->value();
  c.stream_credit_releases = inst_.stream_credit_releases->value();
  c.stream_credit_bytes_now = inst_.stream_credit_bytes->value();
  c.stream_credit_bytes_peak = inst_.stream_credit_bytes->peak();
  return c;
}

void Endpoint::trace_buffer_pools() {
  if (tracer_ == nullptr) {
    return;
  }
  tracer_->counter(rank_, "preposted_bytes", inst_.preposted_bytes->value());
  tracer_->counter(rank_, "unexpected_bytes", inst_.unexpected_bytes->value());
}

void Endpoint::wake_owner() { world_->engine().rank(rank_).unblock(); }

void Endpoint::dispatch(ProgressTask& task) {
  switch (task.kind) {
    case ProgressTask::Kind::EagerArrival: handle_eager(task.arrival); return;
    case ProgressTask::Kind::RtsArrival: handle_rts(task.arrival); return;
    case ProgressTask::Kind::RendezvousData: handle_data(task.send, task.recv); return;
    case ProgressTask::Kind::CreditRelease:
      handle_credit(task.peer, task.bytes, task.per_stream);
      return;
    case ProgressTask::Kind::Callback: task.fn(); return;
  }
}

void Endpoint::deliver_eager(Arrival arrival) {
  ProgressTask task;
  task.kind = ProgressTask::Kind::EagerArrival;
  task.arrival = std::move(arrival);
  progress_.submit(std::move(task));
}

void Endpoint::deliver_rts(Arrival arrival) {
  ProgressTask task;
  task.kind = ProgressTask::Kind::RtsArrival;
  task.arrival = std::move(arrival);
  progress_.submit(std::move(task));
}

void Endpoint::deliver_data(std::shared_ptr<SendState> send, std::shared_ptr<RecvState> recv) {
  ProgressTask task;
  task.kind = ProgressTask::Kind::RendezvousData;
  task.send = std::move(send);
  task.recv = std::move(recv);
  progress_.submit(std::move(task));
}

void Endpoint::credit_returned(int peer, std::int64_t bytes) {
  ProgressTask task;
  task.kind = ProgressTask::Kind::CreditRelease;
  task.peer = peer;
  task.bytes = bytes;
  progress_.submit(std::move(task));
}

void Endpoint::stream_credit_returned(int peer, std::int64_t bytes) {
  ProgressTask task;
  task.kind = ProgressTask::Kind::CreditRelease;
  task.peer = peer;
  task.bytes = bytes;
  task.per_stream = true;
  progress_.submit(std::move(task));
}

bool Endpoint::matches(const RecvState& recv, const Arrival& arrival) noexcept {
  if (recv.comm_id != arrival.comm_id) {
    return false;
  }
  if (recv.src_filter != kAnySource && recv.src_filter != arrival.src) {
    return false;
  }
  if (recv.tag_filter == kAnyTag) {
    // The wildcard only matches user-level tags; internal (collective)
    // traffic uses negative tags, emulating MPI's separate context.
    return arrival.tag >= 0;
  }
  return recv.tag_filter == arrival.tag;
}

void Endpoint::record_logical_post(RecvState& recv) {
  trace::Record rec;
  rec.time = world_->engine().now();
  rec.sender = (recv.src_filter == kAnySource) ? trace::kUnresolvedSender
                                               : static_cast<std::int32_t>(recv.src_filter);
  rec.bytes = static_cast<std::int64_t>(recv.buffer.size());
  rec.kind = recv.kind;
  rec.op = recv.op;
  recv.logical_index = world_->traces().append(rank_, trace::Level::Logical, rec);
}

void Endpoint::resolve_logical(const RecvState& recv, int sender, std::int64_t bytes) {
  world_->traces().resolve(rank_, trace::Level::Logical, recv.logical_index,
                           static_cast<std::int32_t>(sender), bytes);
}

void Endpoint::record_physical_arrival(int sender, std::int64_t bytes, trace::OpKind kind,
                                       trace::Op op) {
  trace::Record rec;
  rec.time = world_->engine().now();
  rec.sender = static_cast<std::int32_t>(sender);
  rec.bytes = bytes;
  rec.kind = kind;
  rec.op = op;
  world_->traces().append(rank_, trace::Level::Physical, rec);
}

bool Endpoint::note_adaptive_arrival(int sender, std::int64_t bytes, trace::OpKind kind) {
  adaptive::AdaptivePolicy* policy = world_->adaptive_policy();
  if (policy == nullptr) {
    return false;
  }
  // Decision-instant args are gathered *before* the feed below mutates
  // predictor state: they capture the prediction this arrival was scored
  // against. Pure const reads — tracing never changes a decision.
  std::string args;
  if (tracer_ != nullptr) {
    args = "\"sender\":" + std::to_string(sender) + ",\"bytes\":" + std::to_string(bytes);
    if (const auto p = policy->service().predict_next(rank_)) {
      args += ",\"predicted_sender\":" + std::to_string(p->sender) +
              ",\"confidence\":" + fixed3(p->confidence);
    }
  }
  // Same event shape as engine::events_from_trace, so the closed loop
  // learns exactly the stream an offline engine replay would see.
  const bool hit = policy->on_arrival({.source = static_cast<std::int32_t>(sender),
                                       .destination = static_cast<std::int32_t>(rank_),
                                       .tag = static_cast<std::int32_t>(kind),
                                       .bytes = bytes});
  if (hit) {
    inst_.prepost_hits->inc();
  } else {
    inst_.prepost_misses->inc();
  }
  if (tracer_ != nullptr) {
    tracer_->instant(rank_, hit ? "prepost-hit" : "prepost-miss", "adaptive", std::move(args));
  }
  return hit;
}

std::shared_ptr<SendState> Endpoint::post_send(std::span<const std::byte> data, int dst, int tag,
                                               std::uint32_t comm_id, trace::OpKind kind,
                                               trace::Op op) {
  MPIPRED_REQUIRE(dst >= 0 && dst < world_->nranks(), "send destination out of range");
  inst_.sends_posted->inc();

  auto send = std::make_shared<SendState>();
  send->src = rank_;
  send->dst = dst;
  send->tag = tag;
  send->comm_id = comm_id;
  send->bytes = static_cast<std::int64_t>(data.size());
  send->payload = std::make_shared<std::vector<std::byte>>(data.begin(), data.end());
  send->kind = kind;
  send->op = op;
  send->rendezvous = send->bytes > world_->config().eager_threshold_bytes;

  // §2.3 closed loop: when the receiver's predictions anticipated this
  // (sender, size), the buffer is already pledged there — the handshake
  // can be skipped and the large message travels like a short one.
  if (send->rendezvous) {
    if (adaptive::AdaptivePolicy* policy = world_->adaptive_policy()) {
      const engine::Event event{.source = static_cast<std::int32_t>(rank_),
                                .destination = static_cast<std::int32_t>(dst),
                                .tag = static_cast<std::int32_t>(kind),
                                .bytes = send->bytes};
      if (policy->choose_protocol(event) == adaptive::Protocol::ElidedRendezvous) {
        send->rendezvous = false;
        send->elided = true;
        inst_.rendezvous_elided->inc();
        // Account what the skipped RTS/CTS would have cost on this pair.
        // Accounting only — no planning state moves and no randomness is
        // consumed — surfaced as adaptive.policy.elision_saved_ns.
        policy->note_elision_saved(std::llround(
            world_->engine().network().nominal_handshake_ns(rank_, dst, kControlBytes)));
      }
    }
  }

  if (tracer_ != nullptr) {
    const char* protocol = send->elided ? "elided" : (send->rendezvous ? "rendezvous" : "eager");
    tracer_->instant(rank_, "send", "mpi",
                     "\"dst\":" + std::to_string(dst) + ",\"tag\":" + std::to_string(tag) +
                         ",\"bytes\":" + std::to_string(send->bytes) + ",\"protocol\":\"" +
                         protocol + "\"");
  }

  sim::Engine& eng = world_->engine();
  sim::Network& net = eng.network();

  if (!send->rendezvous) {
    // Eager, subject to §2.1 per-pair flow control: the message may only
    // fly while the receiver's pre-allocated per-peer buffer has room for
    // it; otherwise it queues behind earlier messages to the same peer.
    // An elided-rendezvous send has its own pledged buffer, so the credit
    // never gates it — but it still queues behind earlier stalled sends
    // (same-pair ordering must hold for tag matching).
    const auto d = static_cast<std::size_t>(dst);
    // §2.2 per-stream credits (opt-in): a send whose flow holds a
    // sufficiently large, sufficiently confident size prediction flies on
    // the receiver's pledged per-stream credit instead of the per-pair
    // budget. At most one credited message per stream is in flight at a
    // time; the credit returns when the receiver consumes the payload.
    if (world_->config().adaptive.per_stream_credits && !send->elided &&
        stream_credit_used_[d] == 0) {
      if (adaptive::AdaptivePolicy* policy = world_->adaptive_policy()) {
        for (const adaptive::Credit& c : policy->credit_plan(dst)) {
          if (c.covers(rank_, send->bytes)) {
            send->credited = true;
            break;
          }
        }
      }
    }
    const std::int64_t credit = world_->config().per_pair_credit_bytes;
    const bool fits = send->elided || send->credited || credit <= 0 || credit_used_[d] == 0 ||
                      credit_used_[d] + send->bytes <= credit;
    if (fits && send_queue_[d].empty()) {
      launch_eager(send);
    } else {
      inst_.eager_credit_stalls->inc();
      send_queue_[d].push_back(send);
    }
    return send;
  }

  // Rendezvous: announce with an RTS; the payload moves only after the
  // receiver grants a CTS (see grant_cts / handle_data).
  const auto timing = net.plan_transfer(rank_, dst, kControlBytes, eng.now());
  Endpoint& dst_ep = world_->endpoint(dst);
  eng.schedule(timing.delivery, [&dst_ep, send] {
    Arrival arrival;
    arrival.type = Arrival::Type::Rts;
    arrival.src = send->src;
    arrival.tag = send->tag;
    arrival.comm_id = send->comm_id;
    arrival.bytes = send->bytes;
    arrival.kind = send->kind;
    arrival.op = send->op;
    arrival.send = send;
    dst_ep.deliver_rts(std::move(arrival));
  });
  return send;
}

void Endpoint::launch_eager(const std::shared_ptr<SendState>& send) {
  sim::Engine& eng = world_->engine();
  if (send->credited) {
    stream_credit_used_[static_cast<std::size_t>(send->dst)] += send->bytes;
    inst_.stream_credit_grants->inc();
    inst_.stream_credit_bytes->add(send->bytes);
    if (tracer_ != nullptr) {
      tracer_->counter(rank_, "stream_credit_bytes",
                       std::accumulate(stream_credit_used_.begin(), stream_credit_used_.end(),
                                       std::int64_t{0}));
    }
  } else if (world_->config().per_pair_credit_bytes > 0 && !send->elided) {
    credit_used_[static_cast<std::size_t>(send->dst)] += send->bytes;
    if (tracer_ != nullptr) {
      tracer_->counter(rank_, "credit_used_bytes",
                       std::accumulate(credit_used_.begin(), credit_used_.end(), std::int64_t{0}));
    }
  }
  const auto timing =
      eng.network().plan_transfer(rank_, send->dst, send->bytes + kHeaderBytes, eng.now());
  Endpoint& dst_ep = world_->endpoint(send->dst);
  eng.schedule(timing.delivery, [&dst_ep, send] {
    Arrival arrival;
    arrival.type = Arrival::Type::Eager;
    arrival.src = send->src;
    arrival.tag = send->tag;
    arrival.comm_id = send->comm_id;
    arrival.bytes = send->bytes;
    arrival.kind = send->kind;
    arrival.op = send->op;
    arrival.elided = send->elided;
    arrival.credited = send->credited;
    arrival.payload = send->payload;
    dst_ep.deliver_eager(std::move(arrival));
  });
  eng.schedule(timing.sender_free, [this, send] { finish_send(send); });
}

void Endpoint::finish_send(const std::shared_ptr<SendState>& send) {
  send->complete = true;
  wake_owner();
}

void Endpoint::finish_recv(const std::shared_ptr<RecvState>& recv, const Status& st) {
  recv->complete = true;
  recv->status = st;
}

void Endpoint::handle_credit(int peer, std::int64_t bytes, bool per_stream) {
  if (per_stream) {
    // A consumed credited payload returns its stream credit. Releases
    // mirror grants exactly, so the outstanding balance drains to zero.
    // No queue drain: stream credits never gate the per-pair queue, and a
    // queued send's credited status was fixed at post time.
    auto& used = stream_credit_used_[static_cast<std::size_t>(peer)];
    used -= std::min(used, bytes);
    inst_.stream_credit_releases->inc();
    inst_.stream_credit_bytes->add(-bytes);
    if (tracer_ != nullptr) {
      tracer_->counter(rank_, "stream_credit_bytes",
                       std::accumulate(stream_credit_used_.begin(), stream_credit_used_.end(),
                                       std::int64_t{0}));
    }
    return;
  }
  if (world_->config().per_pair_credit_bytes <= 0) {
    return;
  }
  auto& used = credit_used_[static_cast<std::size_t>(peer)];
  used -= std::min(used, bytes);
  if (tracer_ != nullptr) {
    tracer_->counter(rank_, "credit_used_bytes",
                     std::accumulate(credit_used_.begin(), credit_used_.end(), std::int64_t{0}));
  }
  auto& queue = send_queue_[static_cast<std::size_t>(peer)];
  const std::int64_t credit = world_->config().per_pair_credit_bytes;
  while (!queue.empty() && (queue.front()->elided || queue.front()->credited || used == 0 ||
                            used + queue.front()->bytes <= credit)) {
    auto next = queue.front();
    queue.pop_front();
    launch_eager(next);
  }
}

std::shared_ptr<RecvState> Endpoint::post_recv(std::span<std::byte> buffer, int src, int tag,
                                               std::uint32_t comm_id, trace::OpKind kind,
                                               trace::Op op) {
  MPIPRED_REQUIRE(src == kAnySource || (src >= 0 && src < world_->nranks()),
                  "receive source out of range");
  inst_.recvs_posted->inc();

  auto recv = std::make_shared<RecvState>();
  recv->receiver = rank_;
  recv->src_filter = src;
  recv->tag_filter = tag;
  recv->comm_id = comm_id;
  recv->buffer = buffer;
  recv->kind = kind;
  recv->op = op;

  record_logical_post(*recv);

  // First look at messages that already arrived, in arrival order.
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (!matches(*recv, *it)) {
      continue;
    }
    Arrival arrival = std::move(*it);
    if (arrival.type != Arrival::Type::Eager) {
      inst_.unexpected_bytes->add(-kControlBytes);
    } else if (arrival.preposted) {
      inst_.preposted_bytes->add(-arrival.bytes);
    } else {
      inst_.unexpected_bytes->add(-arrival.bytes);
    }
    trace_buffer_pools();
    unexpected_.erase(it);
    if (arrival.type == Arrival::Type::Eager) {
      if (arrival.usable_at > world_->engine().now()) {
        // The payload parked unmatched under a priced network and its
        // §2.2 ask-permission round-trip is still in flight: match now
        // (the pool gauge above is already debited) but copy out and
        // complete only once the grant lands.
        recv->matched = true;
        world_->engine().schedule(arrival.usable_at, [this, recv, arrival] {
          ProgressTask task;
          task.kind = ProgressTask::Kind::Callback;
          task.fn = [this, recv, arrival] { deliver_eager_to(recv, arrival); };
          progress_.submit(std::move(task));
        });
      } else {
        deliver_eager_to(recv, arrival);
      }
    } else {
      recv->matched = true;
      resolve_logical(*recv, arrival.src, arrival.bytes);
      grant_cts(arrival.send, recv);
    }
    return recv;
  }

  posted_.push_back(recv);
  return recv;
}

std::shared_ptr<RecvState> Endpoint::take_posted_match(const Arrival& arrival) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (matches(**it, arrival)) {
      std::shared_ptr<RecvState> recv = *it;
      posted_.erase(it);
      return recv;
    }
  }
  return nullptr;
}

void Endpoint::deliver_eager_to(const std::shared_ptr<RecvState>& recv, const Arrival& arrival) {
  if (static_cast<std::int64_t>(recv->buffer.size()) < arrival.bytes) {
    std::ostringstream os;
    os << "message truncation: rank " << rank_ << " posted a " << recv->buffer.size()
       << "-byte buffer for a " << arrival.bytes << "-byte message from rank " << arrival.src
       << " (tag " << arrival.tag << ")";
    throw UsageError(os.str());
  }
  if (arrival.bytes > 0) {
    std::memcpy(recv->buffer.data(), arrival.payload->data(),
                static_cast<std::size_t>(arrival.bytes));
  }
  recv->matched = true;
  finish_recv(recv, Status{arrival.src, arrival.tag, arrival.bytes});
  resolve_logical(*recv, arrival.src, arrival.bytes);
  // The receiver's buffer slot is free again: return the credit to the
  // sender (event-scheduled: this may run in either context). A credited
  // send returns its per-stream credit; a plain eager send its per-pair
  // budget; an elided send never consumed either, so releasing would
  // wrongly free other messages' budget.
  if (arrival.credited) {
    Endpoint& src_ep = world_->endpoint(arrival.src);
    const std::int64_t freed = arrival.bytes;
    const int me = rank_;
    world_->engine().schedule(world_->engine().now(),
                              [&src_ep, me, freed] { src_ep.stream_credit_returned(me, freed); });
  } else if (!arrival.elided) {
    Endpoint& src_ep = world_->endpoint(arrival.src);
    const std::int64_t freed = arrival.bytes;
    const int me = rank_;
    world_->engine().schedule(world_->engine().now(),
                              [&src_ep, me, freed] { src_ep.credit_returned(me, freed); });
  }
  wake_owner();
}

void Endpoint::grant_cts(const std::shared_ptr<SendState>& send,
                         const std::shared_ptr<RecvState>& recv) {
  // CTS travels receiver -> sender; once it lands, the payload is planned
  // from that moment (both legs consume real NIC/wire resources).
  sim::Engine& eng = world_->engine();
  const auto cts = eng.network().plan_transfer(rank_, send->src, kControlBytes, eng.now());
  eng.schedule(cts.delivery, [this, send, recv] {
    sim::Engine& e = world_->engine();
    const auto data =
        e.network().plan_transfer(send->src, send->dst, send->bytes + kHeaderBytes, e.now());
    Endpoint& dst_ep = world_->endpoint(send->dst);
    e.schedule(data.delivery, [&dst_ep, send, recv] { dst_ep.deliver_data(send, recv); });
    e.schedule(data.sender_free,
               [src_ep = &world_->endpoint(send->src), send] { src_ep->finish_send(send); });
  });
}

void Endpoint::handle_eager(const Arrival& arrival) {
  inst_.eager_received->inc();
  inst_.message_bytes->observe(arrival.bytes);
  record_physical_arrival(arrival.src, arrival.bytes, arrival.kind, arrival.op);
  bool preposted = note_adaptive_arrival(arrival.src, arrival.bytes, arrival.kind);
  // An elided rendezvous was anticipated by the receiver, and a credited
  // send flies into a pledged per-stream slot: their buffers are
  // receiver-controlled by construction — never charged to the unbounded
  // unexpected pool (even if the pre-post plan shifted between send and
  // arrival).
  preposted = preposted || arrival.elided || arrival.credited;
  if (auto recv = take_posted_match(arrival)) {
    deliver_eager_to(recv, arrival);
    return;
  }
  if (preposted) {
    // Predicted sender: the payload parks in the buffer pre-posted for it
    // — pledged, receiver-controlled memory, not the unexpected pool.
    inst_.preposted_bytes->add(arrival.bytes);
    trace_buffer_pools();
    Arrival parked = arrival;
    parked.preposted = true;
    unexpected_.push_back(std::move(parked));
    return;
  }
  inst_.unexpected_arrivals->inc();
  inst_.unexpected_bytes->add(arrival.bytes);
  trace_buffer_pools();
  Arrival parked = arrival;
  // §2.2 price of landing in uncontrolled memory: the payload is copied
  // aside and the receiver must ask the sender's permission before the
  // data becomes usable — one ask + one grant crossing, priced by the
  // network model (zero, with no RNG draw, while fallback_cost is 0).
  const sim::SimTime rtt = world_->engine().network().plan_fallback(arrival.src, rank_);
  if (rtt > sim::SimTime{0}) {
    parked.usable_at = world_->engine().now() + rtt;
    inst_.fallback_round_trips->inc();
    inst_.fallback_ns->add(rtt.count());
    if (tracer_ != nullptr) {
      tracer_->instant(rank_, "fallback-rtt", "mpi",
                       "\"src\":" + std::to_string(arrival.src) +
                           ",\"ns\":" + std::to_string(rtt.count()));
    }
  }
  unexpected_.push_back(std::move(parked));
}

void Endpoint::handle_rts(const Arrival& arrival) {
  if (auto recv = take_posted_match(arrival)) {
    recv->matched = true;
    resolve_logical(*recv, arrival.src, arrival.bytes);
    grant_cts(arrival.send, recv);
    return;
  }
  inst_.unexpected_arrivals->inc();
  inst_.unexpected_bytes->add(kControlBytes);
  trace_buffer_pools();
  unexpected_.push_back(arrival);
}

void Endpoint::handle_data(const std::shared_ptr<SendState>& send,
                           const std::shared_ptr<RecvState>& recv) {
  inst_.rendezvous_received->inc();
  inst_.message_bytes->observe(send->bytes);
  record_physical_arrival(send->src, send->bytes, send->kind, send->op);
  // Accounting only: the recv is already matched, so no buffer routing —
  // but the policy must still learn this arrival in physical order.
  (void)note_adaptive_arrival(send->src, send->bytes, send->kind);
  if (static_cast<std::int64_t>(recv->buffer.size()) < send->bytes) {
    std::ostringstream os;
    os << "message truncation: rank " << rank_ << " posted a " << recv->buffer.size()
       << "-byte buffer for a " << send->bytes << "-byte rendezvous message from rank "
       << send->src;
    throw UsageError(os.str());
  }
  if (send->bytes > 0) {
    std::memcpy(recv->buffer.data(), send->payload->data(), static_cast<std::size_t>(send->bytes));
  }
  finish_recv(recv, Status{send->src, send->tag, send->bytes});
  wake_owner();
}

}  // namespace mpipred::mpi::detail
