#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "mpi/status.hpp"
#include "sim/time.hpp"
#include "trace/event.hpp"

namespace mpipred::mpi::detail {

using Payload = std::shared_ptr<std::vector<std::byte>>;

/// State of one send operation. Events capture a shared_ptr to this, so it
/// outlives the posting call regardless of completion order.
struct SendState {
  int src = -1;
  int dst = -1;  // world rank
  int tag = 0;
  std::uint32_t comm_id = 0;
  std::int64_t bytes = 0;
  Payload payload;  // copied at post time (buffered-send semantics)
  trace::OpKind kind = trace::OpKind::PointToPoint;
  trace::Op op = trace::Op::Recv;
  bool rendezvous = false;
  /// Over-threshold send travelling eagerly because the receiver's
  /// predictions anticipated it (§2.3). It lands in the receiver's
  /// pledged buffer, so it neither consumes nor releases the per-pair
  /// eager credit.
  bool elided = false;
  /// Eager send flying on a per-stream credit the receiver pledged from
  /// its prediction-driven credit plan (§2.2, RuntimeConfig::
  /// per_stream_credits): bypasses the per-pair eager budget and parks in
  /// pledged memory; the stream credit is returned when the receiver
  /// consumes the payload.
  bool credited = false;
  bool complete = false;
  /// Removed from the send queue by Future::cancel() before launch.
  bool cancelled = false;
  /// then() continuations, dispatched as progress tasks at completion
  /// (before the owner's fiber resumes).
  std::vector<std::function<void(const Status&)>> callbacks;
};

/// State of one receive operation.
struct RecvState {
  int receiver = -1;       // world rank
  int src_filter = -1;     // world rank or kAnySource
  int tag_filter = 0;      // tag or kAnyTag
  std::uint32_t comm_id = 0;
  std::span<std::byte> buffer;
  trace::OpKind kind = trace::OpKind::PointToPoint;
  trace::Op op = trace::Op::Recv;
  bool matched = false;   // a message (or its RTS) has been bound to this recv
  bool complete = false;  // payload landed in `buffer`, `status` valid
  Status status{};
  /// Removed from the posted queue by Future::cancel() before matching.
  /// The logical trace record stays unresolved.
  bool cancelled = false;
  std::size_t logical_index = 0;  // this recv's record in the logical trace
  /// then() continuations, dispatched as progress tasks at completion
  /// (before the owner's fiber resumes).
  std::vector<std::function<void(const Status&)>> callbacks;
};

/// An arrival the receiver was not ready for: either a complete eager
/// payload or a rendezvous announcement (RTS) waiting for a matching recv.
struct Arrival {
  enum class Type : std::uint8_t { Eager, Rts };
  Type type = Type::Eager;
  int src = -1;  // world rank
  int tag = 0;
  std::uint32_t comm_id = 0;
  std::int64_t bytes = 0;
  trace::OpKind kind = trace::OpKind::PointToPoint;
  trace::Op op = trace::Op::Recv;
  /// The adaptive runtime predicted this sender: the payload is parked in
  /// a pre-posted buffer (pledged memory), not the unexpected pool.
  bool preposted = false;
  /// Carried over from SendState::elided (stays outside the per-pair
  /// eager credit; parks in pledged memory when unexpected).
  bool elided = false;
  /// Carried over from SendState::credited: the payload landed on a
  /// per-stream credit, which the receiver returns at consumption.
  bool credited = false;
  /// Earliest simulated instant the parked payload may complete a recv.
  /// Set past the park time only when the arrival landed in the
  /// *unexpected* pool under a priced network
  /// (sim::NetworkConfig::fallback_cost > 0): the §2.2 unexpected-copy /
  /// ask-permission round-trip must finish before the data is usable.
  sim::SimTime usable_at{0};
  Payload payload;                   // Eager only
  std::shared_ptr<SendState> send;   // Rts only
};

}  // namespace mpipred::mpi::detail
