#pragma once

#include <cstdint>
#include <string_view>

#include "sim/time.hpp"

namespace mpipred::trace {

/// The two instrumentation levels of section 3.1 of the paper.
///
///  * Logical  — MPI calls observed at the *top* of the library, in program
///               order: a pure function of the application code.
///  * Physical — message arrivals observed at the *bottom* of the library,
///               in delivery order: program order plus random effects
///               (jitter, congestion, load imbalance).
enum class Level : std::uint8_t { Logical = 0, Physical = 1 };

inline constexpr int kNumLevels = 2;

[[nodiscard]] constexpr std::string_view to_string(Level l) noexcept {
  return l == Level::Logical ? "logical" : "physical";
}

/// Whether a received message belongs to point-to-point traffic or was an
/// internal fragment of a collective operation (Table 1 counts these
/// separately).
enum class OpKind : std::uint8_t { PointToPoint = 0, Collective = 1 };

[[nodiscard]] constexpr std::string_view to_string(OpKind k) noexcept {
  return k == OpKind::PointToPoint ? "p2p" : "coll";
}

/// The library operation a record was produced by (diagnostics / filters).
/// Values are contiguous from 0; kNumOps below must track the last entry
/// (readers validate serialized op fields against it).
enum class Op : std::uint8_t {
  Recv,
  Barrier,
  Bcast,
  Reduce,
  Allreduce,
  Gather,
  Allgather,
  Scatter,
  Alltoall,
  Alltoallv,
  ReduceScatter,
  Scan,
};

/// Number of Op values; `static_cast<Op>(x)` is valid iff 0 <= x < kNumOps.
inline constexpr int kNumOps = static_cast<int>(Op::Scan) + 1;

[[nodiscard]] constexpr std::string_view to_string(Op op) noexcept {
  switch (op) {
    case Op::Recv: return "recv";
    case Op::Barrier: return "barrier";
    case Op::Bcast: return "bcast";
    case Op::Reduce: return "reduce";
    case Op::Allreduce: return "allreduce";
    case Op::Gather: return "gather";
    case Op::Allgather: return "allgather";
    case Op::Scatter: return "scatter";
    case Op::Alltoall: return "alltoall";
    case Op::Alltoallv: return "alltoallv";
    case Op::ReduceScatter: return "reduce_scatter";
    case Op::Scan: return "scan";
  }
  return "?";
}

/// Sender value used while a wildcard (ANY_SOURCE) receive has not been
/// matched yet. Logical records created for wildcard receives start out
/// unresolved and are patched once the match is known; the position in the
/// stream (program order) is already correct at creation time.
inline constexpr std::int32_t kUnresolvedSender = -1;

/// One received message, as seen by one instrumentation level. The two
/// 8-byte fields lead so the 4- and 1-byte ones share the last word: 24
/// bytes a record, the unit every trace store is billed in.
struct Record {
  sim::SimTime time{0};   ///< post time (logical) / delivery time (physical)
  std::int64_t bytes = 0;
  std::int32_t sender = kUnresolvedSender;
  OpKind kind = OpKind::PointToPoint;
  Op op = Op::Recv;

  [[nodiscard]] bool operator==(const Record&) const = default;
};
static_assert(sizeof(Record) == 24, "trace::Record grew past 24 bytes");

}  // namespace mpipred::trace
