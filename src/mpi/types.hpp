#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "adaptive/config.hpp"
#include "sim/config.hpp"

namespace mpipred::telemetry {
class Telemetry;
}  // namespace mpipred::telemetry

namespace mpipred::mpi {

/// Wildcard source: matches a message from any rank (MPI_ANY_SOURCE).
inline constexpr int kAnySource = -1;

/// Wildcard tag: matches any *user* tag, i.e. any tag >= 0. Internal
/// (collective) messages use negative tags and are never matched by the
/// wildcard — this stands in for MPI's separate collective context.
inline constexpr int kAnyTag = -1;

/// Elementary datatypes supported by typed operations and reductions.
enum class Datatype : std::uint8_t { Byte, Int32, Int64, UInt64, Float32, Float64 };

[[nodiscard]] constexpr std::size_t datatype_size(Datatype t) noexcept {
  switch (t) {
    case Datatype::Byte: return 1;
    case Datatype::Int32: return 4;
    case Datatype::Int64: return 8;
    case Datatype::UInt64: return 8;
    case Datatype::Float32: return 4;
    case Datatype::Float64: return 8;
  }
  return 0;
}

[[nodiscard]] constexpr std::string_view to_string(Datatype t) noexcept {
  switch (t) {
    case Datatype::Byte: return "byte";
    case Datatype::Int32: return "int32";
    case Datatype::Int64: return "int64";
    case Datatype::UInt64: return "uint64";
    case Datatype::Float32: return "float32";
    case Datatype::Float64: return "float64";
  }
  return "?";
}

/// Reduction operators for reduce/allreduce/reduce_scatter/scan.
enum class ReduceOp : std::uint8_t { Sum, Prod, Min, Max, LAnd, LOr, BAnd, BOr };

/// Maps a C++ element type to its Datatype tag at compile time.
template <typename T>
struct datatype_of;
template <> struct datatype_of<std::byte> { static constexpr Datatype value = Datatype::Byte; };
template <> struct datatype_of<std::int32_t> { static constexpr Datatype value = Datatype::Int32; };
template <> struct datatype_of<std::int64_t> { static constexpr Datatype value = Datatype::Int64; };
template <>
struct datatype_of<std::uint64_t> { static constexpr Datatype value = Datatype::UInt64; };
template <> struct datatype_of<float> { static constexpr Datatype value = Datatype::Float32; };
template <> struct datatype_of<double> { static constexpr Datatype value = Datatype::Float64; };

template <typename T>
inline constexpr Datatype datatype_of_v = datatype_of<T>::value;

/// Size of RTS/CTS protocol control messages on the wire.
inline constexpr std::int64_t kControlBytes = 64;
static_assert(kControlBytes > 0, "control messages need a positive size");

/// Per-message header bytes added to every wire transfer.
inline constexpr std::int64_t kHeaderBytes = 32;

/// Simulated duration of one unsuccessful progress poll: what a
/// test()/progress() call costs when the pending queue is empty. This is
/// what lets a spin loop on test() advance simulated time (MPI_Test
/// semantics) instead of live-locking the event engine.
inline constexpr std::int64_t kProgressPollNs = 1000;
static_assert(kProgressPollNs > 0, "progress poll quantum must be positive");

/// Configuration of a simulated MPI world. Both trace levels are always
/// recorded: the top of the library (program order) and the bottom
/// (arrival order).
struct WorldConfig {
  sim::EngineConfig engine{};
  /// Messages up to this many bytes are sent eagerly (no handshake); larger
  /// ones use the rendezvous protocol. 16 KiB follows the MPICH/IBM numbers
  /// the paper cites.
  std::int64_t eager_threshold_bytes = 16 * 1024;
  /// Per-(sender, receiver) budget of in-flight/unconsumed eager bytes —
  /// the pre-allocated per-peer buffer of §2.1 (IBM MPI: 16 KiB per peer).
  /// An eager send beyond the budget is queued until the receiver consumes
  /// earlier messages; this throttling is what keeps pipelined senders
  /// from running arbitrarily far ahead of their receivers. Set <= 0 for
  /// unlimited (no flow control, MPICH-style "just send it").
  std::int64_t per_pair_credit_bytes = 16 * 1024;
  /// The §2 closed loop: prediction-driven buffer pre-posting and
  /// rendezvous elision inside the library (off by default — the paper's
  /// measurement runs use the static library).
  adaptive::RuntimeConfig adaptive{};
  /// Optional caller-owned telemetry hub (metrics + trace sink). When null
  /// the World owns a private one, so endpoint/progress counters are
  /// always registry-backed; passing a hub additionally lets the caller
  /// export the metrics snapshot and (if enabled there) trace events.
  /// Overrides `engine.telemetry`, which the World wires to the same hub.
  telemetry::Telemetry* telemetry = nullptr;
};

}  // namespace mpipred::mpi
