#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace mpipred::telemetry {
class Telemetry;
}  // namespace mpipred::telemetry

namespace mpipred::sim {

/// Timing/noise model of the simulated interconnect, in the spirit of LogGP:
/// per-message overheads on both CPUs, a wire latency, and a per-byte gap
/// that serializes each NIC. The stochastic knobs reproduce the "random
/// effects in the physical data transfer" the paper observes at the low
/// level of the MPI library (section 3.1): network jitter reorders arrivals
/// from *different* senders, compute jitter models load imbalance.
///
/// Defaults approximate a 2003-era SP-class machine: ~20 us latency,
/// ~100 MB/s per link, noise off (so logical == physical order until a
/// caller opts in).
struct NetworkConfig {
  /// o_s: sender CPU time consumed per message before the NIC takes over.
  SimTime send_overhead{1'000};
  /// o_r: receiver CPU time consumed to deliver an arrived message.
  SimTime recv_overhead{1'000};
  /// L: base wire latency per message.
  SimTime latency{20'000};
  /// G: transmission time per payload byte (10 ns/B == 100 MB/s).
  double gap_ns_per_byte = 10.0;
  /// Coefficient of variation of the lognormal factor applied to the wire
  /// latency of each message. 0 disables network noise entirely.
  double latency_jitter_cv = 0.0;
  /// Coefficient of variation applied to every compute() block, modelling
  /// OS/load imbalance on the simulated hosts. 0 disables it.
  double compute_jitter_cv = 0.0;
  /// Price of one control-message crossing of the unexpected-copy /
  /// ask-permission fallback (paper section 2.2): an eager payload that
  /// lands with no matching receive posted is copied aside, and the
  /// receiver must complete an ask (dst -> src) plus a grant (src -> dst)
  /// crossing before the data becomes usable. Each crossing costs
  /// `fallback_cost`, scaled by the same per-pair skew and lognormal
  /// jitter as a wire latency. 0 (default) disables pricing entirely and
  /// consumes no randomness, so every pre-existing golden is unchanged.
  SimTime fallback_cost{0};
  /// Amplitude of the *systematic* per-(src,dst) extra wire latency, as a
  /// fraction of `latency`: each pair gets a fixed factor in
  /// [1, 1+path_skew), derived from the seed. Real interconnects route
  /// different pairs over different hop counts, which consistently breaks
  /// ties between messages racing to one receiver — without it, two
  /// senders at the same pipeline step arrive in coin-flip order, which no
  /// real machine exhibits. 0 disables it (default), keeping the
  /// noise-free identity physical order == logical order.
  double path_skew = 0.0;
};

/// Engine-level configuration.
struct EngineConfig {
  NetworkConfig network{};
  /// Root seed for every random stream in the simulation. Two runs with the
  /// same seed and programs produce identical traces.
  std::uint64_t seed = 42;
  /// Observability sink (not owned; must outlive the engine). The engine
  /// exports its run stats into the metrics registry and, when tracing is
  /// enabled on it, emits per-rank compute/block spans. nullptr = no
  /// telemetry (mpi::World always wires one in).
  telemetry::Telemetry* telemetry = nullptr;
};

}  // namespace mpipred::sim
