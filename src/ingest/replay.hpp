#pragma once

// Replays an event stream through the adaptive runtime's decision layer —
// protocol choice per message, per-stream credit and pre-post scoring,
// service feed — exactly the path mpi::detail::Endpoint drives live. This
// is what makes an external trace first-class: the same registry
// predictor, the same sharded engine, the same policy code, fed from a
// file instead of the simulator. It is also the one replay behind the §2
// what-ifs (reproduce_paper's memory, flow-control and rendezvous
// sections) and buffer_planner, which view its counts.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "adaptive/config.hpp"
#include "adaptive/policy.hpp"
#include "engine/config.hpp"
#include "telemetry/telemetry.hpp"

namespace mpipred::ingest {

/// Accounting of one adaptive replay over an ingested event stream.
struct AdaptiveReplay {
  adaptive::PolicyStats stats;
  /// §2.2 per-stream credits: arrivals a credit of the receiver's plan
  /// (as it stood before the arrival) covered, and arrivals that would
  /// have had to ask first. Every arrival is scored, rendezvous-sized and
  /// elided ones included.
  std::int64_t credit_hits = 0;
  std::int64_t credit_misses = 0;
  /// Largest per-receiver pledge (sum of one credit plan's bytes) seen.
  std::int64_t peak_pledged_bytes = 0;

  [[nodiscard]] double credit_hit_rate() const noexcept {
    const std::int64_t scored = credit_hits + credit_misses;
    return scored == 0 ? 0.0 : static_cast<double>(credit_hits) / static_cast<double>(scored);
  }

  /// One-line summary of every stat (integers and fixed-precision floats
  /// only, no length cap), the line the `--trace` tools print and
  /// ingest_test compares byte-for-byte across shard counts.
  [[nodiscard]] std::string summary() const;
};

/// Feeds `events` (time-ordered arrivals) through one AdaptivePolicy:
/// each message is scored for protocol choice (eager / rendezvous /
/// elided), against the receiver's credit plan and against its pre-post
/// plan, then learned from. Pure per-stream predictor state, so the
/// result is identical for any `cfg.service.engine.shards` value.
///
/// `telemetry`, when given, receives the run's metrics (engine.feed.*,
/// adaptive.policy.*) and — if tracing is enabled there — one decision
/// instant per event on the destination's track, stamped with the event
/// ordinal (an ingested stream has no simulated clock). Telemetry never
/// feeds back into a decision: stats are byte-identical with or without
/// it, which telemetry_test pins.
[[nodiscard]] AdaptiveReplay replay_adaptive(std::span<const engine::Event> events,
                                             const adaptive::RuntimeConfig& cfg = {},
                                             telemetry::Telemetry* telemetry = nullptr);

/// Prediction-free yardstick at fixed capacity: each destination keeps
/// buffers for the `k` senders it heard from most recently. Fills the
/// pre-post fields of PolicyStats (messages, hits, misses, buffer_sum,
/// peak_buffers) as replay_adaptive would for an LRU-only policy.
[[nodiscard]] adaptive::PolicyStats replay_lru(std::span<const engine::Event> events,
                                               std::size_t k);

}  // namespace mpipred::ingest
