#pragma once

// Configuration of the adaptive runtime, split from policy.hpp/service.hpp
// so `mpi::WorldConfig` (which embeds a RuntimeConfig by value) compiles
// against the engine's lightweight config surface instead of dragging the
// full engine and predictor headers into every MPI translation unit.

#include <cstddef>
#include <cstdint>

#include "engine/config.hpp"

namespace mpipred::adaptive {

/// Per pre-posted eager buffer (the IBM MPI figure the paper quotes).
inline constexpr std::int64_t kBufferBytes = 16 * 1024;

/// A granted credit reserves the predicted size rounded up to this
/// granule (buffers come from a pool of fixed-size slots).
inline constexpr std::int64_t kCreditGranuleBytes = 1024;

struct PolicyConfig {
  /// Predictions below this observed +1 accuracy are ignored (the stream
  /// falls back to static behavior). 0.0 accepts any prediction — the §2
  /// replays' historical behavior.
  double min_confidence = 0.0;
  /// Buffers additionally retained for the most recently seen senders
  /// (small LRU so a briefly mispredicted regular sender is not evicted).
  std::size_t lru_keep = 3;
  /// Messages above this size use rendezvous unless elided.
  std::int64_t rendezvous_threshold_bytes = 16 * 1024;
};

struct ServiceConfig {
  /// Predictor family, options and shard count shared by both engine
  /// views. The key policy field is ignored: the service fixes its own
  /// policies (see service.hpp), and neither splits streams by tag — the
  /// paper's per-receiver setup, where the tag rides along as data.
  engine::EngineConfig engine{};
};

/// Configuration of the closed loop inside the simulated MPI library
/// (`mpi::WorldConfig::adaptive`). When enabled, the World owns one
/// AdaptivePolicy and every physical arrival feeds it. Both §2 mechanisms
/// always run together: (a) unexpected eager arrivals from predicted
/// senders park in pre-posted (pledged) memory instead of the unbounded
/// unexpected pool, and misses take the slow ask-permission fallback
/// (counted, and charged to the unexpected pool); (b) large sends the
/// receiver anticipated skip the RTS/CTS handshake. Decisions depend only on
/// per-stream predictor state, so a run is bit-identical across
/// `service.engine.shards` values.
struct RuntimeConfig {
  /// Live-loop defaults, tuned on the NAS traces: the pre-post plan must
  /// cover a receiver's whole frequent-sender set (BT has 6 neighbors, so
  /// a +5 window alone is one short — horizon 8 and an LRU tail of 6
  /// carry BT from ~98.3% to ~99.8% pre-post hits at the same residency).
  RuntimeConfig() {
    service.engine.options.horizon = 8;
    policy.lru_keep = 6;
  }

  bool enabled = false;
  /// (c) let eager sends fly on the per-stream credits of
  /// `AdaptivePolicy::credit_plan` instead of the per-pair eager budget: a
  /// send whose flow holds a sufficiently large, sufficiently confident
  /// size prediction bypasses `per_pair_credit_bytes` throttling, and the
  /// credit is returned when the receiver consumes the payload. Off by
  /// default — live flow control then stays per peer, as before.
  bool per_stream_credits = false;
  ServiceConfig service{};
  /// policy.rendezvous_threshold_bytes is overridden with the world's
  /// eager threshold so the two protocol cutoffs cannot diverge.
  PolicyConfig policy{};
};

}  // namespace mpipred::adaptive
