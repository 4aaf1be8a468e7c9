#pragma once

// The decision half of the adaptive runtime: turns PredictionService
// answers into the three §2 mechanisms — (a) which senders get a
// pre-posted eager receive buffer, (b) whether a large message may skip
// the rendezvous handshake, (c) which per-stream credits the receiver
// grants. One policy object serves both the live simulated library
// (mpi::detail::Endpoint consults it per message) and the trace-driven
// replay in src/ingest/replay.hpp that every §2 what-if bench views, so
// bench numbers and runtime behavior can never drift apart.

#include <cstdint>
#include <vector>

#include "adaptive/config.hpp"
#include "adaptive/service.hpp"

namespace mpipred::adaptive {

/// What the policy decided for one posted send.
enum class Protocol : std::uint8_t {
  Eager,             // under the threshold: direct, as today
  Rendezvous,        // over the threshold, not anticipated: RTS/CTS/DATA
  ElidedRendezvous,  // over the threshold but anticipated: travels direct
};

/// Aggregate decision accounting, across every destination the policy
/// served. All integers, so reports compare exactly across shard counts.
struct PolicyStats {
  std::int64_t messages = 0;       // arrivals scored against the pre-post plan
  std::int64_t prepost_hits = 0;   // sender held a pre-posted buffer
  std::int64_t prepost_misses = 0; // slow ask-permission fallback
  std::int64_t peak_buffers = 0;   // largest per-receiver resident count seen
  double buffer_sum = 0.0;         // resident count summed per arrival
  /// choose_protocol calls at or below the rendezvous threshold. The live
  /// endpoint asks the policy only about rendezvous-sized sends, so this
  /// stays 0 in a World; ingest::replay_adaptive asks for every arrival
  /// and counts each eager one (is.4: 0 live, 324 replayed). ROADMAP
  /// item 4 gives the struct one meaning on both paths.
  std::int64_t eager_sends = 0;
  std::int64_t rendezvous_sends = 0;
  std::int64_t rendezvous_elided = 0;
  /// Arrivals scored while the receiver was degraded to static behavior
  /// because its arrival stream's confidence sat below min_confidence.
  std::int64_t degraded_arrivals = 0;
  /// Total nominal RTS/CTS round-trip nanoseconds avoided by elisions, as
  /// accounted by the caller (the live endpoint prices each elision at the
  /// network's per-pair handshake cost; replays leave this 0).
  std::int64_t elision_saved_ns = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    return messages == 0 ? 0.0
                         : static_cast<double>(prepost_hits) / static_cast<double>(messages);
  }
  /// Mean resident pre-posted buffers per arrival (0.0 on empty replays).
  [[nodiscard]] double avg_buffers() const noexcept {
    return messages == 0 ? 0.0 : buffer_sum / static_cast<double>(messages);
  }
  [[nodiscard]] double elision_rate() const noexcept {
    const std::int64_t longs = rendezvous_sends + rendezvous_elided;
    return longs == 0 ? 0.0 : static_cast<double>(rendezvous_elided) / static_cast<double>(longs);
  }
};

/// One credit the receiver pledges: `sender` may send up to `bytes`
/// eagerly into guaranteed memory.
struct Credit {
  std::int32_t sender = 0;
  std::int64_t bytes = 0;

  /// True when this credit lets `from` send `send_bytes` eagerly: the
  /// sender matches and the pledged bytes cover the send.
  [[nodiscard]] bool covers(std::int32_t from, std::int64_t send_bytes) const noexcept {
    return sender == from && bytes >= send_bytes;
  }
  [[nodiscard]] bool operator==(const Credit&) const = default;
};

/// Prediction-driven runtime decisions over a PredictionService the policy
/// owns. Every answer is a pure function of per-stream predictor state, so
/// behavior is identical for any engine shard count.
class AdaptivePolicy {
 public:
  explicit AdaptivePolicy(ServiceConfig service = {}, PolicyConfig cfg = {});

  /// (a) Processes one arrival at `event.destination`: scores it against
  /// the receiver's current pre-post plan, feeds the service, refreshes
  /// the plan. Returns true on a plan hit (the fast path); false means the
  /// sender would have had to ask permission first.
  bool on_arrival(const engine::Event& event);

  /// The senders `destination` currently holds pre-posted buffers for:
  /// confident predicted senders plus the LRU tail.
  [[nodiscard]] std::span<const std::int32_t> prepost_plan(std::int32_t destination) const;
  [[nodiscard]] std::size_t resident_buffers(std::int32_t destination) const {
    return prepost_plan(destination).size();
  }

  /// (b) Protocol choice for one posted send (counted in stats()): a large
  /// message travels eagerly when the receiver's predicted window holds
  /// (sender, size >= bytes) at sufficient confidence — the receiver would
  /// have pre-granted the CTS.
  [[nodiscard]] Protocol choose_protocol(const engine::Event& event);

  /// (c) Per-stream credit plan for `destination`: one credit per known
  /// incoming flow whose next size is predicted at sufficient confidence,
  /// rounded up to the credit granule. First-seen flow order.
  [[nodiscard]] std::vector<Credit> credit_plan(std::int32_t destination) const;

  /// Credits an elided rendezvous with the handshake nanoseconds it
  /// avoided. The caller prices the saving (the policy has no network
  /// model); the live endpoint passes the nominal per-pair RTS/CTS cost.
  void note_elision_saved(std::int64_t ns) noexcept { stats_.elision_saved_ns += ns; }

  [[nodiscard]] const PolicyStats& stats() const noexcept { return stats_; }

  /// Copies the integer decision totals into `metrics` as
  /// adaptive.policy.* counters (plus a peak-only buffers gauge). Called
  /// once at end of run (World::run, replay drivers): counters add, so a
  /// second call would double them.
  void export_metrics(telemetry::MetricsRegistry& metrics) const;
  [[nodiscard]] PredictionService& service() noexcept { return service_; }
  [[nodiscard]] const PredictionService& service() const noexcept { return service_; }
  [[nodiscard]] const PolicyConfig& config() const noexcept { return cfg_; }

 private:
  struct Receiver {
    std::int32_t destination = 0;
    std::vector<std::int32_t> preposted;  // predicted senders + LRU tail
    std::vector<std::int32_t> lru;        // most recent senders, newest last
    /// False while the receiver's arrival confidence sits below
    /// min_confidence: the whole plan (including the LRU tail) is dropped,
    /// so behavior degrades to exactly the static per-peer library's.
    bool active = true;
  };

  [[nodiscard]] Receiver& receiver(std::int32_t destination);
  [[nodiscard]] const Receiver* find_receiver(std::int32_t destination) const;
  void refresh_plan(Receiver& r);

  PolicyConfig cfg_;
  PredictionService service_;
  std::vector<Receiver> receivers_;  // few destinations: linear scan
  PolicyStats stats_;
};

}  // namespace mpipred::adaptive
