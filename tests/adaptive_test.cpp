// The adaptive runtime: PredictionService queries, AdaptivePolicy
// decisions, and the closed loop inside the simulated library. The
// properties pinned here: a perfectly periodic stream converges to ~100%
// pre-post hits, an adversarial (never-repeating) stream degrades
// gracefully to the fallback path, and every number is independent of the
// engine shard count.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "adaptive/policy.hpp"
#include "adaptive/service.hpp"
#include "apps/app.hpp"
#include "apps/registry.hpp"
#include "engine/engine.hpp"
#include "ingest/replay.hpp"
#include "mpi/world.hpp"

namespace mpipred::adaptive {
namespace {

engine::Event event_at(std::int32_t source, std::int32_t destination, std::int64_t bytes) {
  return {.source = source, .destination = destination, .tag = 0, .bytes = bytes};
}

/// n arrivals at destination 0 cycling through `senders`, sizes cycling
/// through `sizes` (or 0 when empty).
std::vector<engine::Event> periodic_arrivals(const std::vector<std::int32_t>& senders,
                                             const std::vector<std::int64_t>& sizes,
                                             std::size_t n) {
  std::vector<engine::Event> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(event_at(senders[i % senders.size()], 0,
                           sizes.empty() ? 0 : sizes[i % sizes.size()]));
  }
  return out;
}

ServiceConfig service_with_shards(std::size_t shards) {
  ServiceConfig cfg;
  cfg.engine.shards = shards;
  return cfg;
}

// -------------------------------------------------------------- service --

TEST(PredictionService, PredictsPeriodicStreamWithConfidence) {
  PredictionService service;
  for (const auto& e : periodic_arrivals({3, 9, 17, 25}, {512, 1024, 512, 2048}, 400)) {
    service.observe(e);
  }
  // Last arrival was from the (i % 4 == 3) slot; the next is slot 0.
  const auto next = service.predict_next(0);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->sender, 3);
  ASSERT_TRUE(next->bytes.has_value());
  EXPECT_EQ(*next->bytes, 512);
  EXPECT_GT(next->confidence, 0.8);

  const auto window = service.predicted_window(0);
  EXPECT_EQ(window.size(), service.horizon());
  const auto senders = service.predicted_senders(0);
  EXPECT_EQ(senders.size(), 4u);  // horizon 5 covers the whole cycle
}

TEST(PredictionService, UnknownDestinationHasNoPrediction) {
  PredictionService service;
  service.observe(event_at(1, 0, 64));
  EXPECT_FALSE(service.predict_next(7).has_value());
  EXPECT_TRUE(service.predicted_window(7).empty());
  EXPECT_TRUE(service.sources_of(7).empty());
}

TEST(PredictionService, PerStreamSizeViewSeparatesFlows) {
  PredictionService service;
  // Interleaved flows with constant-but-different sizes: the per-stream
  // view predicts each flow's size exactly even though the interleaved
  // size sequence alternates.
  for (const auto& e : periodic_arrivals({1, 2}, {100, 9000}, 200)) {
    service.observe(e);
  }
  const auto s1 = service.stream_view(1, 0).predict_size();
  const auto s2 = service.stream_view(2, 0).predict_size();
  ASSERT_TRUE(s1.has_value());
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(*s1, 100);
  EXPECT_EQ(*s2, 9000);
  EXPECT_GT(service.stream_view(1, 0).snapshot().size_accuracy, 0.8);
  EXPECT_EQ(service.stream_view(42, 0).snapshot().size_accuracy, 0.0);
}

TEST(PredictionService, SourcesOfKeepsFirstSeenOrder) {
  PredictionService service;
  for (const auto& e : periodic_arrivals({5, 2, 8, 2, 5}, {}, 25)) {
    service.observe(e);
  }
  const auto sources = service.sources_of(0);
  ASSERT_EQ(sources.size(), 3u);
  EXPECT_EQ(sources[0], 5);
  EXPECT_EQ(sources[1], 2);
  EXPECT_EQ(sources[2], 8);
}

TEST(PredictionService, ConfidenceGateFiltersPredictedSenders) {
  PredictionService service;
  for (const auto& e : periodic_arrivals({1, 2, 3}, {}, 300)) {
    service.observe(e);
  }
  EXPECT_FALSE(service.predicted_senders(0, /*min_confidence=*/0.0).empty());
  // No stream predicts at 100.1% accuracy.
  EXPECT_TRUE(service.predicted_senders(0, /*min_confidence=*/1.001).empty());
}

// --------------------------------------------------------------- policy --

TEST(AdaptivePolicy, PeriodicStreamReachesNearPerfectHitRate) {
  for (const std::size_t shards : {1u, 2u, 7u}) {
    AdaptivePolicy policy(service_with_shards(shards));
    for (const auto& e : periodic_arrivals({3, 9, 17, 25}, {}, 4000)) {
      policy.on_arrival(e);
    }
    const PolicyStats& stats = policy.stats();
    EXPECT_EQ(stats.messages, 4000);
    EXPECT_EQ(stats.prepost_hits + stats.prepost_misses, stats.messages);
    EXPECT_GT(stats.hit_rate(), 0.95) << "shards=" << shards;
    EXPECT_LE(stats.peak_buffers, 7) << "shards=" << shards;
  }
}

TEST(AdaptivePolicy, AdversarialStreamFallsBackGracefully) {
  for (const std::size_t shards : {1u, 2u, 7u}) {
    AdaptivePolicy policy(service_with_shards(shards));
    // Never-repeating senders: nothing to predict, every arrival must take
    // the ask-permission fallback, and residency stays at the LRU tail.
    for (std::int32_t i = 0; i < 600; ++i) {
      EXPECT_FALSE(policy.on_arrival(event_at(i, 0, 0)));
    }
    const PolicyStats& stats = policy.stats();
    EXPECT_EQ(stats.messages, 600);
    EXPECT_EQ(stats.prepost_hits, 0) << "shards=" << shards;
    EXPECT_EQ(stats.prepost_misses, 600);
    EXPECT_LE(policy.resident_buffers(0), policy.config().lru_keep);
  }
}

TEST(AdaptivePolicy, StatsAreIdenticalAcrossShardCounts) {
  // Mixed periodic + noise feed; every counter must match the sequential
  // engine exactly, whatever the shard count.
  const auto arrivals = periodic_arrivals({1, 4, 1, 9, 4, 1}, {256, 512, 256}, 1500);
  AdaptivePolicy reference(service_with_shards(1));
  for (const auto& e : arrivals) {
    reference.on_arrival(e);
  }
  for (const std::size_t shards : {2u, 3u, 8u}) {
    AdaptivePolicy policy(service_with_shards(shards));
    for (const auto& e : arrivals) {
      policy.on_arrival(e);
    }
    EXPECT_EQ(policy.stats().prepost_hits, reference.stats().prepost_hits);
    EXPECT_EQ(policy.stats().prepost_misses, reference.stats().prepost_misses);
    EXPECT_EQ(policy.stats().peak_buffers, reference.stats().peak_buffers);
    EXPECT_DOUBLE_EQ(policy.stats().buffer_sum, reference.stats().buffer_sum);
  }
}

TEST(AdaptivePolicy, ChoosesProtocolFromPredictedWindow) {
  AdaptivePolicy policy;
  // Every 4th message is large and periodic: after warm-up the window
  // anticipates it and the handshake is elided.
  const auto arrivals = periodic_arrivals({1, 2, 3, 7}, {1024, 1024, 1024, 64 * 1024}, 2000);
  std::int64_t late_elisions = 0;
  std::int64_t late_longs = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const auto protocol = policy.choose_protocol(arrivals[i]);
    if (arrivals[i].bytes <= policy.config().rendezvous_threshold_bytes) {
      EXPECT_EQ(protocol, Protocol::Eager);
    } else if (i >= arrivals.size() / 2) {
      ++late_longs;
      late_elisions += protocol == Protocol::ElidedRendezvous ? 1 : 0;
    }
    policy.service().observe(arrivals[i]);
  }
  ASSERT_GT(late_longs, 0);
  EXPECT_EQ(late_elisions, late_longs);  // fully periodic: all anticipated
  EXPECT_GT(policy.stats().rendezvous_elided, 0);
}

TEST(AdaptivePolicy, PlansCreditsPerStream) {
  AdaptivePolicy policy;
  for (const auto& e : periodic_arrivals({1, 2}, {100, 9000}, 200)) {
    policy.service().observe(e);
  }
  const auto credits = policy.credit_plan(0);
  ASSERT_EQ(credits.size(), 2u);
  // One credit per flow, rounded up to the 1 KiB granule.
  EXPECT_EQ(credits[0], (Credit{.sender = 1, .bytes = 1024}));
  EXPECT_EQ(credits[1], (Credit{.sender = 2, .bytes = 9216}));
}

// ---------------------------------------------------- closed loop (mpi) --

mpi::WorldConfig adaptive_world_config(std::size_t shards) {
  mpi::WorldConfig cfg = apps::paper_world_config(/*seed=*/11);
  cfg.adaptive.enabled = true;
  cfg.adaptive.service.engine.shards = shards;
  return cfg;
}

TEST(ClosedLoop, EndpointFeedsPolicyAndPrePostsBuffers) {
  mpi::World world(6, adaptive_world_config(1));
  const auto outcome = apps::run_sweep3d(world, apps::AppConfig{});
  EXPECT_TRUE(outcome.verified);

  const adaptive::AdaptivePolicy* policy = world.adaptive_policy();
  ASSERT_NE(policy, nullptr);
  const auto counters = world.aggregate_counters();
  EXPECT_EQ(policy->stats().messages, counters.prepost_hits + counters.prepost_misses);
  EXPECT_GT(policy->stats().messages, 0);
  // Sweep3D's pipelined pattern is predictable: the pre-post plan must
  // catch a solid majority of arrivals.
  EXPECT_GT(policy->stats().hit_rate(), 0.5);
}

TEST(ClosedLoop, DisabledWorldHasNoPolicy) {
  mpi::World world(4, apps::paper_world_config(11));
  EXPECT_EQ(world.adaptive_policy(), nullptr);
  const auto counters = world.aggregate_counters();
  EXPECT_EQ(counters.prepost_hits + counters.prepost_misses, 0);
}

TEST(ClosedLoop, RunIsDeterministicAcrossShardCounts) {
  std::vector<std::uint64_t> checksums;
  std::vector<std::int64_t> hits;
  std::vector<std::int64_t> elided;
  for (const std::size_t shards : {1u, 2u, 5u}) {
    mpi::World world(6, adaptive_world_config(shards));
    const auto outcome = apps::run_sweep3d(world, apps::AppConfig{});
    checksums.push_back(outcome.combined_checksum());
    hits.push_back(world.adaptive_policy()->stats().prepost_hits);
    elided.push_back(world.aggregate_counters().rendezvous_elided);
  }
  EXPECT_EQ(checksums[1], checksums[0]);
  EXPECT_EQ(checksums[2], checksums[0]);
  EXPECT_EQ(hits[1], hits[0]);
  EXPECT_EQ(hits[2], hits[0]);
  EXPECT_EQ(elided[1], elided[0]);
  EXPECT_EQ(elided[2], elided[0]);
}

TEST(ClosedLoop, PrepostedBytesReturnToZeroAfterDrain) {
  mpi::World world(6, adaptive_world_config(2));
  (void)apps::run_sweep3d(world, apps::AppConfig{});
  const auto counters = world.aggregate_counters();
  // Every parked arrival was eventually consumed by a matching recv.
  EXPECT_EQ(counters.preposted_bytes_now, 0);
  EXPECT_GE(counters.preposted_bytes_peak, 0);
}

TEST(ClosedLoop, ElidedLargeMessagesParkInPledgedMemory) {
  // An elided large message that lands before its recv is posted must be
  // charged to the pledged pool (the receiver anticipated it — that is
  // why it was elided), never to the unbounded unexpected pool.
  mpi::World world(8, adaptive_world_config(1));
  const auto outcome = apps::run_cg(world, apps::AppConfig{});
  EXPECT_TRUE(outcome.verified);
  const auto counters = world.aggregate_counters();
  EXPECT_GT(counters.rendezvous_elided, 0);  // CG moves >16 KiB rows
  // Both pools fully drained, and plan-quality accounting still ran.
  EXPECT_EQ(counters.preposted_bytes_now, 0);
  EXPECT_EQ(counters.unexpected_bytes_now, 0);
  EXPECT_GT(counters.prepost_hits, 0);
}

TEST(ClosedLoop, LivePrepostDecisionsMatchTheReplay) {
  // ingest::replay_adaptive drives the policy as the endpoint drives it
  // live, so replaying a world's physical arrivals (all of them: the live
  // loop scores collective-internal messages too) under the same config
  // must reproduce every pre-post decision. The protocol fields are left
  // out: the live sender chooses at send time, the replay at arrival, and
  // eager_sends counts different things on the two paths (ROADMAP item 4).
  struct Case {
    std::string_view app;
    int procs;
  };
  for (const auto& [app, procs] :
       {Case{"sweep3d", 6}, Case{"bt", 9}, Case{"cg", 8}, Case{"lu", 4}, Case{"is", 4}}) {
    for (const double min_confidence : {0.0, 0.8, 1.0}) {
      for (const bool per_stream_credits : {false, true}) {
        SCOPED_TRACE(std::string(app) + "." + std::to_string(procs) +
                     " min_confidence=" + std::to_string(min_confidence) +
                     " per_stream_credits=" + std::to_string(per_stream_credits));
        mpi::WorldConfig cfg = adaptive_world_config(1);
        cfg.adaptive.policy.min_confidence = min_confidence;
        cfg.adaptive.per_stream_credits = per_stream_credits;
        mpi::World world(procs, cfg);
        const auto outcome =
            apps::find_app(app).run(world, {.problem_class = apps::ProblemClass::S});
        ASSERT_TRUE(outcome.verified);
        const PolicyStats live = world.adaptive_policy()->stats();
        const PolicyStats replay =
            ingest::replay_adaptive(
                engine::events_from_trace(world.traces(), trace::Level::Physical), cfg.adaptive)
                .stats;
        EXPECT_GT(live.messages, 0);
        EXPECT_EQ(live.messages, replay.messages);
        EXPECT_EQ(live.prepost_hits, replay.prepost_hits);
        EXPECT_EQ(live.prepost_misses, replay.prepost_misses);
        EXPECT_EQ(live.peak_buffers, replay.peak_buffers);
        EXPECT_EQ(live.buffer_sum, replay.buffer_sum);
        EXPECT_EQ(live.degraded_arrivals, replay.degraded_arrivals);
      }
    }
  }
}

}  // namespace
}  // namespace mpipred::adaptive
