// The engine-equivalence harness: sharding is an optimization, never a
// semantics change. Random traces (seeded, varied key policies, every
// registered predictor family) must produce identical EngineReports for
// any shard count, across repeated runs, and whether events arrive one by
// one or as one parallel batch. Plus unit coverage for the open-addressing
// stream table the shards are built on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/stream_predictor.hpp"
#include "engine/engine.hpp"
#include "engine/registry.hpp"
#include "engine/shard.hpp"

namespace mpipred::engine {
namespace {

/// Seeded synthetic global trace: even-numbered receivers carry periodic
/// sender/size patterns (signal for the predictors to lock onto),
/// odd-numbered receivers are uniform noise (stressing warm-up, misses,
/// and unpredicted paths).
std::vector<Event> random_trace(std::uint64_t seed, int nevents, std::int32_t nsources,
                                std::int32_t ndestinations, std::int32_t ntags) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int32_t> source(0, nsources - 1);
  std::uniform_int_distribution<std::int32_t> destination(0, ndestinations - 1);
  std::uniform_int_distribution<std::int32_t> tag(0, ntags - 1);
  std::uniform_int_distribution<std::int64_t> bytes(1, 1 << 20);

  std::vector<Event> events;
  events.reserve(static_cast<std::size_t>(nevents));
  std::vector<int> round(static_cast<std::size_t>(ndestinations), 0);
  for (int i = 0; i < nevents; ++i) {
    Event event;
    event.destination = destination(rng);
    if (event.destination % 2 == 0) {
      const int r = round[static_cast<std::size_t>(event.destination)]++;
      event.source = (event.destination + r) % nsources;
      event.tag = r % ntags;
      event.bytes = std::int64_t{64} << (r % 5);
    } else {
      event.source = source(rng);
      event.tag = tag(rng);
      event.bytes = bytes(rng);
    }
    events.push_back(event);
  }
  return events;
}

EngineReport run(const std::vector<Event>& events, const std::string& predictor,
                 const KeyPolicy& policy, std::size_t shards) {
  PredictionEngine engine(
      EngineConfig{.predictor = predictor, .key = policy, .shards = shards});
  engine.observe_all(events);
  return engine.report();
}

const KeyPolicy kPolicies[] = {
    KeyPolicy::per_receiver(),
    KeyPolicy::full(),
    {.by_source = true, .by_destination = false, .by_tag = false},
};

TEST(EngineParallel, EveryShardCountMatchesTheSequentialReport) {
  const auto events = random_trace(/*seed=*/2003, /*nevents=*/6000, /*nsources=*/16,
                                   /*ndestinations=*/48, /*ntags=*/3);
  const std::size_t hw = effective_shard_count(0);
  for (const auto& predictor : builtin_predictor_names()) {
    for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
      SCOPED_TRACE(predictor + " policy#" + std::to_string(p));
      const auto sequential = run(events, predictor, kPolicies[p], 1);
      EXPECT_GT(sequential.streams.size(), 1u);
      for (const std::size_t shards : {std::size_t{2}, std::size_t{7}, hw}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        EXPECT_EQ(run(events, predictor, kPolicies[p], shards), sequential);
      }
    }
  }
}

TEST(EngineParallel, MoreShardsThanStreamsStillMatches) {
  const auto events = random_trace(17, 4000, 8, /*ndestinations=*/3, 2);
  const auto sequential = run(events, "dpd", KeyPolicy::per_receiver(), 1);
  ASSERT_EQ(sequential.streams.size(), 3u);
  EXPECT_EQ(run(events, "dpd", KeyPolicy::per_receiver(), 32), sequential);
}

TEST(EngineParallel, RepeatedRunsAtFixedShardCountAreDeterministic) {
  const auto events = random_trace(99, 8000, 16, 64, 4);
  const auto first = run(events, "dpd", KeyPolicy::full(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(run(events, "dpd", KeyPolicy::full(), 4), first);
  }
}

TEST(EngineParallel, OnlineObserveMatchesBatchedFeed) {
  // observe() (caller's thread) and one big observe_all() (parallel drain)
  // must build the same state: same reports, same online answers.
  const auto events = random_trace(7, 5000, 12, 40, 2);
  PredictionEngine online(EngineConfig{.shards = 7});
  for (const Event& event : events) {
    online.observe(event);
  }
  PredictionEngine batched(EngineConfig{.shards = 7});
  batched.observe_all(events);

  const auto report = online.report();
  EXPECT_EQ(report, batched.report());
  for (const auto& stream : report.streams) {
    EXPECT_EQ(online.predict_sender(stream.key), batched.predict_sender(stream.key));
    EXPECT_EQ(online.predict_size(stream.key), batched.predict_size(stream.key));
  }
}

TEST(EngineParallel, QueriesAgreeAcrossShardCounts) {
  const auto events = random_trace(123, 4096, 10, 32, 2);
  PredictionEngine one(EngineConfig{.shards = 1});
  PredictionEngine five(EngineConfig{.shards = 5});
  one.observe_all(events);
  five.observe_all(events);
  ASSERT_EQ(one.stream_count(), five.stream_count());
  EXPECT_EQ(five.shard_count(), 5u);
  for (const auto& stream : one.report().streams) {
    for (std::size_t h = 1; h <= 2; ++h) {
      EXPECT_EQ(one.predict_sender(stream.key, h), five.predict_sender(stream.key, h));
      EXPECT_EQ(one.predict_size(stream.key, h), five.predict_size(stream.key, h));
    }
  }
}

TEST(EngineParallel, DispatchThresholdNeverChangesTheReport) {
  // Feeds below kMinParallelBatch run inline on the caller's thread; feeds
  // at or above it are partitioned and drained by the resident pool. The
  // trace spans three thresholds, so slicing it on either side of the
  // threshold (or feeding it whole) takes both paths, and every report
  // must match the sequential one — dispatch is a cost choice only.
  const std::size_t nevents = 3 * kMinParallelBatch + 500;
  const auto events = random_trace(41, static_cast<int>(nevents), 12, 32, 3);
  const auto baseline = run(events, "dpd", KeyPolicy::per_receiver(), 1);
  const std::span<const Event> all(events);
  for (const std::size_t slice : {kMinParallelBatch - 1, kMinParallelBatch, nevents}) {
    for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE("slice=" + std::to_string(slice) + " shards=" + std::to_string(shards));
      PredictionEngine engine(EngineConfig{.shards = shards});
      for (std::size_t off = 0; off < all.size(); off += slice) {
        engine.observe_all(all.subspan(off, std::min(slice, all.size() - off)));
      }
      EXPECT_EQ(engine.report(), baseline);
    }
  }
}

TEST(EngineParallel, DefaultEngineUsesAutoShards) {
  PredictionEngine engine(EngineConfig{});
  EXPECT_EQ(engine.shard_count(), effective_shard_count(0));
  EXPECT_GE(engine.shard_count(), 1u);
}

TEST(EngineParallel, ShardSetRejectsZeroShards) {
  const core::StreamPredictor prototype;
  EXPECT_THROW(ShardSet(0, prototype, 5, KeyPolicy{}), UsageError);
}

TEST(StreamTable, FindsWhatItCreatesAcrossGrowth) {
  const core::StreamPredictor prototype;
  StreamTable table;
  std::vector<const StreamState*> created;
  for (std::int32_t i = 0; i < 5000; ++i) {
    const StreamKey key{.source = i % 13, .destination = i, .tag = i % 3};
    created.push_back(&table.find_or_create(key, prototype, 5));
  }
  EXPECT_EQ(table.size(), 5000u);
  for (std::int32_t i = 0; i < 5000; ++i) {
    const StreamKey key{.source = i % 13, .destination = i, .tag = i % 3};
    // Growth rehashes slots but never moves states: pointers stay stable.
    EXPECT_EQ(table.find(key), created[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(table.find(StreamKey{.source = 0, .destination = 5001, .tag = 0}), nullptr);
  // Re-creating an existing key returns the same state, not a duplicate.
  EXPECT_EQ(&table.find_or_create(StreamKey{.source = 0, .destination = 0, .tag = 0},
                                  prototype, 5),
            created.front());
  EXPECT_EQ(table.size(), 5000u);
}

TEST(StreamTable, EntriesKeepInsertionOrder) {
  const core::StreamPredictor prototype;
  StreamTable table;
  for (std::int32_t i = 0; i < 100; ++i) {
    (void)table.find_or_create(StreamKey{.source = 99 - i, .destination = i, .tag = kAnyKey},
                               prototype, 5);
  }
  const auto entries = table.entries();
  ASSERT_EQ(entries.size(), 100u);
  for (std::int32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(entries[static_cast<std::size_t>(i)].key.destination, i);
  }
}

TEST(StreamKeyHash, SpreadsKeysAndStaysDeterministic) {
  std::set<std::uint64_t> hashes;
  for (std::int32_t s = 0; s < 32; ++s) {
    for (std::int32_t d = 0; d < 32; ++d) {
      hashes.insert(stream_key_hash(StreamKey{.source = s, .destination = d, .tag = 0}));
    }
  }
  EXPECT_EQ(hashes.size(), 32u * 32u);  // no collisions on a dense grid
  const StreamKey key{.source = 3, .destination = 14, .tag = 1};
  EXPECT_EQ(stream_key_hash(key), stream_key_hash(key));
}

}  // namespace
}  // namespace mpipred::engine
