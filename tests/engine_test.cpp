// The multi-stream prediction engine: demultiplexing correctness, exact
// equivalence with a hand-wired single-stream evaluation, key policies,
// online queries, aggregation, and the trace integration path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "apps/app.hpp"
#include "common/error.hpp"
#include "core/evaluate.hpp"
#include "engine/engine.hpp"
#include "mpi/world.hpp"
#include "trace/stream.hpp"

namespace mpipred::engine {
namespace {

void expect_same_report(const core::AccuracyReport& got, const core::AccuracyReport& want) {
  ASSERT_EQ(got.max_horizon(), want.max_horizon());
  for (std::size_t h = 1; h <= want.max_horizon(); ++h) {
    EXPECT_EQ(got.at(h).hits, want.at(h).hits) << "+h = " << h;
    EXPECT_EQ(got.at(h).misses, want.at(h).misses) << "+h = " << h;
    EXPECT_EQ(got.at(h).unpredicted, want.at(h).unpredicted) << "+h = " << h;
  }
}

/// Three receivers with distinct periodic traffic, interleaved round-robin
/// the way a global trace would deliver them.
std::vector<Event> synthetic_multi_stream(int rounds) {
  // Receiver 0: senders cycle 3,1,4 with sizes 100,200,300.
  // Receiver 1: senders cycle 7,8 with sizes 1000,2000.
  // Receiver 2: constant sender 5, sizes cycle 10,20,30,40.
  std::vector<Event> events;
  for (int i = 0; i < rounds; ++i) {
    const std::int64_t s0[] = {3, 1, 4};
    const std::int64_t b0[] = {100, 200, 300};
    const std::int64_t s1[] = {7, 8};
    const std::int64_t b1[] = {1000, 2000};
    const std::int64_t b2[] = {10, 20, 30, 40};
    events.push_back({.source = static_cast<std::int32_t>(s0[i % 3]),
                      .destination = 0,
                      .bytes = b0[i % 3]});
    events.push_back({.source = static_cast<std::int32_t>(s1[i % 2]),
                      .destination = 1,
                      .bytes = b1[i % 2]});
    events.push_back({.source = 5, .destination = 2, .bytes = b2[i % 4]});
  }
  return events;
}

TEST(PredictionEngine, DemuxesPerReceiver) {
  PredictionEngine engine;
  engine.observe_all(synthetic_multi_stream(50));
  EXPECT_EQ(engine.stream_count(), 3u);

  const auto report = engine.report();
  ASSERT_EQ(report.streams.size(), 3u);
  EXPECT_EQ(report.events, 150);
  for (const auto& stream : report.streams) {
    EXPECT_EQ(stream.events, 50);
    EXPECT_EQ(stream.key.source, kAnyKey);
    EXPECT_EQ(stream.key.tag, kAnyKey);
    EXPECT_GT(stream.footprint_bytes, 0u);
  }
  EXPECT_EQ(report.streams[0].key.destination, 0);
  EXPECT_EQ(report.streams[1].key.destination, 1);
  EXPECT_EQ(report.streams[2].key.destination, 2);
}

TEST(PredictionEngine, MatchesHandWiredStreamPredictorPerStream) {
  const auto events = synthetic_multi_stream(60);
  PredictionEngine engine;  // default config: dpd, per-receiver
  engine.observe_all(events);
  const auto report = engine.report();
  ASSERT_EQ(report.streams.size(), 3u);

  for (const auto& stream : report.streams) {
    SCOPED_TRACE(to_string(stream.key));
    // Hand-wire the paper's predictor on this stream in isolation.
    std::vector<std::int64_t> senders;
    std::vector<std::int64_t> sizes;
    for (const auto& event : events) {
      if (event.destination == stream.key.destination) {
        senders.push_back(event.source);
        sizes.push_back(event.bytes);
      }
    }
    const core::StreamPredictor hand_wired;
    expect_same_report(stream.senders, core::evaluate_stream_with(hand_wired, senders, 5));
    expect_same_report(stream.sizes, core::evaluate_stream_with(hand_wired, sizes, 5));
  }
}

TEST(PredictionEngine, AggregateIsTheSumOfStreams) {
  PredictionEngine engine;
  engine.observe_all(synthetic_multi_stream(40));
  const auto report = engine.report();

  for (std::size_t h = 1; h <= 5; ++h) {
    std::int64_t hits = 0;
    std::int64_t total = 0;
    std::size_t footprint = 0;
    for (const auto& stream : report.streams) {
      hits += stream.senders.at(h).hits;
      total += stream.senders.at(h).total();
      footprint += stream.footprint_bytes;
    }
    EXPECT_EQ(report.aggregate_senders.at(h).hits, hits);
    EXPECT_EQ(report.aggregate_senders.at(h).total(), total);
    EXPECT_EQ(report.total_footprint_bytes, footprint);
  }
}

TEST(PredictionEngine, FullKeyPolicySplitsBySourceAndTag) {
  EngineConfig cfg;
  cfg.key = KeyPolicy::full();
  PredictionEngine engine(cfg);
  engine.observe({.source = 1, .destination = 0, .tag = 0, .bytes = 10});
  engine.observe({.source = 2, .destination = 0, .tag = 0, .bytes = 10});
  engine.observe({.source = 1, .destination = 0, .tag = 7, .bytes = 10});
  EXPECT_EQ(engine.stream_count(), 3u);

  // Per-receiver would have folded all three into one stream.
  PredictionEngine merged;
  merged.observe({.source = 1, .destination = 0, .tag = 0, .bytes = 10});
  merged.observe({.source = 2, .destination = 0, .tag = 0, .bytes = 10});
  merged.observe({.source = 1, .destination = 0, .tag = 7, .bytes = 10});
  EXPECT_EQ(merged.stream_count(), 1u);
}

TEST(PredictionEngine, OnlineQueriesPredictPerStream) {
  PredictionEngine engine;
  engine.observe_all(synthetic_multi_stream(60));

  // Receiver 2's sender is constant and its sizes cycle 10,20,30,40; after
  // 60 rounds the DPD has locked on. Round 60 starts at size 10 again.
  const StreamKey key{.source = kAnyKey, .destination = 2, .tag = kAnyKey};
  ASSERT_TRUE(engine.predict_sender(key).has_value());
  EXPECT_EQ(*engine.predict_sender(key), 5);
  ASSERT_TRUE(engine.predict_size(key).has_value());
  EXPECT_EQ(*engine.predict_size(key), 10);
  EXPECT_EQ(*engine.predict_size(key, 2), 20);

  // Unknown streams answer nothing rather than throwing.
  const StreamKey unknown{.source = kAnyKey, .destination = 99, .tag = kAnyKey};
  EXPECT_FALSE(engine.predict_sender(unknown).has_value());
  EXPECT_FALSE(engine.predict_size(unknown).has_value());
}

// The streaming-ingest hook: a pull-based batched feed must be exactly
// observe_all over the concatenated batches, whatever the batch size —
// the double-buffered producer overlap may change who does the work, never
// the result.
TEST(PredictionEngine, ObserveBatchesMatchesObserveAllAtEveryBatchSize) {
  const auto events = synthetic_multi_stream(40);
  PredictionEngine reference{EngineConfig{}};
  reference.observe_all(events);
  const auto want = reference.report();

  for (const std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  events.size() + 1}) {
    PredictionEngine eng{EngineConfig{}};
    std::size_t next = 0;
    eng.observe_batches([&](std::vector<Event>& out) {
      const std::size_t take = std::min(batch, events.size() - next);
      out.assign(events.begin() + static_cast<std::ptrdiff_t>(next),
                 events.begin() + static_cast<std::ptrdiff_t>(next + take));
      next += take;
    });
    EXPECT_EQ(eng.report(), want) << "batch = " << batch;
  }
}

TEST(PredictionEngine, ObserveBatchesPropagatesProducerErrors) {
  PredictionEngine eng{EngineConfig{}};
  int calls = 0;
  EXPECT_THROW(eng.observe_batches([&calls](std::vector<Event>& out) {
                 if (++calls == 2) {
                   throw UsageError("producer failed");
                 }
                 out.assign(8, Event{.source = 1, .destination = 0, .bytes = 64});
               }),
               UsageError);
  // The batch handed over before the failure was fed.
  EXPECT_EQ(eng.report().events, 8);
}

TEST(PredictionEngine, UnresolvedSenderIsNotAWildcardStream) {
  // Regression: kAnyKey used to be -1, colliding with
  // trace::kUnresolvedSender — a drop_unresolved = false feed keyed
  // by_source rendered an unresolved stream as the wildcard "src=*".
  static_assert(kAnyKey != trace::kUnresolvedSender);

  trace::TraceStore store(2);
  store.append(1, trace::Level::Logical,
               {.time = sim::SimTime{1}, .sender = trace::kUnresolvedSender, .bytes = 8});
  store.append(1, trace::Level::Logical, {.time = sim::SimTime{2}, .sender = 0, .bytes = 8});
  const auto events =
      events_from_trace(store, trace::Level::Logical, {.drop_unresolved = false});
  ASSERT_EQ(events.size(), 2u);

  EngineConfig cfg;
  cfg.key = {.by_source = true, .by_destination = true, .by_tag = false};
  PredictionEngine engine(cfg);
  engine.observe_all(events);

  const auto report = engine.report();
  ASSERT_EQ(report.streams.size(), 2u);  // unresolved and sender-0 stay distinct
  const auto& unresolved = report.streams.front();  // -1 sorts before 0
  EXPECT_EQ(unresolved.key.source, trace::kUnresolvedSender);
  EXPECT_NE(unresolved.key.source, kAnyKey);
  EXPECT_EQ(to_string(unresolved.key), "src=-1 dst=1 tag=*");  // literal -1, not "*"

  // A genuinely wildcard dimension still renders as "*".
  EXPECT_EQ(to_string(StreamKey{.source = kAnyKey, .destination = 1, .tag = kAnyKey}),
            "src=* dst=1 tag=*");
}

TEST(PredictionEngine, EventsFromRankIsTheReceiverSliceOfTheMerge) {
  mpi::World world(4, apps::paper_world_config(3));
  (void)apps::run_sweep3d(world, apps::AppConfig{.problem_class = apps::ProblemClass::Toy});

  for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
    SCOPED_TRACE(std::string(to_string(level)));
    const auto merged = events_from_trace(world.traces(), level);
    for (int rank = 0; rank < 4; ++rank) {
      std::vector<Event> slice;
      for (const auto& event : merged) {
        if (event.destination == rank) {
          slice.push_back(event);
        }
      }
      EXPECT_EQ(events_from_rank(world.traces(), rank, level), slice);
    }
  }
}

TEST(PredictionEngine, TracePathMatchesExtractStreamsPerRank) {
  // A real multi-rank trace: the engine's per-receiver streams must carry
  // exactly the records extract_streams() reports for each rank, so the
  // engine's accuracy equals the seed evaluation path for every process.
  mpi::World world(4, apps::paper_world_config(7));
  (void)apps::run_sweep3d(world, apps::AppConfig{.problem_class = apps::ProblemClass::Toy});

  for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
    SCOPED_TRACE(std::string(to_string(level)));
    PredictionEngine engine;
    engine.observe_all(events_from_trace(world.traces(), level));
    const auto report = engine.report();
    ASSERT_EQ(report.streams.size(), 4u);
    for (const auto& stream : report.streams) {
      SCOPED_TRACE(to_string(stream.key));
      const auto streams = trace::extract_streams(world.traces(), stream.key.destination, level);
      ASSERT_EQ(static_cast<std::size_t>(stream.events), streams.length());
      const auto want = core::evaluate_streams(streams);
      expect_same_report(stream.senders, want.senders);
      expect_same_report(stream.sizes, want.sizes);
    }
  }
}

}  // namespace
}  // namespace mpipred::engine
