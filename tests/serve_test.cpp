// The resident-service harness: the worker pool every parallel feed
// drains on, the stream table every shard keeps, and the multi-tenant
// PredictionServer built on both. The load-bearing properties: pool
// shutdown is clean under load and re-dispatch, table growth never moves
// a stream's state, tenant namespaces are isolated even for identical
// stream keys, and a session's report and queries are byte-identical to
// a standalone engine fed the same events (batched, streamed from a CSV
// file, with or without a live metrics registry).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "engine/engine.hpp"
#include "engine/registry.hpp"
#include "engine/shard.hpp"
#include "engine/worker_pool.hpp"
#include "ingest/streaming.hpp"
#include "ingest/verify.hpp"
#include "serve/server.hpp"
#include "telemetry/metrics.hpp"
#include "trace/csv.hpp"
#include "trace/store.hpp"

namespace mpipred::serve {
namespace {

using engine::Event;

/// Small deterministic trace: destination d receives a periodic sender
/// and size pattern whose phase depends on `phase`, so two traces with
/// different phases build genuinely different predictor state for the
/// same stream keys.
std::vector<Event> periodic_trace(int nevents, std::int32_t ndestinations, int phase) {
  std::vector<Event> events;
  events.reserve(static_cast<std::size_t>(nevents));
  for (int i = 0; i < nevents; ++i) {
    Event event;
    event.destination = i % ndestinations;
    event.source = (i / ndestinations + phase) % 7;
    event.tag = 0;
    event.bytes = std::int64_t{64} << ((i / ndestinations + phase) % 4);
    events.push_back(event);
  }
  return events;
}

TEST(WorkerPool, RunsEachNamedSlotAndTheCallerJob) {
  engine::WorkerPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  EXPECT_EQ(pool.started_count(), 0u) << "threads must start lazily";

  std::vector<std::atomic<int>> hits(4);
  std::atomic<int> caller_hits{0};
  const std::vector<std::size_t> slots = {0, 2};
  pool.run(
      slots, [&](std::size_t slot) { ++hits[slot]; }, [&] { ++caller_hits; });

  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 0);
  EXPECT_EQ(hits[2].load(), 1);
  EXPECT_EQ(hits[3].load(), 0);
  EXPECT_EQ(caller_hits.load(), 1);
  EXPECT_EQ(pool.started_count(), 2u) << "only dispatched slots start threads";
}

TEST(WorkerPool, ZeroWorkersStillRunsTheCallerJob) {
  engine::WorkerPool pool(0);
  bool ran = false;
  pool.run({}, [](std::size_t) { FAIL() << "no slots were named"; }, [&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(WorkerPool, RedispatchAfterDrainReusesResidentThreads) {
  engine::WorkerPool pool(3);
  std::atomic<int> total{0};
  const std::vector<std::size_t> slots = {0, 1, 2};
  for (int round = 0; round < 200; ++round) {
    pool.run(
        slots, [&](std::size_t) { ++total; }, [&] { ++total; });
  }
  EXPECT_EQ(total.load(), 200 * 4);
  EXPECT_EQ(pool.started_count(), 3u) << "re-dispatch must reuse threads, not spawn";
}

TEST(WorkerPool, WorkerErrorPropagatesAfterAllJobsComplete) {
  engine::WorkerPool pool(3);
  std::atomic<int> completed{0};
  const std::vector<std::size_t> slots = {0, 1, 2};
  const auto job = [&](std::size_t slot) {
    if (slot == 1) {
      throw std::runtime_error("slot 1 failed");
    }
    ++completed;
  };
  EXPECT_THROW(pool.run(slots, job, [&] { ++completed; }), std::runtime_error);
  EXPECT_EQ(completed.load(), 3) << "an error in one slot must not abandon the others";

  // The pool must be reusable after an error: state is cleared per run.
  std::atomic<int> second{0};
  pool.run(
      slots, [&](std::size_t) { ++second; }, [] {});
  EXPECT_EQ(second.load(), 3);
}

TEST(WorkerPool, CallerErrorWinsOverWorkerError) {
  engine::WorkerPool pool(1);
  const std::vector<std::size_t> slots = {0};
  try {
    pool.run(
        slots, [](std::size_t) { throw std::runtime_error("worker"); },
        [] { throw std::invalid_argument("caller"); });
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument&) {
    // Expected: the caller's error has rethrow priority.
  }
}

TEST(WorkerPool, StartedCountIsSafeAgainstConcurrentRuns) {
  // Lock-discipline regression (found by the thread-safety annotation
  // pass): started_count() used to read each slot's started flag without
  // holding run_mu_, racing the lazy thread starts inside a concurrent
  // run(). Under TSan this test flags the old code; under a plain build
  // it still checks the monotonic-count invariant.
  engine::WorkerPool pool(4);
  const std::vector<std::size_t> slots = {0, 1, 2, 3};
  std::atomic<bool> stop{false};
  std::size_t last = 0;
  std::thread observer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::size_t now = pool.started_count();
      EXPECT_GE(now, last) << "started threads never un-start";
      EXPECT_LE(now, 4u);
      last = now;
    }
  });
  for (int round = 0; round < 100; ++round) {
    pool.run(
        slots, [](std::size_t) {}, [] {});
  }
  stop.store(true, std::memory_order_release);
  observer.join();
  EXPECT_EQ(pool.started_count(), 4u);
}

TEST(WorkerPool, DestructionAfterHeavyLoadJoinsCleanly) {
  // Shutdown-under-load regression: dispatch continuously and destroy the
  // pool immediately after the last run returns. Any dropped notify or
  // missed join deadlocks or crashes here.
  for (int round = 0; round < 20; ++round) {
    engine::WorkerPool pool(4);
    std::atomic<int> total{0};
    const std::vector<std::size_t> slots = {0, 1, 2, 3};
    for (int i = 0; i < 50; ++i) {
      pool.run(
          slots, [&](std::size_t) { ++total; }, [] {});
    }
    EXPECT_EQ(total.load(), 50 * 4);
  }
}

TEST(StreamTable, GrowthKeepsEveryStateAtItsAddress) {
  const auto prototype = engine::make_predictor("dpd", {});
  engine::StreamTable table;
  // 256 keys grow the 16-slot table several times; every growth rehashes
  // the slots but must leave the pooled states where they were.
  std::vector<const engine::StreamState*> created;
  for (std::int32_t d = 0; d < 256; ++d) {
    created.push_back(&table.find_or_create({.destination = d}, *prototype, 5));
  }
  EXPECT_EQ(table.size(), 256u);
  for (std::int32_t d = 0; d < 256; ++d) {
    EXPECT_EQ(table.find({.destination = d}), created[static_cast<std::size_t>(d)]);
  }
  EXPECT_EQ(table.find({.destination = 256}), nullptr);
}

engine::EngineReport engine_report(const std::vector<Event>& events,
                                   const engine::EngineConfig& cfg) {
  engine::PredictionEngine eng(cfg);
  eng.observe_all(events);
  return eng.report();
}

TEST(Serve, SessionReportMatchesStandaloneEngineByteForByte) {
  const auto events = periodic_trace(6000, 24, /*phase=*/0);
  for (const auto& predictor : engine::builtin_predictor_names()) {
    SCOPED_TRACE(predictor);
    const engine::EngineConfig cfg{.predictor = predictor, .shards = 4};
    const auto expected = engine_report(events, cfg);

    PredictionServer server({.engine = cfg});
    const auto session = server.open_session();
    session->observe_all(events);
    EXPECT_EQ(session->report(), expected);
  }
}

TEST(Serve, ShortDpdStreamsHoldOnlyTheirHistory) {
  // A DPD stream's ring and lag counters grow with the samples it has
  // seen. 1024 streams of 32 events each must stay far below the full
  // 512-sample, 256-lag bill (about 13.4 KiB per stream with both
  // predictors, both evaluators and the bookkeeping), so allocating that
  // bill up front fails here, not only in the benchmark.
  constexpr std::int32_t kStreams = 1024;
  const auto events = periodic_trace(32 * kStreams, kStreams, /*phase=*/0);
  PredictionServer server({.engine = {.predictor = "dpd", .shards = 4}});
  const auto session = server.open_session();
  session->observe_all(events);
  const ServerStats stats = server.stats();
  ASSERT_EQ(stats.streams, static_cast<std::size_t>(kStreams));
  EXPECT_LT(stats.resident_bytes / stats.streams, std::size_t{3} * 1024);

  // The bill is exact: every stream saw 32 events, and each is billed
  // for both predictors, both evaluators' heaps, its StreamState block
  // and 64 bytes of table entry.
  const auto prototype = engine::make_predictor("dpd", {});
  engine::StreamState one(*prototype, engine::PredictorOptions{}.horizon);
  for (std::int64_t v = 0; v < 32; ++v) {
    one.sender_eval.observe(v % 7);
    one.size_eval.observe(v % 4);
  }
  const std::size_t per_stream =
      one.sender_predictor->footprint_bytes() + one.size_predictor->footprint_bytes() +
      one.sender_eval.heap_bytes() + one.size_eval.heap_bytes() + sizeof(engine::StreamState) + 64;
  EXPECT_EQ(stats.resident_bytes, per_stream * kStreams);

  // One bill: the engine report charges each stream what the server does,
  // less the fixed per-stream overhead.
  EXPECT_EQ(stats.resident_bytes,
            session->report().total_footprint_bytes + engine::kStreamOverheadBytes * kStreams);
}

/// Two-level trace for the streamed-ingest case: each of 8 ranks receives
/// a periodic sender/size pattern; the physical level permutes senders
/// against the logical one, so the levels build different predictor state.
trace::TraceStore periodic_store(int rounds) {
  constexpr int kRanks = 8;
  trace::TraceStore store(kRanks);
  for (int round = 0; round < rounds; ++round) {
    for (int rank = 0; rank < kRanks; ++rank) {
      const std::int64_t t = std::int64_t{round} * kRanks + rank;
      store.append(rank, trace::Level::Logical,
                   {.time = sim::SimTime{t},
                    .bytes = std::int64_t{64} << (round % 4),
                    .sender = (rank + 1 + round % 3) % kRanks});
      store.append(rank, trace::Level::Physical,
                   {.time = sim::SimTime{t},
                    .bytes = std::int64_t{64} << (round % 4),
                    .sender = (rank + 1 + (round * 5) % 7) % kRanks});
    }
  }
  return store;
}

TEST(Serve, StreamedSessionWithMetricsMatchesMetricsFreeEngine) {
  // What the `--trace` tools rely on: a CSV file streamed through run_into
  // into a session whose server reports into a live metrics registry ends
  // exactly where the same stream run_into a metrics-free standalone engine
  // does — for every predictor, both levels, and every gate batch size
  // (serve == engine, and telemetry on == off).
  const std::string path = ::testing::TempDir() + "serve_streamed.csv";
  trace::write_csv_file(path, periodic_store(/*rounds=*/800));
  for (const auto& predictor : engine::builtin_predictor_names()) {
    for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
      for (const std::size_t batch : ingest::kGateBatchEvents) {
        SCOPED_TRACE(predictor + " " + std::string(trace::to_string(level)) +
                     " batch=" + std::to_string(batch));
        const engine::EngineConfig cfg{.predictor = predictor, .shards = 4};
        engine::PredictionEngine eng(cfg);
        const auto engine_stream = ingest::open_event_stream(path, level);
        const ingest::StreamedRun expected = ingest::run_into(*engine_stream, eng, batch);

        telemetry::MetricsRegistry registry;
        engine::EngineConfig metered = cfg;
        metered.metrics = &registry;
        PredictionServer server({.engine = metered});
        const auto session = server.open_session();
        const auto session_stream = ingest::open_event_stream(path, level);
        const ingest::StreamedRun got = ingest::run_into(*session_stream, *session, batch);

        ASSERT_EQ(expected.events, 6400);
        EXPECT_EQ(got.events, expected.events);
        EXPECT_EQ(got.batches, expected.batches);
        EXPECT_EQ(got.report, expected.report);
        EXPECT_EQ(registry.counter("engine.feed.events", {{"tenant", "1"}}).value(),
                  expected.events)
            << "the session's metrics must land in the live registry";
      }
    }
  }
}

TEST(Serve, SessionQueriesMatchTheEngine) {
  const auto events = periodic_trace(4000, 16, /*phase=*/2);
  const engine::EngineConfig cfg{.shards = 3};
  engine::PredictionEngine eng(cfg);
  eng.observe_all(events);

  PredictionServer server({.engine = cfg});
  const auto session = server.open_session();
  session->observe_all(events);

  for (const auto& row : eng.report().streams) {
    const engine::StreamRef engine_stream = eng.stream(row.key);
    const engine::StreamRef session_stream = session->stream(row.key);
    ASSERT_TRUE(engine_stream.valid());
    ASSERT_TRUE(session_stream.valid());
    EXPECT_EQ(session_stream.predict_sender(), engine_stream.predict_sender());
    EXPECT_EQ(session_stream.predict_size(), engine_stream.predict_size());
    const engine::StreamSnapshot engine_snap = engine_stream.snapshot();
    const engine::StreamSnapshot session_snap = session_stream.snapshot();
    EXPECT_EQ(session_snap.events, engine_snap.events);
    EXPECT_EQ(session_snap.sender_accuracy, engine_snap.sender_accuracy);
    EXPECT_EQ(session_snap.size_accuracy, engine_snap.size_accuracy);
  }
}

TEST(Serve, ConcurrentTenantsWithIdenticalKeysStayIsolated) {
  // Four tenants feed traces that use the SAME (source, dest, tag) keys
  // but different phases, concurrently, through one shared pool. Each
  // session must end up exactly where a private engine would. Slices of
  // kMinParallelBatch events are the smallest that dispatch to the pool.
  const engine::EngineConfig cfg{.shards = 4};
  constexpr int kTenants = 4;
  std::vector<std::vector<Event>> traces;
  std::vector<engine::EngineReport> expected;
  traces.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    traces.push_back(periodic_trace(5000, 16, /*phase=*/t));
    expected.push_back(engine_report(traces.back(), cfg));
  }

  PredictionServer server({.engine = cfg});
  std::vector<std::shared_ptr<Session>> sessions;
  sessions.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    sessions.push_back(server.open_session());
  }
  std::vector<std::thread> feeders;
  feeders.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    feeders.emplace_back([&, t] {
      // Feed in slices so tenant feeds genuinely interleave.
      constexpr std::size_t kSlice = engine::kMinParallelBatch;
      const std::span<const Event> all(traces[static_cast<std::size_t>(t)]);
      for (std::size_t off = 0; off < all.size(); off += kSlice) {
        sessions[static_cast<std::size_t>(t)]->observe_all(
            all.subspan(off, std::min(kSlice, all.size() - off)));
      }
    });
  }
  for (std::thread& feeder : feeders) {
    feeder.join();
  }
  for (int t = 0; t < kTenants; ++t) {
    SCOPED_TRACE("tenant " + std::to_string(t));
    EXPECT_EQ(sessions[static_cast<std::size_t>(t)]->report(),
              expected[static_cast<std::size_t>(t)]);
  }
  EXPECT_EQ(server.stats().sessions, static_cast<std::size_t>(kTenants));
}

TEST(Serve, OrphanedSessionRejectsFeedsButKeepsAnswering) {
  const auto events = periodic_trace(3000, 8, /*phase=*/1);
  auto server = std::make_unique<PredictionServer>(
      ServeConfig{.engine = {.shards = 2}});
  const auto session = server->open_session();
  session->observe_all(events);
  const auto before = session->report();
  const engine::StreamKey key{.destination = 3};
  const auto prediction = session->stream(key).predict_sender();

  server.reset();  // orphan the session

  EXPECT_THROW(session->observe_all(events), UsageError);
  EXPECT_THROW(session->observe(events.front()), UsageError);
  EXPECT_EQ(session->report(), before) << "reads must keep working from frozen state";
  EXPECT_EQ(session->stream(key).predict_sender(), prediction);
  EXPECT_TRUE(session->stream(key).valid());
}

TEST(Serve, SessionsInterleaveWithSingleEventObserves) {
  // The online observe() path and the batched path must compose: a
  // session fed with a mix of both matches an engine fed identically.
  const auto events = periodic_trace(2000, 8, /*phase=*/3);
  const engine::EngineConfig cfg{.shards = 2};
  engine::PredictionEngine eng(cfg);
  PredictionServer server({.engine = cfg});
  const auto session = server.open_session();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i % 3 == 0) {
      eng.observe(events[i]);
      session->observe(events[i]);
    } else {
      const std::span<const Event> one(&events[i], 1);
      eng.observe_all(one);
      session->observe_all(one);
    }
  }
  EXPECT_EQ(session->report(), eng.report());
}

}  // namespace
}  // namespace mpipred::serve
