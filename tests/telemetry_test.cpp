// The telemetry layer's contracts: deterministic snapshots (registration
// order, shard count, and label call-site order never change the bytes),
// the gauge peak semantics the migrated endpoint counters rely on,
// histogram bucket edges, snapshot merge, the trace sink's JSON shape —
// and the master invariant, pinned end to end: attaching telemetry to a
// World or a replay never changes a single number the run produces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "adaptive/config.hpp"
#include "apps/app.hpp"
#include "apps/registry.hpp"
#include "common/error.hpp"
#include "engine/config.hpp"
#include "ingest/replay.hpp"
#include "mpi/world.hpp"
#include "serve/server.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace mpipred {
namespace {

TEST(LabelSet, SortsByKeyAndReplaces) {
  telemetry::LabelSet labels;
  labels.set("rank", "3");
  labels.set("app", "cg");
  EXPECT_EQ(labels.to_string(), "app=cg,rank=3");
  labels.set("rank", "7");
  EXPECT_EQ(labels.to_string(), "app=cg,rank=7");
  // Call-site order never changes identity.
  EXPECT_EQ((telemetry::LabelSet{{"b", "2"}, {"a", "1"}}).to_string(),
            (telemetry::LabelSet{{"a", "1"}, {"b", "2"}}).to_string());
}

TEST(Gauge, AddRaisesPeakOnlyOnGrowth) {
  telemetry::Gauge g;
  g.add(5);
  EXPECT_EQ(g.value(), 5);
  EXPECT_EQ(g.peak(), 5);
  g.add(-3);  // a subtract never lowers a recorded peak
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.peak(), 5);
  g.add(4);
  EXPECT_EQ(g.value(), 6);
  EXPECT_EQ(g.peak(), 6);
  g.set(1);  // set() tracks the peak too, max-only
  EXPECT_EQ(g.value(), 1);
  EXPECT_EQ(g.peak(), 6);
  g.observe_peak(10);  // max-only update leaves the level alone
  EXPECT_EQ(g.value(), 1);
  EXPECT_EQ(g.peak(), 10);
}

TEST(Histogram, BucketEdges) {
  telemetry::Histogram h({10, 100});
  h.observe(-5);   // below the first bound still lands in bucket 0
  h.observe(10);   // bucket i counts x <= bounds[i]: on-the-bound is in
  h.observe(11);
  h.observe(100);
  h.observe(101);  // past the last bound: overflow bucket
  EXPECT_EQ(h.bucket(0), 2);
  EXPECT_EQ(h.bucket(1), 2);
  EXPECT_EQ(h.bucket(2), 1);
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.sum(), -5 + 10 + 11 + 100 + 101);
}

TEST(MetricsRegistry, KindAndBoundsConflictsThrow) {
  telemetry::MetricsRegistry reg;
  (void)reg.counter("x");
  EXPECT_THROW((void)reg.gauge("x"), UsageError);
  EXPECT_THROW((void)reg.histogram("x", {1, 2}), UsageError);
  auto& h = reg.histogram("h", {1, 2});
  EXPECT_EQ(&reg.histogram("h", {1, 2}), &h);       // find-or-create
  EXPECT_THROW((void)reg.histogram("h", {1, 3}), UsageError);
  // Same name under different labels is a distinct instrument.
  EXPECT_NE(&reg.counter("x", {{"rank", "1"}}), &reg.counter("x"));
}

TEST(MetricsRegistry, SnapshotIgnoresRegistrationOrder) {
  telemetry::MetricsRegistry a;
  a.counter("b.count").add(2);
  a.gauge("a.level").add(4);
  telemetry::MetricsRegistry b;
  b.gauge("a.level").add(4);
  b.counter("b.count").add(2);
  EXPECT_EQ(a.snapshot(), b.snapshot());
  EXPECT_EQ(a.snapshot().to_json(), b.snapshot().to_json());
}

TEST(MetricsSnapshot, MergeSumsAndAppends) {
  telemetry::MetricsRegistry a;
  a.counter("c").add(5);
  a.gauge("g").add(10);
  a.gauge("g").add(-4);
  a.histogram("h", {10}).observe(3);
  a.histogram("h", {10}).observe(20);

  telemetry::MetricsRegistry b;
  b.counter("c").add(7);
  b.gauge("g").add(2);
  b.histogram("h", {10}).observe(5);
  b.counter("z").inc();

  telemetry::MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.value("c"), 12);
  EXPECT_EQ(merged.value("z"), 1);
  ASSERT_EQ(merged.rows().size(), 4u);
  const auto& g = merged.rows()[1];
  EXPECT_EQ(g.name, "g");
  EXPECT_EQ(g.value, 8);   // 6 + 2
  EXPECT_EQ(g.peak, 12);   // 10 + 2, same semantics as summed *_peak fields
  const auto& h = merged.rows()[2];
  EXPECT_EQ(h.name, "h");
  EXPECT_EQ(h.value, 3);
  EXPECT_EQ(h.sum, 28);
  EXPECT_EQ(h.buckets, (std::vector<std::int64_t>{2, 1}));

  telemetry::MetricsRegistry conflicting;
  conflicting.gauge("c").add(1);
  telemetry::MetricsSnapshot bad = a.snapshot();
  EXPECT_THROW(bad.merge(conflicting.snapshot()), UsageError);
}

TEST(MetricsSnapshot, ValueSumsAcrossLabels) {
  telemetry::MetricsRegistry reg;
  reg.counter("hits", {{"rank", "0"}}).add(3);
  reg.counter("hits", {{"rank", "1"}}).add(4);
  EXPECT_EQ(reg.snapshot().value("hits"), 7);
  EXPECT_EQ(reg.snapshot().value("absent"), 0);
}

TEST(TraceEventSink, JsonShape) {
  telemetry::TraceEventSink sink;
  std::int64_t t = 0;
  sink.set_clock([&] { return t; });
  sink.set_track_name(0, "rank 0");
  t = 1500;
  sink.instant(0, "prepost-hit", "adaptive", "\"sender\":3");
  sink.complete(0, "compute", "compute", 1000, 2500);
  sink.counter(0, "queue_depth", 2);
  ASSERT_EQ(sink.size(), 3u);

  std::ostringstream os;
  sink.write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(json.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["));
  EXPECT_TRUE(json.ends_with("\n]}\n"));
  EXPECT_NE(json.find(R"({"ph": "M", "pid": 0, "tid": 0, "name": "process_name", )"
                      R"("args": {"name": "rank 0"}})"),
            std::string::npos);
  // ns become the format's us unit with three fixed decimals.
  EXPECT_NE(json.find(R"("ph": "i", "pid": 0, "tid": 0, "ts": 1.500, "name": "prepost-hit", )"
                      R"("s": "t", "cat": "adaptive", "args": {"sender":3})"),
            std::string::npos);
  EXPECT_NE(json.find(R"("ts": 1.000, "name": "compute", "dur": 2.500)"), std::string::npos);
  EXPECT_NE(json.find(R"("ph": "C", "pid": 0, "tid": 0, "ts": 1.500, "name": "queue_depth", )"
                      R"("args": {"value": 2}})"),
            std::string::npos);
  EXPECT_EQ(telemetry::json_quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
}

TEST(Span, RecordsCompleteEventAndNullSinkIsNoop) {
  { telemetry::Span noop(nullptr, 0, "x", "y"); }  // must not crash or record
  telemetry::TraceEventSink sink;
  std::int64_t t = 100;
  sink.set_clock([&] { return t; });
  {
    TELEM_SPAN(&sink, 3, "compute", "compute");
    t = 350;
  }
  ASSERT_EQ(sink.size(), 1u);
  const telemetry::TraceEvent& ev = sink.events().front();
  EXPECT_EQ(ev.ph, 'X');
  EXPECT_EQ(ev.track, 3);
  EXPECT_EQ(ev.ts_ns, 100);
  EXPECT_EQ(ev.dur_ns, 250);
}

TEST(Telemetry, TracingIsOptIn) {
  telemetry::Telemetry telem;
  EXPECT_FALSE(telem.tracing_enabled());
  EXPECT_EQ(telem.tracer(), nullptr);
  telem.enable_tracing();
  EXPECT_EQ(telem.tracer(), &telem.trace_sink());
}

/// A deterministic multi-destination arrival pattern for the serve/replay
/// tests below.
std::vector<engine::Event> synthetic_events(int n) {
  std::vector<engine::Event> events;
  events.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    events.push_back({.source = i % 5,
                      .destination = i % 4,
                      .tag = 0,
                      .bytes = 64 * (1 + i % 3)});
  }
  return events;
}

TEST(TelemetryServe, SnapshotBytesInvariantAcrossShardCounts) {
  // The engine/serve instruments are shard-invariant quantities by
  // contract: the same feed through 1, 2, or 4 shards must render the
  // byte-identical snapshot.
  const std::vector<engine::Event> events = synthetic_events(400);
  std::string reference;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    telemetry::Telemetry telem;
    serve::ServeConfig cfg;
    cfg.engine.shards = shards;
    cfg.engine.metrics = &telem.metrics();
    serve::PredictionServer server(cfg);
    const auto session = server.open_session();
    session->observe_all(events);
    for (const engine::Event& event : events) {
      session->observe(event);
    }
    const std::string json = telem.metrics().snapshot().to_json();
    if (reference.empty()) {
      reference = json;
      EXPECT_EQ(telem.metrics().snapshot().value("engine.feed.events"),
                static_cast<std::int64_t>(2 * events.size()));
      EXPECT_EQ(telem.metrics().snapshot().value("serve.sessions.opened"), 1);
    } else {
      EXPECT_EQ(json, reference) << "shards=" << shards;
    }
  }
}

TEST(TelemetryReplay, InstrumentedReplayIsByteIdentical) {
  const std::vector<engine::Event> events = synthetic_events(600);
  const adaptive::RuntimeConfig rt;
  const ingest::AdaptiveReplay plain = ingest::replay_adaptive(events, rt);

  telemetry::Telemetry telem;
  telem.enable_tracing();
  const ingest::AdaptiveReplay instrumented = ingest::replay_adaptive(events, rt, &telem);
  EXPECT_EQ(instrumented.summary(), plain.summary());
  // One decision instant per event, on an event-ordinal clock.
  EXPECT_EQ(telem.trace_sink().size(), events.size());
  EXPECT_EQ(telem.metrics().snapshot().value("adaptive.policy.messages"),
            static_cast<std::int64_t>(events.size()));
}

TEST(TelemetryWorld, AttachingTelemetryNeverChangesTheRun) {
  // The end-to-end on/off gate: a NAS CG world, static and adaptive, with
  // tracing telemetry attached must reproduce the plain world bit for bit
  // — outcome, final simulated time, and every endpoint counter.
  const auto& info = apps::find_app("cg");
  const apps::AppConfig app_cfg{.problem_class = apps::ProblemClass::A};

  for (const bool adaptive : {false, true}) {
    SCOPED_TRACE(adaptive ? "adaptive" : "static");
    mpi::WorldConfig plain_cfg = apps::paper_world_config(/*seed=*/7);
    plain_cfg.adaptive.enabled = adaptive;
    mpi::World plain(8, plain_cfg);
    const apps::AppOutcome plain_outcome = info.run(plain, app_cfg);

    telemetry::Telemetry telem;
    telem.enable_tracing();
    mpi::WorldConfig traced_cfg = plain_cfg;
    traced_cfg.telemetry = &telem;
    mpi::World traced(8, traced_cfg);
    const apps::AppOutcome outcome = info.run(traced, app_cfg);

    EXPECT_EQ(outcome.verified, plain_outcome.verified);
    EXPECT_EQ(outcome.metric, plain_outcome.metric);
    EXPECT_EQ(outcome.combined_checksum(), plain_outcome.combined_checksum());
    EXPECT_EQ(traced.engine().stats().final_time, plain.engine().stats().final_time);
    EXPECT_TRUE(traced.aggregate_counters() == plain.aggregate_counters());
    EXPECT_GT(telem.trace_sink().size(), 0u);

    // The registry's totals are the aggregated endpoint counters — the
    // migration left one source of truth, not two.
    const telemetry::MetricsSnapshot snap = telem.metrics().snapshot();
    const mpi::detail::EndpointCounters totals = traced.aggregate_counters();
    EXPECT_EQ(snap.value("mpi.endpoint.eager_received"), totals.eager_received);
    EXPECT_EQ(snap.value("mpi.endpoint.sends_posted"), totals.sends_posted);
    EXPECT_EQ(snap.value("mpi.endpoint.prepost_hits"), totals.prepost_hits);
    EXPECT_GT(snap.value("sim.events_processed"), 0);
    if (adaptive) {
      EXPECT_GT(snap.value("adaptive.policy.messages"), 0);
    }
  }
}

TEST(TelemetryWorld, AggregateProgressStatsSumsEveryEndpoint) {
  mpi::World world(8, apps::paper_world_config(/*seed=*/7));
  (void)apps::find_app("cg").run(world, {.problem_class = apps::ProblemClass::A});

  mpi::detail::ProgressStats manual;
  for (int r = 0; r < world.nranks(); ++r) {
    const mpi::detail::ProgressStats s = world.endpoint(r).progress_stats();
    manual.submitted += s.submitted;
    manual.executed += s.executed;
    manual.drains += s.drains;
    manual.max_queue_depth = std::max(manual.max_queue_depth, s.max_queue_depth);
    for (int k = 0; k < mpi::detail::ProgressTask::kKinds; ++k) {
      manual.by_kind[k] += s.by_kind[k];
    }
  }

  const mpi::detail::ProgressStats agg = world.aggregate_progress_stats();
  EXPECT_GT(agg.executed, 0);
  EXPECT_EQ(agg.submitted, manual.submitted);
  EXPECT_EQ(agg.executed, manual.executed);
  EXPECT_EQ(agg.drains, manual.drains);
  EXPECT_EQ(agg.max_queue_depth, manual.max_queue_depth);
  std::int64_t by_kind_total = 0;
  for (int k = 0; k < mpi::detail::ProgressTask::kKinds; ++k) {
    EXPECT_EQ(agg.by_kind[k], manual.by_kind[k]) << "kind " << k;
    by_kind_total += agg.by_kind[k];
  }
  // Every executed task is of exactly one kind, and a synchronous drain
  // leaves nothing pending.
  EXPECT_EQ(by_kind_total, agg.executed);
  EXPECT_EQ(agg.submitted, agg.executed);
}

}  // namespace
}  // namespace mpipred
