// Behavior-preservation gate for the async front-end refactor.
//
// The blocking API (send/recv/sendrecv/wait and the collectives built on
// them) is specified to be a thin wrapper over the nonblocking progress
// engine: wait = progress-until-ready. This file pins that contract with
// fingerprints captured from the pre-refactor library: for bt/cg/lu at 16
// ranks, under the paper's machine profile, the logical and physical
// traces, the endpoint counters, the adaptive policy decisions, and the
// prediction-engine report over the physical stream must all stay
// byte-identical. Any change to matching order, credit timing, adaptive
// feed order, or trace stamping shows up here as a fingerprint mismatch.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "apps/app.hpp"
#include "apps/registry.hpp"
#include "engine/engine.hpp"
#include "mpi/world.hpp"
#include "trace/store.hpp"

namespace mpipred {
namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
}

/// Order-sensitive hash of every record of every (rank, level) stream.
std::uint64_t trace_fingerprint(const trace::TraceStore& store, trace::Level level) {
  std::uint64_t h = kFnvOffset;
  for (int r = 0; r < store.nranks(); ++r) {
    mix(h, 0x5241u + static_cast<std::uint64_t>(r));
    for (const trace::Record& rec : store.records(r, level)) {
      mix(h, static_cast<std::uint64_t>(rec.time.count()));
      mix(h, static_cast<std::uint64_t>(rec.sender));
      mix(h, static_cast<std::uint64_t>(rec.bytes));
      mix(h, static_cast<std::uint64_t>(rec.kind));
      mix(h, static_cast<std::uint64_t>(rec.op));
    }
  }
  return h;
}

std::uint64_t counters_fingerprint(const mpi::detail::EndpointCounters& c) {
  std::uint64_t h = kFnvOffset;
  mix(h, static_cast<std::uint64_t>(c.eager_received));
  mix(h, static_cast<std::uint64_t>(c.rendezvous_received));
  mix(h, static_cast<std::uint64_t>(c.unexpected_arrivals));
  mix(h, static_cast<std::uint64_t>(c.unexpected_bytes_now));
  mix(h, static_cast<std::uint64_t>(c.unexpected_bytes_peak));
  mix(h, static_cast<std::uint64_t>(c.sends_posted));
  mix(h, static_cast<std::uint64_t>(c.recvs_posted));
  mix(h, static_cast<std::uint64_t>(c.eager_credit_stalls));
  mix(h, static_cast<std::uint64_t>(c.prepost_hits));
  mix(h, static_cast<std::uint64_t>(c.prepost_misses));
  mix(h, static_cast<std::uint64_t>(c.preposted_bytes_now));
  mix(h, static_cast<std::uint64_t>(c.preposted_bytes_peak));
  mix(h, static_cast<std::uint64_t>(c.rendezvous_elided));
  return h;
}

std::uint64_t accuracy_fingerprint(const core::AccuracyReport& r) {
  std::uint64_t h = kFnvOffset;
  for (const core::HorizonAccuracy& hz : r.horizons) {
    mix(h, static_cast<std::uint64_t>(hz.hits));
    mix(h, static_cast<std::uint64_t>(hz.misses));
    mix(h, static_cast<std::uint64_t>(hz.unpredicted));
  }
  return h;
}

/// The prediction-engine report over the physical arrival stream — the
/// quantity every downstream bench and CI artifact is derived from. Only
/// behaviour is hashed: the predictors' memory footprint is a layout
/// property, pinned exactly by registry_test instead.
std::uint64_t report_fingerprint(const trace::TraceStore& store) {
  engine::PredictionEngine eng({.shards = 1});
  eng.observe_all(engine::events_from_trace(store, trace::Level::Physical));
  const engine::EngineReport report = eng.report();
  std::uint64_t h = kFnvOffset;
  mix(h, static_cast<std::uint64_t>(report.events));
  mix(h, static_cast<std::uint64_t>(report.streams.size()));
  mix(h, accuracy_fingerprint(report.aggregate_senders));
  mix(h, accuracy_fingerprint(report.aggregate_sizes));
  for (const engine::StreamReport& s : report.streams) {
    mix(h, static_cast<std::uint64_t>(s.key.source));
    mix(h, static_cast<std::uint64_t>(s.key.destination));
    mix(h, static_cast<std::uint64_t>(s.key.tag));
    mix(h, static_cast<std::uint64_t>(s.events));
    mix(h, accuracy_fingerprint(s.senders));
    mix(h, accuracy_fingerprint(s.sizes));
  }
  return h;
}

struct Fingerprints {
  std::uint64_t logical = 0;
  std::uint64_t physical = 0;
  std::uint64_t counters = 0;
  std::uint64_t report = 0;
  std::uint64_t checksum = 0;   // app payload checksum-of-checksums
  std::int64_t final_time = 0;  // simulated ns at the end of the run
};

Fingerprints run_app(const std::string& app, bool adaptive,
                     const std::function<void(mpi::WorldConfig&)>& mutate = {}) {
  // The exact machine profile and seed the §2 benches use.
  mpi::WorldConfig cfg = apps::paper_world_config(/*seed=*/2003);
  if (adaptive) {
    cfg.adaptive.enabled = true;
    cfg.adaptive.service.engine.shards = 1;
  }
  if (mutate) {
    mutate(cfg);
  }
  mpi::World world(16, cfg);
  const auto outcome = apps::find_app(app).run(
      world, apps::AppConfig{.problem_class = apps::ProblemClass::S, .iterations_override = 8});
  Fingerprints fp;
  fp.logical = trace_fingerprint(world.traces(), trace::Level::Logical);
  fp.physical = trace_fingerprint(world.traces(), trace::Level::Physical);
  fp.counters = counters_fingerprint(world.aggregate_counters());
  fp.report = report_fingerprint(world.traces());
  fp.checksum = outcome.combined_checksum();
  fp.final_time = world.engine().stats().final_time.count();
  return fp;
}

struct Golden {
  const char* app;
  bool adaptive;
  Fingerprints fp;
};

// Captured from the pre-refactor library (seed commit of this PR); the
// async front-end must reproduce every value exactly.
const Golden kGolden[] = {
    {"bt", false,
     {0x86719641BC2E8AB5ULL, 0xAC88DA84B1081590ULL, 0xB4F87DE2AB6915D6ULL, 0xD1B4B361FC1BD07CULL,
      0x676CA4D32FC887CDULL, 12317652}},
    {"cg", false,
     {0x3594B7F05912A904ULL, 0x87FFD61E2D7FCA52ULL, 0x1E9D7887113B1950ULL, 0x4403E13DAD45B1F5ULL,
      0xFB7A01451DABCE93ULL, 74351048}},
    {"lu", false,
     {0xF2206B799DF8C6BEULL, 0x6EE967EE3CC67E24ULL, 0xEEC5D50C15C8EF5CULL, 0x9DFD3BF785A7286CULL,
      0x41D4FF200BE43CEBULL, 10547355}},
    {"bt", true,
     {0x86719641BC2E8AB5ULL, 0xAC88DA84B1081590ULL, 0x13A2E2F6077C0F4FULL, 0xD1B4B361FC1BD07CULL,
      0x676CA4D32FC887CDULL, 12317652}},
    {"cg", true,
     {0x3594B7F05912A904ULL, 0x87FFD61E2D7FCA52ULL, 0xEC05055DF172E2E0ULL, 0x4403E13DAD45B1F5ULL,
      0xFB7A01451DABCE93ULL, 74351048}},
    {"lu", true,
     {0xF2206B799DF8C6BEULL, 0x6EE967EE3CC67E24ULL, 0xDF2387EEBAB3231CULL, 0x9DFD3BF785A7286CULL,
      0x41D4FF200BE43CEBULL, 10547355}},
};

TEST(BlockingWrapperGate, TracesCountersAndReportsMatchPreRefactorFingerprints) {
  // Regeneration aid (for deliberate, reviewed behavior changes only):
  // MPIPRED_PRINT_FINGERPRINTS=1 ./mpi_gate_test prints the kGolden table.
  const bool print = std::getenv("MPIPRED_PRINT_FINGERPRINTS") != nullptr;
  for (const Golden& g : kGolden) {
    const Fingerprints fp = run_app(g.app, g.adaptive);
    if (print) {
      std::printf("    {\"%s\", %s,\n     {0x%llXULL, 0x%llXULL, 0x%llXULL, 0x%llXULL, "
                  "0x%llXULL, %lld}},\n",
                  g.app, g.adaptive ? "true" : "false",
                  static_cast<unsigned long long>(fp.logical),
                  static_cast<unsigned long long>(fp.physical),
                  static_cast<unsigned long long>(fp.counters),
                  static_cast<unsigned long long>(fp.report),
                  static_cast<unsigned long long>(fp.checksum),
                  static_cast<long long>(fp.final_time));
      continue;
    }
    SCOPED_TRACE(std::string(g.app) + (g.adaptive ? " adaptive" : " static"));
    EXPECT_EQ(fp.logical, g.fp.logical) << "logical trace fingerprint";
    EXPECT_EQ(fp.physical, g.fp.physical) << "physical trace fingerprint";
    EXPECT_EQ(fp.counters, g.fp.counters) << "endpoint counters fingerprint";
    EXPECT_EQ(fp.report, g.fp.report) << "engine report fingerprint";
    EXPECT_EQ(fp.checksum, g.fp.checksum) << "payload checksum";
    EXPECT_EQ(fp.final_time, g.fp.final_time) << "final simulated time";
  }
}

// ------------------------------------------ confidence boundary gate --
// PolicyConfig::min_confidence sweeps between two pinned endpoints: 1.0
// must degrade every stream to static per-peer behavior, 0.0 must accept
// every prediction — the pre-sweep adaptive behavior of the goldens.

TEST(ConfidenceGate, MinConfidenceOneIsBehaviorallyStatic) {
  // Full new-mechanism stack on both sides (priced fallbacks, per-stream
  // credits enabled): the only difference is the adaptive loop, and at
  // threshold 1.0 no stream can ever qualify (warm-up arrivals count as
  // unpredicted, so observed accuracy stays strictly below 1.0). Every
  // behavioral fingerprint — traces, report, checksums, final time — must
  // match the static run exactly; only counters may differ (the adaptive
  // run still scores its plan).
  const auto price = [](mpi::WorldConfig& cfg) {
    cfg.engine.network.fallback_cost = sim::SimTime{20'000};
    cfg.adaptive.per_stream_credits = true;
    cfg.adaptive.policy.min_confidence = 1.0;
  };
  for (const char* app : {"bt", "cg", "lu"}) {
    SCOPED_TRACE(app);
    const Fingerprints st = run_app(app, /*adaptive=*/false, price);
    const Fingerprints ad = run_app(app, /*adaptive=*/true, price);
    EXPECT_EQ(ad.logical, st.logical) << "logical trace fingerprint";
    EXPECT_EQ(ad.physical, st.physical) << "physical trace fingerprint";
    EXPECT_EQ(ad.report, st.report) << "engine report fingerprint";
    EXPECT_EQ(ad.checksum, st.checksum) << "payload checksum";
    EXPECT_EQ(ad.final_time, st.final_time) << "final simulated time";
  }
}

TEST(ConfidenceGate, MinConfidenceZeroReproducesAdaptiveGoldens) {
  // 0.0 is the default, but pin it explicitly: the degrade gate uses a
  // strict comparison, so "accept any prediction" must stay byte-identical
  // to the pre-sweep adaptive goldens — counters included.
  for (const Golden& g : kGolden) {
    if (!g.adaptive) {
      continue;
    }
    SCOPED_TRACE(g.app);
    const Fingerprints fp = run_app(g.app, /*adaptive=*/true, [](mpi::WorldConfig& cfg) {
      cfg.adaptive.policy.min_confidence = 0.0;
    });
    EXPECT_EQ(fp.logical, g.fp.logical);
    EXPECT_EQ(fp.physical, g.fp.physical);
    EXPECT_EQ(fp.counters, g.fp.counters);
    EXPECT_EQ(fp.report, g.fp.report);
    EXPECT_EQ(fp.checksum, g.fp.checksum);
    EXPECT_EQ(fp.final_time, g.fp.final_time);
  }
}

}  // namespace
}  // namespace mpipred
