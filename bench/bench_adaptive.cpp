// §2 end-to-end — the closed loop inside the library. Replays NAS app
// traces through the simulator twice: once with the static library (one
// pre-allocated buffer per peer, every large message pays the rendezvous
// handshake) and once with the adaptive runtime (WorldConfig::adaptive:
// buffers pre-posted for predicted senders, anticipated large messages
// skip the handshake). A prediction-free LRU replay at the adaptive
// policy's own buffer budget is the "same memory, no predictor" yardstick.
//
// Each world runs once, at `--shards` (default 1): the seed pins every
// random stream, so a rerun adds no sample. That the adaptive reports are
// identical at every shard count and with telemetry attached is pinned in
// the tier-1 suite (mpi_gate_test, telemetry_test), not re-checked here.
//
// `--emit-metrics <file>` writes a final metrics snapshot as JSON and
// `--emit-trace-events <file>` records Chrome trace-event JSON, both
// covering the first case's (bt.16) adaptive world. The same comparison
// over an externally captured trace is `replay_trace --trace <file>`.
//
// `--help` prints the usage below and exits 0; a bad argument prints one
// line to stderr and exits 1.
//
//   $ ./bench_adaptive [--predictor <name>] [--shards <n>]
//       [--emit-metrics <file>] [--emit-trace-events <file>]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench/bench_util.hpp"
#include "ingest/replay.hpp"

namespace {

using namespace mpipred;

constexpr const char* kUsage =
    "usage: bench_adaptive [--predictor <name>] [--shards <n>]\n"
    "                      [--emit-metrics <file>] [--emit-trace-events <file>]\n";

struct AdaptiveRun {
  adaptive::PolicyStats policy;
  mpi::detail::EndpointCounters counters;
  apps::AppOutcome outcome;
};

AdaptiveRun run_adaptive(const std::string& app, int procs, const std::string& predictor,
                         std::size_t shards, telemetry::Telemetry* telem = nullptr) {
  mpi::WorldConfig cfg = apps::paper_world_config(/*seed=*/2003);
  cfg.adaptive.enabled = true;
  cfg.adaptive.service.engine.predictor = predictor;
  cfg.adaptive.service.engine.shards = shards;
  cfg.telemetry = telem;
  mpi::World world(procs, cfg);
  AdaptiveRun run;
  run.outcome = apps::find_app(app).run(world, apps::AppConfig{});
  run.policy = world.adaptive_policy()->stats();
  run.counters = world.aggregate_counters();
  return run;
}

int run(int argc, char** argv) {
  auto arg = bench::predictor_arg(argc, argv);
  const std::size_t shards = bench::shards_flag(arg.rest, /*fallback=*/1);
  const bench::TelemetryFlags telem_flags = bench::telemetry_flags(arg.rest);
  bench::reject_unexpected(arg.rest);
  if (bench::list_predictors(arg)) {
    return 0;
  }

  std::printf("§2 closed loop — static per-peer library vs adaptive runtime (predictor %s)\n",
              arg.name.c_str());
  // Reproducibility disclosure (Hunold & Carpen-Amarie, "MPI Benchmarking
  // Revisited"): the seed pins every random stream, so one run per world
  // is the complete sample — no hidden variance is averaged away.
  std::printf("(sim seed 2003; one deterministic run per world)\n\n");

  struct Case {
    const char* app;
    int procs;
  };
  // With `--emit-*`, the first case's adaptive world carries the
  // telemetry.
  telemetry::Telemetry telem;
  if (!telem_flags.trace_path.empty()) {
    telem.enable_tracing();
  }
  telemetry::Telemetry* pending_telem = telem_flags.any() ? &telem : nullptr;
  for (const auto& [app, procs] : {Case{"bt", 16}, Case{"cg", 16}, Case{"lu", 16}}) {
    // Static library: per-peer pre-allocation, full rendezvous.
    auto baseline = bench::run_traced(app, procs);
    const auto static_counters = baseline.world->aggregate_counters();

    const AdaptiveRun adaptive = run_adaptive(app, procs, arg.name, shards, pending_telem);
    pending_telem = nullptr;

    // Prediction-free yardstick: LRU buffers at the adaptive policy's own
    // mean budget, replayed over every rank's physical sender stream of
    // the static run.
    const auto budget = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(adaptive.policy.avg_buffers())));
    const double lru_rate =
        ingest::replay_lru(
            engine::events_from_trace(baseline.world->traces(), trace::Level::Physical), budget)
            .hit_rate();

    const auto round_trips = [](const mpi::detail::EndpointCounters& c) {
      return c.rendezvous_received;
    };
    std::printf("%s.%d\n", app, procs);
    std::printf("  static per-peer : %4.1f buffers/process (%6.1f KiB), hit-rate 100.0%%, "
                "rendezvous round-trips %lld\n",
                static_cast<double>(procs - 1),
                static_cast<double>(procs - 1) * 16.0,
                static_cast<long long>(round_trips(static_counters)));
    std::printf("  lru@%-2zu no-pred  : %4.1f buffers/process, hit-rate %5.1f%%\n", budget,
                static_cast<double>(budget), bench::pct(lru_rate));
    std::printf("  adaptive        : %4.1f buffers/process (peak %lld, pledged peak %.1f KiB), "
                "hit-rate %5.1f%%,\n",
                adaptive.policy.avg_buffers(),
                static_cast<long long>(adaptive.policy.peak_buffers),
                static_cast<double>(adaptive.counters.preposted_bytes_peak) / 1024.0,
                bench::pct(adaptive.policy.hit_rate()));
    std::printf("                    fallback asks %lld, rendezvous round-trips %lld "
                "(%lld elided = %.1f%% fewer)\n",
                static_cast<long long>(adaptive.policy.prepost_misses),
                static_cast<long long>(round_trips(adaptive.counters)),
                static_cast<long long>(adaptive.counters.rendezvous_elided),
                round_trips(static_counters) == 0
                    ? 0.0
                    : 100.0 *
                          (1.0 - static_cast<double>(round_trips(adaptive.counters)) /
                                     static_cast<double>(round_trips(static_counters))));
    std::printf("  verified: %s\n\n", adaptive.outcome.verified ? "yes" : "NO");
    std::fflush(stdout);
  }

  std::printf("(expected: adaptive resident buffers well under the per-peer %s, at a hit\n"
              " rate at or above the same-budget LRU yardstick; periodic apps elide most\n"
              " handshakes —\n"
              " something no size-blind LRU can do)\n",
              "nranks-1");
  if (telem_flags.any()) {
    bench::write_telemetry(telem_flags, telem);
    std::printf("telemetry (bt.16 adaptive world):");
    if (!telem_flags.metrics_path.empty()) {
      std::printf(" metrics -> %s", telem_flags.metrics_path.c_str());
    }
    if (!telem_flags.trace_path.empty()) {
      std::printf(" trace events -> %s", telem_flags.trace_path.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::cli_main(argc, argv, kUsage, run);
}
