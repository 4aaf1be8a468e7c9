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
// With `--trace <file>` the comparison runs over an externally captured
// trace instead: the file is streamed through src/ingest/ (batched parse,
// optional `--window` slice and `--remap-ranks` rank fold), its physical
// arrival stream replayed once through the same adaptive policy and
// scored against the static per-peer allocation and the same-budget LRU
// yardstick. That the streamed read matches the materialized one,
// survives a write_csv round trip, and replays identically at every shard
// count is pinned in ingest_test, not re-checked here.
//
// `--emit-metrics <file>` writes a final metrics snapshot as JSON and
// `--emit-trace-events <file>` records Chrome trace-event JSON. In
// simulated mode both cover the first case's (bt.16) adaptive world; in
// `--trace` mode they cover the adaptive replay (decision instants on an
// event-ordinal clock).
//
// `--help` prints the usage below and exits 0; a bad argument or an
// unreadable or malformed trace prints one line to stderr and exits 1.
//
//   $ ./bench_adaptive [--predictor <name>] [--shards <n>] [--trace <file>]
//       [--batch-events <n>] [--window <t0>:<t1>] [--remap-ranks <spec>]
//       [--emit-metrics <file>] [--emit-trace-events <file>]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "ingest/replay.hpp"
#include "ingest/streaming.hpp"
#include "ingest/transform.hpp"

namespace {

using namespace mpipred;

constexpr const char* kUsage =
    "usage: bench_adaptive [--predictor <name>] [--shards <n>] [--trace <file>]\n"
    "                      [--batch-events <n>] [--window <t0>:<t1>]\n"
    "                      [--remap-ranks <spec>] [--emit-metrics <file>]\n"
    "                      [--emit-trace-events <file>]\n";

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

/// `--trace` mode: the static-vs-adaptive comparison over an ingested
/// external trace. The simulator cannot be re-run from a trace, so the
/// static side is the analytic per-peer allocation (nranks-1 buffers,
/// every arrival a hit) and the adaptive side replays the policy over the
/// arrival stream — the identical decision code the live endpoint drives.
int run_trace_mode(const std::string& path, const std::string& predictor, std::size_t shards,
                   const bench::TraceFlags& flags, const bench::TelemetryFlags& telem_flags) {
  const ingest::CsvTraceFile file = ingest::CsvTraceFile::open(path);
  // Physical (arrival order) when the format records it — the level the
  // live adaptive loop feeds on. The arrival sequence comes through the
  // streamed default path: incremental reader, then the window/remap
  // transform chain, drained (the policy needs the whole sequence).
  const trace::Level level = file.levels().back();
  int nranks = file.nranks();
  std::string transform_lines;
  auto chain =
      ingest::apply_transforms(ingest::CsvStreamReader::open(file, level), flags.transforms);
  const std::vector<engine::Event> events =
      ingest::strip_times(ingest::drain(*chain.stream, flags.batch_events));
  if (chain.window != nullptr) {
    transform_lines += "  " + chain.window->summary() + "\n";
  }
  if (chain.remap != nullptr) {
    // A remap that dropped every event reports 0 new ranks; clamp so the
    // static per-peer baseline below stays non-negative.
    nranks = std::max(1, chain.remap->report().nranks());
    transform_lines += "  remap " + chain.remap->config().to_string() + ": " +
                       chain.remap->report().summary() + "\n";
  }
  std::printf("§2 closed loop — static per-peer library vs adaptive replay of %s\n",
              path.c_str());
  std::printf("(format %s, %d ranks, %zu %s-level arrivals, predictor %s)\n",
              std::string(file.format()).c_str(), nranks, events.size(),
              std::string(to_string(level)).c_str(), predictor.c_str());
  std::printf("%s\n", transform_lines.c_str());

  adaptive::RuntimeConfig rt;
  rt.service.engine.predictor = predictor;
  rt.service.engine.shards = shards;
  telemetry::Telemetry telem;
  if (!telem_flags.trace_path.empty()) {
    telem.enable_tracing();
  }
  const ingest::AdaptiveReplay adaptive =
      ingest::replay_adaptive(events, rt, telem_flags.any() ? &telem : nullptr);
  if (telem_flags.any()) {
    bench::write_telemetry_or_exit(telem_flags, telem);
  }

  // Prediction-free yardstick at the adaptive policy's own mean budget,
  // over the same time-ordered arrival sequence the adaptive replay saw
  // (flat-dialect files need not be time-sorted on disk).
  const auto budget = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(adaptive.stats.avg_buffers())));
  const double lru_rate = ingest::replay_lru(events, budget).hit_rate();

  std::printf("  static per-peer : %4.1f buffers/process (%6.1f KiB), hit-rate 100.0%%\n",
              static_cast<double>(nranks - 1), static_cast<double>(nranks - 1) * 16.0);
  std::printf("  lru@%-2zu no-pred  : %4.1f buffers/process, hit-rate %5.1f%%\n", budget,
              static_cast<double>(budget), bench::pct(lru_rate));
  std::printf("  adaptive        : %4.1f buffers/process (peak %lld), hit-rate %5.1f%%,\n",
              adaptive.stats.avg_buffers(), static_cast<long long>(adaptive.stats.peak_buffers),
              bench::pct(adaptive.stats.hit_rate()));
  std::printf("                    fallback asks %lld, rendezvous %lld (%lld elided = %.1f%% of "
              "long messages)\n",
              static_cast<long long>(adaptive.stats.prepost_misses),
              static_cast<long long>(adaptive.stats.rendezvous_sends),
              static_cast<long long>(adaptive.stats.rendezvous_elided),
              bench::pct(adaptive.stats.elision_rate()));
  return 0;
}

int run(int argc, char** argv) {
  auto arg = engine::predictor_arg_or_exit(argc, argv);
  const std::size_t shards = bench::shards_flag(arg.rest, /*fallback=*/1);
  const bench::TraceFlags trace_flags = bench::trace_flags_or_exit(arg.rest);
  const bench::TelemetryFlags telem_flags = bench::telemetry_flags(arg.rest);
  if (!arg.rest.empty()) {
    std::fprintf(stderr, "unexpected argument '%s'\n", arg.rest.front().c_str());
    return 1;
  }
  if (!trace_flags.path.empty()) {
    return run_trace_mode(trace_flags.path, arg.name, shards, trace_flags, telem_flags);
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
    bench::write_telemetry_or_exit(telem_flags, telem);
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
