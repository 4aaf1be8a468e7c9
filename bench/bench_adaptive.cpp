// §2 end-to-end — the closed loop inside the library. Replays NAS app
// traces through the simulator twice: once with the static library (one
// pre-allocated buffer per peer, every large message pays the rendezvous
// handshake) and once with the adaptive runtime (WorldConfig::adaptive:
// buffers pre-posted for predicted senders, anticipated large messages
// skip the handshake). A prediction-free LRU replay at the adaptive
// policy's own buffer budget is the "same memory, no predictor" yardstick.
//
// Every adaptive world is run at engine shard counts {1, 2, 4} (plus
// --shards when different) and the formatted reports must be
// byte-identical — the bench exits 2 on any mismatch, so the memory and
// round-trip numbers can never drift away from the determinism guarantee.
//
// With `--trace <file>` the comparison runs over an externally captured
// trace instead: the file is streamed through src/ingest/ (batched parse,
// optional `--window` slice and `--remap-ranks` rank fold), its physical
// arrival stream replayed through the same adaptive policy at every sweep
// shard count (byte-identical summaries enforced), scored against the
// static per-peer allocation and the same-budget LRU yardstick, and the
// streamed-ingest + CSV round-trip gates are run on the input. Exit 2 on
// any mismatch.
//
// `--emit-metrics <file>` writes a final metrics snapshot as JSON and
// `--emit-trace-events <file>` records Chrome trace-event JSON. In
// simulated mode both cover the first case's (bt.16) reference adaptive
// world — its repeats run telemetry-free, so the byte-identical-report
// gate doubles as the telemetry on/off check. In `--trace` mode the
// instrumented adaptive replay (decision instants on an event-ordinal
// clock) must reproduce the un-instrumented sweep's summary byte for byte.
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
#include "ingest/source.hpp"
#include "ingest/streaming.hpp"
#include "ingest/transform.hpp"
#include "ingest/verify.hpp"
#include "scale/buffer_manager.hpp"

namespace {

using namespace mpipred;

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

/// Everything the comparison prints, formatted — the determinism check
/// compares these strings byte-for-byte across shard counts.
std::string format_report(const AdaptiveRun& run) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "messages=%lld hits=%lld misses=%lld avg_buffers=%.6f peak_buffers=%lld "
                "pledged_peak=%lld rendezvous=%lld elided=%lld checksum=%llu",
                static_cast<long long>(run.policy.messages),
                static_cast<long long>(run.policy.prepost_hits),
                static_cast<long long>(run.policy.prepost_misses), run.policy.avg_buffers(),
                static_cast<long long>(run.policy.peak_buffers),
                static_cast<long long>(run.counters.preposted_bytes_peak),
                static_cast<long long>(run.counters.rendezvous_received),
                static_cast<long long>(run.counters.rendezvous_elided),
                static_cast<unsigned long long>(run.outcome.combined_checksum()));
  return buf;
}

/// `--trace` mode: the static-vs-adaptive comparison over an ingested
/// external trace. The simulator cannot be re-run from a trace, so the
/// static side is the analytic per-peer allocation (nranks-1 buffers,
/// every arrival a hit) and the adaptive side replays the policy over the
/// arrival stream — the identical decision code the live endpoint drives.
int run_trace_mode(const std::string& path, const std::string& predictor, std::size_t shards,
                   const bench::TraceFlags& flags, const bench::TelemetryFlags& telem_flags) {
  const auto source = bench::open_trace_or_exit(path);
  // Physical (arrival order) when the format records it — the level the
  // live adaptive loop feeds on. The arrival sequence comes through the
  // streamed default path: incremental reader, then the window/remap
  // transform chain, drained (the policy needs the whole sequence).
  const trace::Level level = source->levels().back();
  std::vector<engine::Event> events;
  int nranks = source->nranks();
  std::string transform_lines;
  try {
    auto chain =
        ingest::apply_transforms(ingest::open_event_stream(path, level), flags.transforms);
    events = ingest::strip_times(ingest::drain(*chain.stream, flags.batch_events));
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
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  const auto sweep = bench::gate_shard_sweep(shards);

  std::printf("§2 closed loop — static per-peer library vs adaptive replay of %s\n",
              path.c_str());
  std::printf("(format %s, %d ranks, %zu %s-level arrivals, predictor %s; replay repeated at\n"
              " engine shards {1,2,4}; summaries must match byte-for-byte)\n",
              std::string(source->format()).c_str(), nranks, events.size(),
              std::string(to_string(level)).c_str(), predictor.c_str());
  std::printf("%s\n", transform_lines.c_str());

  adaptive::RuntimeConfig rt;
  rt.service.engine.predictor = predictor;
  const ingest::SweptReplay swept = ingest::replay_adaptive_swept(events, rt, sweep);
  const ingest::AdaptiveReplay& adaptive = swept.replay;
  if (!swept.deterministic) {
    std::printf("REPLAY MISMATCH at %s\n", swept.mismatch.c_str());
  }

  // Telemetry on/off gate + exports: the instrumented replay must
  // reproduce the un-instrumented sweep's summary byte for byte.
  telemetry::Telemetry telem;
  bool telemetry_ok = true;
  if (telem_flags.any()) {
    if (!telem_flags.trace_path.empty()) {
      telem.enable_tracing();
    }
    const ingest::AdaptiveReplay instrumented = ingest::replay_adaptive(events, rt, &telem);
    if (instrumented.summary() != swept.replay.summary()) {
      std::fprintf(stderr, "telemetry gate FAILED: instrumented replay differs\n  ref : %s\n"
                           "  got : %s\n",
                   swept.replay.summary().c_str(), instrumented.summary().c_str());
      telemetry_ok = false;
    }
    bench::write_telemetry_or_exit(telem_flags, telem);
  }

  // Prediction-free yardstick at the adaptive policy's own mean budget,
  // over the same time-ordered arrival sequence the adaptive replay saw
  // (flat-dialect files need not be time-sorted on disk).
  const auto budget = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(adaptive.stats.avg_buffers())));
  std::vector<std::vector<std::int64_t>> senders_by_rank(static_cast<std::size_t>(nranks));
  for (const engine::Event& event : events) {
    senders_by_rank[static_cast<std::size_t>(event.destination)].push_back(event.source);
  }
  std::int64_t lru_hits = 0;
  std::int64_t lru_messages = 0;
  for (const auto& senders : senders_by_rank) {
    const auto lru = scale::replay_lru_buffers(senders, budget);
    lru_hits += lru.hits;
    lru_messages += lru.messages;
  }
  const double lru_rate =
      lru_messages == 0 ? 0.0 : static_cast<double>(lru_hits) / static_cast<double>(lru_messages);

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
  std::printf("  deterministic across shards: %s\n", swept.deterministic ? "yes" : "NO");

  bool gate_ok = true;
  const engine::EngineConfig gate_cfg{.predictor = predictor};
  const auto streamed =
      ingest::verify_streamed_source(path, *source, flags.transforms, gate_cfg, sweep);
  if (!streamed.ok) {
    std::fprintf(stderr, "streamed-ingest gate FAILED: %s\n", streamed.detail.c_str());
    gate_ok = false;
  }
  if (const trace::TraceStore* store = source->store()) {
    const auto gate = ingest::verify_csv_round_trip(*store, gate_cfg, sweep);
    if (!gate.ok) {
      std::fprintf(stderr, "round-trip gate FAILED: %s\n", gate.detail.c_str());
      gate_ok = false;
    }
  }
  if (gate_ok) {
    std::printf("  gates: ok (streamed == materialized across shards and batch sizes; "
                "write_csv round trip byte-identical)\n");
  }
  return swept.deterministic && gate_ok && telemetry_ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  auto arg = engine::predictor_arg_or_exit(argc, argv);
  const std::size_t shards = bench::shards_flag(arg.rest, /*fallback=*/1);
  const bench::TraceFlags trace_flags = bench::trace_flags_or_exit(arg.rest);
  const bench::TelemetryFlags telem_flags = bench::telemetry_flags(arg.rest);
  if (!trace_flags.path.empty()) {
    if (!arg.rest.empty()) {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.rest.front().c_str());
      return 1;
    }
    return run_trace_mode(trace_flags.path, arg.name, shards, trace_flags, telem_flags);
  }
  if (!arg.rest.empty()) {
    std::fprintf(stderr, "unexpected argument '%s'\n", arg.rest.front().c_str());
    return 1;
  }

  std::vector<std::size_t> sweep{1, 2, 4};
  if (std::find(sweep.begin(), sweep.end(), shards) == sweep.end()) {
    sweep.push_back(shards);
  }

  std::printf("§2 closed loop — static per-peer library vs adaptive runtime (predictor %s)\n",
              arg.name.c_str());
  std::printf("(each adaptive world repeated at engine shards {");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    std::printf("%s%zu", i == 0 ? "" : ",", sweep[i]);
  }
  std::printf("}; reports must match byte-for-byte)\n");
  // Reproducibility disclosure (Hunold & Carpen-Amarie, "MPI Benchmarking
  // Revisited"): the seed pins every random stream, so one run per shard
  // count is a complete repetition set — no hidden variance is averaged
  // away.
  std::printf("(sim seed 2003; %zu repetitions per world — one deterministic run per shard "
              "count)\n\n",
              sweep.size());

  struct Case {
    const char* app;
    int procs;
  };
  bool deterministic = true;
  // With `--emit-*`, the first case's reference world carries the
  // telemetry; its repeats (and every later case) run telemetry-free, so
  // the byte-identical-report gate below is also the on/off check.
  telemetry::Telemetry telem;
  if (!telem_flags.trace_path.empty()) {
    telem.enable_tracing();
  }
  telemetry::Telemetry* pending_telem = telem_flags.any() ? &telem : nullptr;
  for (const auto& [app, procs] : {Case{"bt", 16}, Case{"cg", 16}, Case{"lu", 16}}) {
    const std::string label = std::string(app) + "." + std::to_string(procs);

    // Static library: per-peer pre-allocation, full rendezvous.
    auto baseline = bench::run_traced(app, procs);
    const auto static_counters = baseline.world->aggregate_counters();

    // Adaptive runtime, once per sweep point; all reports must agree.
    AdaptiveRun adaptive = run_adaptive(app, procs, arg.name, sweep.front(), pending_telem);
    pending_telem = nullptr;
    const std::string reference = format_report(adaptive);
    bool case_deterministic = true;
    for (std::size_t i = 1; i < sweep.size(); ++i) {
      const AdaptiveRun repeat = run_adaptive(app, procs, arg.name, sweep[i]);
      if (format_report(repeat) != reference) {
        std::printf("%s: REPORT MISMATCH at shards=%zu\n  ref : %s\n  got : %s\n", label.c_str(),
                    sweep[i], reference.c_str(), format_report(repeat).c_str());
        case_deterministic = false;
      }
    }
    deterministic = deterministic && case_deterministic;

    // Prediction-free yardstick: LRU buffers at the adaptive policy's own
    // mean budget, replayed over every rank's physical sender stream of
    // the static run.
    const auto budget = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(adaptive.policy.avg_buffers())));
    std::int64_t lru_hits = 0;
    std::int64_t lru_messages = 0;
    for (int rank = 0; rank < procs; ++rank) {
      const auto streams =
          trace::extract_streams(baseline.world->traces(), rank, trace::Level::Physical);
      const auto lru = scale::replay_lru_buffers(streams.senders, budget);
      lru_hits += lru.hits;
      lru_messages += lru.messages;
    }
    const double lru_rate =
        lru_messages == 0 ? 0.0 : static_cast<double>(lru_hits) / static_cast<double>(lru_messages);

    const auto round_trips = [](const mpi::detail::EndpointCounters& c) {
      return c.rendezvous_received;
    };
    std::printf("%s\n", label.c_str());
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
    std::printf("  verified: %s | deterministic across shards: %s\n\n",
                adaptive.outcome.verified ? "yes" : "NO", case_deterministic ? "yes" : "NO");
    std::fflush(stdout);
  }

  std::printf("(expected: adaptive resident buffers well under the per-peer %s, at a hit\n"
              " rate at or above the same-budget LRU yardstick; periodic apps elide most\n"
              " handshakes —\n"
              " something no size-blind LRU can do)\n",
              "nranks-1");
  if (telem_flags.any()) {
    bench::write_telemetry_or_exit(telem_flags, telem);
    std::printf("telemetry (bt.16 reference world):");
    if (!telem_flags.metrics_path.empty()) {
      std::printf(" metrics -> %s", telem_flags.metrics_path.c_str());
    }
    if (!telem_flags.trace_path.empty()) {
      std::printf(" trace events -> %s", telem_flags.trace_path.c_str());
    }
    std::printf("\n");
  }
  return deterministic ? 0 : 2;
}
