// End-to-end pipeline on a real workload: run NAS CG on the simulated
// machine, demultiplex the resulting traces through the prediction engine,
// and evaluate the paper's +1..+5 prediction accuracy for one process plus
// the aggregate over every process's stream.
//
// The same pipeline also runs on externally captured traces: `--trace`
// replays a CSV trace file (either dialect, see docs/TRACE_FORMAT.md)
// through the resident prediction service — one PredictionServer session
// per level, the file parsed in pulled batches of `--batch-events` that
// overlap the shard drain, optionally sliced to a `--window` and folded
// onto a smaller rank space with `--remap-ranks` — and `--export-trace`
// writes the simulated run's trace out for later replay. That a replayed
// export reports exactly what the simulated run did (across shard counts,
// batch sizes, and the streamed vs materialized read) is pinned in the
// tier-1 suite (ingest_test, serve_test), not re-checked here; CI also
// diffs the two modes' accuracy blocks over a bt.16 export.
//
// `--emit-metrics <file>` writes the run's final metrics snapshot as JSON
// (both modes); `--emit-trace-events <file>` additionally records the
// simulated run as Chrome trace-event JSON — one track per rank, spans in
// simulated nanoseconds, loadable in Perfetto (simulated mode only: a
// replayed file has no simulated clock). Telemetry observes, it never
// steers: that an instrumented world runs exactly like a plain one is
// pinned in the tier-1 suite (telemetry_test), not re-checked here.
//
// `--help` prints the usage below and exits 0; a bad argument, unknown
// application, unsupported process count, or unreadable trace prints one
// line to stderr and exits 1.
//
//   $ ./examples/predict_nas [app] [procs] [--predictor <name>] [--shards <n>]
//                            [--export-trace <path>] [--trace <file>]
//                            [--batch-events <n>] [--window <t0>:<t1>]
//                            [--remap-ranks <spec>] [--emit-metrics <file>]
//                            [--emit-trace-events <file>]
//     (default: cg 8 --predictor dpd --shards 0 = one per hardware thread)

#include <charconv>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "apps/registry.hpp"
#include "bench/bench_util.hpp"
#include "engine/engine.hpp"
#include "ingest/streaming.hpp"
#include "ingest/transform.hpp"
#include "mpi/world.hpp"
#include "serve/server.hpp"
#include "trace/csv.hpp"
#include "trace/stats.hpp"

namespace {

using namespace mpipred;

constexpr const char* kUsage =
    "usage: predict_nas [app] [procs] [--predictor <name>] [--shards <n>]\n"
    "                   [--export-trace <path>] [--trace <file>]\n"
    "                   [--batch-events <n>] [--window <t0>:<t1>]\n"
    "                   [--remap-ranks <spec>] [--emit-metrics <file>]\n"
    "                   [--emit-trace-events <file>]\n"
    "  (default: cg 8 --predictor dpd --shards 0 = one per hardware thread)\n";

void print_report_block(const char* label, const core::AccuracyReport& report) {
  std::printf("  %-8s", label);
  for (std::size_t h = 1; h <= report.max_horizon(); ++h) {
    std::printf("  +%zu: %5.1f%%", h, 100.0 * report.at(h).accuracy());
  }
  std::printf("\n");
}

/// One level's block, shared by the simulator and replay paths so the two
/// outputs stay diffable line for line.
void print_level_report(trace::Level level, const engine::EngineReport& report, int rep_rank,
                        int nprocs, std::size_t shards) {
  std::printf("%s level (%lld messages over %zu streams on %zu engine shards, state %.1f KiB):\n",
              std::string(to_string(level)).c_str(), static_cast<long long>(report.events),
              report.streams.size(), engine::effective_shard_count(shards),
              static_cast<double>(report.total_footprint_bytes) / 1024.0);
  for (const auto& stream : report.streams) {
    if (stream.key.destination != rep_rank) {
      continue;
    }
    std::printf(" process %d (%lld messages):\n", rep_rank,
                static_cast<long long>(stream.events));
    print_report_block("senders:", stream.senders);
    print_report_block("sizes:", stream.sizes);
  }
  std::printf(" aggregate over all %d processes:\n", nprocs);
  print_report_block("senders:", report.aggregate_senders);
  print_report_block("sizes:", report.aggregate_sizes);
}

/// The stream a remapped replay reports on: the busiest destination (most
/// events, smallest rank on ties — deterministic because report streams
/// are key-sorted). The raw store's representative rank is meaningless
/// after renumbering.
int busiest_destination(const engine::EngineReport& report) {
  int best = -1;
  std::int64_t best_events = -1;
  for (const auto& stream : report.streams) {
    if (stream.key.destination == engine::kAnyKey) {
      continue;
    }
    if (stream.events > best_events) {
      best_events = stream.events;
      best = stream.key.destination;
    }
  }
  return best;
}

int replay_trace(const std::string& path, const engine::EngineConfig& cfg,
                 const bench::TraceFlags& flags, const bench::TelemetryFlags& telem_flags) {
  const ingest::CsvTraceFile file = ingest::CsvTraceFile::open(path);
  std::printf("replaying %s (format %s, %d ranks), predictor %s...\n", path.c_str(),
              std::string(file.format()).c_str(), file.nranks(), cfg.predictor.c_str());

  // The server's sessions report into this registry when `--emit-metrics`
  // is given.
  telemetry::Telemetry telem;
  engine::EngineConfig server_cfg = cfg;
  if (telem_flags.any()) {
    server_cfg.metrics = &telem.metrics();
  }

  // The streamed default path through the resident service: one
  // PredictionServer, one isolated session per level, each fed by the
  // incremental reader in pulled `--batch-events` batches through the
  // transform chain; nothing below depends on the batch size (ingest_test
  // and serve_test pin it).
  struct LevelRun {
    trace::Level level{};
    ingest::StreamedRun run;
    std::string window_summary;
    std::string remap_summary;
    int nranks = 0;
  };
  serve::PredictionServer server({.engine = server_cfg});
  std::vector<LevelRun> runs;
  for (const trace::Level level : file.levels()) {
    auto chain =
        ingest::apply_transforms(ingest::CsvStreamReader::open(file, level), flags.transforms);
    LevelRun lr;
    lr.level = level;
    const auto session = server.open_session();
    lr.run = ingest::run_into(*chain.stream, *session, flags.batch_events);
    lr.nranks = file.nranks();
    if (chain.window != nullptr) {
      lr.window_summary = chain.window->summary();
    }
    if (chain.remap != nullptr) {
      lr.remap_summary =
          chain.remap->config().to_string() + ": " + chain.remap->report().summary();
      lr.nranks = chain.remap->report().nranks();
    }
    runs.push_back(std::move(lr));
  }

  const int rep = !flags.transforms.active()
                      ? trace::representative_rank(file.records_per_rank(file.levels().front()))
                      : busiest_destination(runs.front().run.report);
  std::printf("  representative process: %d\n\n", rep);

  for (const LevelRun& lr : runs) {
    print_level_report(lr.level, lr.run.report, rep, lr.nranks, cfg.shards);
    if (!lr.window_summary.empty()) {
      std::printf("  %s\n", lr.window_summary.c_str());
    }
    if (!lr.remap_summary.empty()) {
      std::printf("  remap %s\n", lr.remap_summary.c_str());
    }
  }
  if (telem_flags.any()) {
    bench::write_telemetry_or_exit(telem_flags, telem);
    std::printf("\ntelemetry: metrics snapshot -> %s\n", telem_flags.metrics_path.c_str());
  }
  return 0;
}

int run(int argc, char** argv) {
  auto predictor_arg = engine::predictor_arg_or_exit(argc, argv);
  const std::string& predictor = predictor_arg.name;
  const std::size_t shards = bench::shards_flag(predictor_arg.rest);
  const bench::TraceFlags trace_flags = bench::trace_flags_or_exit(predictor_arg.rest);
  const std::string export_path = bench::string_flag(predictor_arg.rest, "--export-trace");
  const bench::TelemetryFlags telem_flags = bench::telemetry_flags(predictor_arg.rest);
  const engine::EngineConfig cfg{.predictor = predictor, .shards = shards};

  if (!trace_flags.path.empty()) {
    if (!predictor_arg.rest.empty()) {
      std::fprintf(stderr, "unexpected argument '%s' (positionals do not combine with --trace)\n",
                   predictor_arg.rest.front().c_str());
      return 1;
    }
    if (!export_path.empty()) {
      std::fprintf(stderr, "--export-trace requires a simulated run; it does not combine with "
                           "--trace\n");
      return 1;
    }
    if (!telem_flags.trace_path.empty()) {
      std::fprintf(stderr, "--emit-trace-events requires a simulated run (a replayed file has "
                           "no simulated clock); it does not combine with --trace\n");
      return 1;
    }
    return replay_trace(trace_flags.path, cfg, trace_flags, telem_flags);
  }

  std::string app = "cg";
  int procs = 8;
  if (predictor_arg.rest.size() > 2) {
    std::fprintf(stderr, "unexpected argument '%s'\n", predictor_arg.rest[2].c_str());
    return 1;
  }
  if (!predictor_arg.rest.empty()) {
    app = predictor_arg.rest[0];
  }
  if (predictor_arg.rest.size() > 1) {
    const std::string& arg = predictor_arg.rest[1];
    const auto [end, ec] = std::from_chars(arg.data(), arg.data() + arg.size(), procs);
    if (ec != std::errc{} || end != arg.data() + arg.size() || procs < 1) {
      std::fprintf(stderr, "procs must be a positive integer, got '%s'\n", arg.c_str());
      return 1;
    }
  }

  const auto& info = apps::find_app(app);
  if (!info.supports(procs)) {
    std::fprintf(stderr, "%s does not support %d processes\n", app.c_str(), procs);
    return 1;
  }

  std::printf("running %s with %d simulated processes (Class A), predictor %s...\n", app.c_str(),
              procs, predictor.c_str());
  telemetry::Telemetry telem;
  if (!telem_flags.trace_path.empty()) {
    telem.enable_tracing();  // before the world: endpoints cache the tracer
  }
  mpi::WorldConfig world_cfg = apps::paper_world_config(/*seed=*/42);
  if (telem_flags.any()) {
    world_cfg.telemetry = &telem;
  }
  mpi::World world(procs, world_cfg);
  const auto outcome = info.run(world, apps::AppConfig{.problem_class = apps::ProblemClass::A});
  std::printf("  verified: %s, metric: %g\n", outcome.verified ? "yes" : "NO", outcome.metric);

  const int rank = trace::representative_rank(world.traces(), trace::Level::Logical);
  std::printf("  representative process: %d\n\n", rank);

  // One resident server, one session per level.
  serve::PredictionServer server({.engine = cfg});
  for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
    const auto session = server.open_session();
    session->observe_all(engine::events_from_trace(world.traces(), level));
    print_level_report(level, session->report(), rank, procs, shards);
  }
  std::printf("\n(the logical level is a pure function of the program; the physical level\n"
              " adds the simulated machine's random effects — compare the two blocks)\n");

  if (!export_path.empty()) {
    trace::write_csv_file(export_path, world.traces());
    std::printf("\nexported trace to %s\n", export_path.c_str());
  }

  if (telem_flags.any()) {
    bench::write_telemetry_or_exit(telem_flags, telem);
    std::printf("\n");
    if (!telem_flags.metrics_path.empty()) {
      std::printf("telemetry: metrics snapshot -> %s\n", telem_flags.metrics_path.c_str());
    }
    if (!telem_flags.trace_path.empty()) {
      std::printf("telemetry: trace events -> %s\n", telem_flags.trace_path.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::cli_main(argc, argv, kUsage, run);
}
