// End-to-end pipeline on a real workload: run NAS CG on the simulated
// machine, demultiplex the resulting traces through the prediction engine,
// and evaluate the paper's +1..+5 prediction accuracy for one process plus
// the aggregate over every process's stream.
//
// `--export-trace <path>` writes the simulated run's trace out as CSV
// (docs/TRACE_FORMAT.md); `replay_trace --trace <path>` replays it and
// prints the same accuracy blocks, which the tier-1 suite
// (trace_tools_stdout_test) checks line for line.
//
// `--emit-metrics <file>` writes the run's final metrics snapshot as JSON;
// `--emit-trace-events <file>` additionally records the simulated run as
// Chrome trace-event JSON — one track per rank, spans in simulated
// nanoseconds, loadable in Perfetto. Telemetry observes, it never steers:
// that an instrumented world runs exactly like a plain one is pinned in
// the tier-1 suite (telemetry_test), not re-checked here.
//
// `--help` prints the usage below and exits 0; a bad argument, unknown
// application or unsupported process count prints one line to stderr and
// exits 1.
//
//   $ ./examples/predict_nas [app] [procs] [--predictor <name>] [--shards <n>]
//                            [--export-trace <path>] [--emit-metrics <file>]
//                            [--emit-trace-events <file>]
//     (default: cg 8 --predictor dpd --shards 0 = one per hardware thread)

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "apps/registry.hpp"
#include "bench/bench_util.hpp"
#include "engine/engine.hpp"
#include "mpi/world.hpp"
#include "serve/server.hpp"
#include "trace/csv.hpp"
#include "trace/stats.hpp"

namespace {

using namespace mpipred;

constexpr const char* kUsage =
    "usage: predict_nas [app] [procs] [--predictor <name>] [--shards <n>]\n"
    "                   [--export-trace <path>] [--emit-metrics <file>]\n"
    "                   [--emit-trace-events <file>]\n"
    "  (default: cg 8 --predictor dpd --shards 0 = one per hardware thread)\n";

int run(int argc, char** argv) {
  auto predictor_arg = bench::predictor_arg(argc, argv);
  const std::string& predictor = predictor_arg.name;
  const std::size_t shards = bench::shards_flag(predictor_arg.rest);
  const std::string export_path = bench::string_flag(predictor_arg.rest, "--export-trace");
  const bench::TelemetryFlags telem_flags = bench::telemetry_flags(predictor_arg.rest);
  const engine::EngineConfig cfg{.predictor = predictor, .shards = shards};

  // What is left are the two positionals; anything flag-shaped among them
  // is a flag this tool does not take.
  const auto flag = std::ranges::find_if(
      predictor_arg.rest, [](const std::string& a) { return a.starts_with("--"); });
  if (flag != predictor_arg.rest.end()) {
    throw UsageError("unexpected argument '" + *flag + "'");
  }
  if (predictor_arg.rest.size() > 2) {
    throw UsageError("unexpected argument '" + predictor_arg.rest[2] + "'");
  }
  std::string app = "cg";
  int procs = 8;
  if (!predictor_arg.rest.empty()) {
    app = predictor_arg.rest[0];
  }
  if (predictor_arg.rest.size() > 1) {
    const std::string& arg = predictor_arg.rest[1];
    const auto [end, ec] = std::from_chars(arg.data(), arg.data() + arg.size(), procs);
    if (ec != std::errc{} || end != arg.data() + arg.size() || procs < 1) {
      throw UsageError("procs must be a positive integer, got '" + arg + "'");
    }
  }

  const auto& info = apps::find_app(app);
  if (!info.supports(procs)) {
    throw UsageError(app + " does not support " + std::to_string(procs) + " processes");
  }
  if (bench::list_predictors(predictor_arg)) {
    return 0;
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
    bench::print_level_report(level, session->report(), rank, procs, shards);
  }
  std::printf("\n(the logical level is a pure function of the program; the physical level\n"
              " adds the simulated machine's random effects — compare the two blocks)\n");

  if (!export_path.empty()) {
    trace::write_csv_file(export_path, world.traces());
    std::printf("\nexported trace to %s\n", export_path.c_str());
  }

  if (telem_flags.any()) {
    bench::write_telemetry(telem_flags, telem);
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
