// External traces through the whole stack: open any supported trace file
// (run `trace_export` or `predict_nas --export-trace` to make one, or
// bring a `time_ns,sender,receiver,bytes[,kind]` flat CSV from a real
// capture tool), replay it through the resident prediction service — one
// PredictionServer, one session per trace level, each file parsed in
// pulled batches that overlap the shard drain — and drive the adaptive
// runtime's decision layer over the arrival stream; no simulator
// involved. `--window` slices a capture-time range and `--remap-ranks`
// folds/subsets the rank space before anything else sees the events. The
// adaptive replay runs once, at `--shards`. That the streamed engine
// reports match the materialized ones across shard counts and batch
// sizes, survive a write_csv round trip, and equal a standalone engine's,
// and that the adaptive replay is identical at every shard count and with
// telemetry attached, is pinned in the tier-1 suite (ingest_test,
// serve_test, telemetry_test), not re-checked here.
//
// `--emit-metrics <file>` writes the final metrics snapshot (serve.*,
// engine.feed.* per tenant, adaptive.policy.*) as JSON;
// `--emit-trace-events <file>` records the adaptive replay's per-event
// decisions as Chrome trace-event instants stamped with event ordinals (an
// ingested file has no simulated clock).
//
// `--help` prints the usage below and exits 0; a bad argument or an
// unreadable or malformed trace prints one line to stderr and exits 1.
//
//   $ ./examples/replay_trace --trace <file> [--predictor <name>] [--shards <n>]
//       [--batch-events <n>] [--window <t0>:<t1>] [--remap-ranks <spec>]
//       [--emit-metrics <file>] [--emit-trace-events <file>]

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "engine/engine.hpp"
#include "ingest/replay.hpp"
#include "ingest/streaming.hpp"
#include "ingest/transform.hpp"
#include "serve/server.hpp"

namespace {

using namespace mpipred;

constexpr const char* kUsage =
    "usage: replay_trace --trace <file> [--predictor <name>] [--shards <n>]\n"
    "                    [--batch-events <n>] [--window <t0>:<t1>]\n"
    "                    [--remap-ranks <spec>] [--emit-metrics <file>]\n"
    "                    [--emit-trace-events <file>]\n";

/// +1 accuracy as a percentage; 0 when the stream was empty (an empty
/// window or keep set must degrade to a zero report, not an abort).
double pct_at_one(const core::AccuracyReport& report) {
  return report.max_horizon() == 0 ? 0.0 : 100.0 * report.at(1).accuracy();
}

int run(int argc, char** argv) {
  auto arg = engine::predictor_arg_or_exit(argc, argv);
  const std::size_t shards = bench::shards_flag(arg.rest);
  const bench::TraceFlags flags = bench::trace_flags_or_exit(arg.rest);
  const bench::TelemetryFlags telem_flags = bench::telemetry_flags(arg.rest);
  if (!arg.rest.empty()) {
    std::fprintf(stderr, "unexpected argument '%s'\n", arg.rest.front().c_str());
    return 1;
  }
  if (flags.path.empty()) {
    std::fputs(kUsage, stderr);
    return 1;
  }

  const ingest::CsvTraceFile file = ingest::CsvTraceFile::open(flags.path);
  const engine::EngineConfig cfg{.predictor = arg.name, .shards = shards};

  // Registry + (ordinal-clocked) trace sink behind the `--emit-*` flags;
  // the serve sessions report into the registry.
  telemetry::Telemetry telem;
  if (!telem_flags.trace_path.empty()) {
    telem.enable_tracing();
  }
  engine::EngineConfig server_cfg = cfg;
  if (telem_flags.any()) {
    server_cfg.metrics = &telem.metrics();
  }
  std::printf("%s: format %s, %d ranks, predictor %s, batch %zu events\n", flags.path.c_str(),
              std::string(file.format()).c_str(), file.nranks(), arg.name.c_str(),
              flags.batch_events);

  // The paper's accuracy question, answered from the file alone through
  // the resident service: one PredictionServer, one isolated session per
  // trace level, each fed by the incremental reader in batches (parse of
  // batch N+1 overlapped with the drain of batch N).
  serve::PredictionServer server({.engine = server_cfg});
  for (const trace::Level level : file.levels()) {
    auto chain =
        ingest::apply_transforms(ingest::CsvStreamReader::open(file, level), flags.transforms);
    const auto session = server.open_session();
    const ingest::StreamedRun run = ingest::run_into(*chain.stream, *session, flags.batch_events);
    std::printf("%s level: %lld messages over %zu streams in %zu batches, +1 accuracy "
                "senders %.1f%% / sizes %.1f%%\n",
                std::string(to_string(level)).c_str(), static_cast<long long>(run.events),
                run.report.streams.size(), run.batches, pct_at_one(run.report.aggregate_senders),
                pct_at_one(run.report.aggregate_sizes));
    if (chain.window != nullptr) {
      std::printf("  %s\n", chain.window->summary().c_str());
    }
    if (chain.remap != nullptr) {
      std::printf("  remap %s: %s\n", chain.remap->config().to_string().c_str(),
                  chain.remap->report().summary().c_str());
    }
  }
  // The last level's transformed arrivals (physical, when the format
  // records it), read again from the indexed file: no second scan.
  const std::vector<engine::Event> arrivals = ingest::strip_times(ingest::drain(
      *ingest::apply_transforms(ingest::CsvStreamReader::open(file, file.levels().back()),
                                flags.transforms)
           .stream,
      flags.batch_events));

  // The §2 runtime question — what would the adaptive library have done?
  adaptive::RuntimeConfig rt;
  rt.service.engine.predictor = arg.name;
  rt.service.engine.shards = shards;
  const ingest::AdaptiveReplay replay =
      ingest::replay_adaptive(arrivals, rt, telem_flags.any() ? &telem : nullptr);
  std::printf("adaptive replay: %s\n", replay.summary().c_str());
  if (telem_flags.any()) {
    bench::write_telemetry_or_exit(telem_flags, telem);
    std::printf("telemetry:");
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
