// External traces through the whole stack, and the one tool that reads a
// trace file: open any supported trace (run `trace_export` or
// `predict_nas --export-trace` to make one, or bring a
// `time_ns,sender,receiver,bytes[,kind]` flat CSV from a real capture
// tool), replay it through the resident prediction service — one
// PredictionServer, one session per trace level, each file parsed in
// pulled batches of `--batch-events` that overlap the shard drain — and
// drive the adaptive runtime's decision layer over the last level's
// arrival stream; no simulator involved. `--window` slices a capture-time
// range and `--remap-ranks` folds/subsets the rank space before anything
// else sees the events.
//
// It prints, in order: the representative process; each level's
// accuracy block (the one predict_nas prints for a simulated run, so a
// run and its replayed export diff line for line) with its batch count
// and transform summaries; the static per-peer vs same-budget LRU vs
// adaptive buffer comparison over the last level's arrivals; and the
// adaptive replay's summary. The adaptive replay runs once, at
// `--shards`. That the streamed engine reports match the materialized
// ones across shard counts and batch sizes, survive a write_csv round
// trip, and equal a standalone engine's, that the adaptive replay is
// identical at every shard count and with telemetry attached, and that a
// replayed export prints the simulated run's accuracy blocks is pinned in
// the tier-1 suite (ingest_test, serve_test, telemetry_test,
// trace_tools_stdout_test), not re-checked here.
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

#include <algorithm>
#include <cmath>
#include <cstdio>
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

/// The stream a transformed replay reports on: the busiest destination
/// (most events, smallest rank on ties — deterministic because report
/// streams are key-sorted). The raw file's representative rank is
/// meaningless after a window or a renumbering.
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

/// Passes a stream through unchanged and keeps every event it yields,
/// timestamps dropped: the last level's arrivals, collected by the one
/// pass that feeds its session, so that level is parsed once. Pulled on
/// run_into's producer thread, read after run_into has joined it.
class KeepArrivals final : public ingest::EventStream {
 public:
  KeepArrivals(ingest::EventStream& inner, std::vector<engine::Event>& kept)
      : inner_(inner), kept_(kept) {}

  std::size_t next_batch(std::size_t max_events,
                         std::vector<ingest::TimedEvent>& out) override {
    const std::size_t first = out.size();
    const std::size_t n = inner_.next_batch(max_events, out);
    for (std::size_t i = first; i < out.size(); ++i) {
      kept_.push_back(out[i].event);
    }
    return n;
  }
  [[nodiscard]] bool time_ordered() const noexcept override { return inner_.time_ordered(); }

 private:
  ingest::EventStream& inner_;
  std::vector<engine::Event>& kept_;
};

/// The §2 buffer question over one arrival sequence: the static library's
/// analytic per-peer allocation (nranks-1 buffers, every arrival a hit),
/// a prediction-free LRU at the adaptive policy's own mean budget, and the
/// adaptive replay itself.
void print_buffer_comparison(const std::vector<engine::Event>& arrivals, int nranks,
                             const ingest::AdaptiveReplay& adaptive) {
  const auto budget = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(adaptive.stats.avg_buffers())));
  const double lru_rate = ingest::replay_lru(arrivals, budget).hit_rate();

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
}

int run(int argc, char** argv) {
  auto arg = bench::predictor_arg(argc, argv);
  const std::size_t shards = bench::shards_flag(arg.rest);
  const std::string path = bench::string_flag(arg.rest, "--trace");
  const std::size_t batch_events =
      bench::size_flag(arg.rest, "--batch-events", ingest::kDefaultBatchEvents);
  const std::string window_spec = bench::string_flag(arg.rest, "--window");
  const std::string remap_spec = bench::string_flag(arg.rest, "--remap-ranks");
  const auto transforms = ingest::TransformSpec::parse(window_spec, remap_spec);
  const bench::TelemetryFlags telem_flags = bench::telemetry_flags(arg.rest);
  bench::reject_unexpected(arg.rest);
  if (bench::list_predictors(arg)) {
    return 0;
  }
  if (path.empty()) {
    std::fputs(kUsage, stderr);
    return 1;
  }

  const ingest::CsvTraceFile file = ingest::CsvTraceFile::open(path);
  const engine::EngineConfig cfg{.predictor = arg.name, .shards = shards};

  // Registry + (ordinal-clocked) trace sink behind the `--emit-*` flags;
  // the serve sessions and the adaptive replay report into them.
  telemetry::Telemetry telem;
  if (!telem_flags.trace_path.empty()) {
    telem.enable_tracing();
  }
  engine::EngineConfig server_cfg = cfg;
  if (telem_flags.any()) {
    server_cfg.metrics = &telem.metrics();
  }
  std::printf("%s: format %s, %d ranks, predictor %s, batch %zu events\n", path.c_str(),
              std::string(file.format()).c_str(), file.nranks(), arg.name.c_str(),
              batch_events);

  // The paper's accuracy question, answered from the file alone through
  // the resident service: one PredictionServer, one isolated session per
  // trace level, each fed by the incremental reader through the transform
  // chain in batches (parse of batch N+1 overlapped with the drain of
  // batch N); nothing below depends on the batch size.
  struct LevelRun {
    trace::Level level{};
    ingest::StreamedRun run;
    std::string window_summary;
    std::string remap_summary;
    int nranks = 0;
  };
  serve::PredictionServer server({.engine = server_cfg});
  std::vector<LevelRun> runs;
  const std::vector<trace::Level> levels = file.levels();
  std::vector<engine::Event> arrivals;  // the last level's, for the §2 question below
  for (const trace::Level level : levels) {
    auto chain =
        ingest::apply_transforms(ingest::CsvStreamReader::open(file, level), transforms);
    LevelRun lr;
    lr.level = level;
    const auto session = server.open_session();
    KeepArrivals keep(*chain.stream, arrivals);
    ingest::EventStream& feed = level == levels.back() ? keep : *chain.stream;
    lr.run = ingest::run_into(feed, *session, batch_events);
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

  const int rep = !transforms.active()
                      ? trace::representative_rank(file.records_per_rank(levels.front()))
                      : busiest_destination(runs.front().run.report);
  std::printf("  representative process: %d\n\n", rep);
  for (const LevelRun& lr : runs) {
    bench::print_level_report(lr.level, lr.run.report, rep, lr.nranks, shards);
    std::printf("  read in %zu batches\n", lr.run.batches);
    if (!lr.window_summary.empty()) {
      std::printf("  %s\n", lr.window_summary.c_str());
    }
    if (!lr.remap_summary.empty()) {
      std::printf("  remap %s\n", lr.remap_summary.c_str());
    }
  }

  // The §2 runtime question — what would the adaptive library have done?
  // Asked of the last level's transformed arrivals (physical, the level
  // the live loop feeds on, when the format records it), kept while that
  // level fed its session: no second parse.
  adaptive::RuntimeConfig rt;
  rt.service.engine.predictor = arg.name;
  rt.service.engine.shards = shards;
  const ingest::AdaptiveReplay replay =
      ingest::replay_adaptive(arrivals, rt, telem_flags.any() ? &telem : nullptr);
  // A remap that dropped every event reports 0 ranks; clamp so the static
  // per-peer baseline stays non-negative.
  const int nranks = std::max(1, runs.back().nranks);
  std::printf("\n§2 receive buffers over %zu %s-level arrivals (%d ranks):\n", arrivals.size(),
              std::string(to_string(runs.back().level)).c_str(), nranks);
  print_buffer_comparison(arrivals, nranks, replay);
  std::printf("adaptive replay: %s\n", replay.summary().c_str());
  if (telem_flags.any()) {
    bench::write_telemetry(telem_flags, telem);
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
