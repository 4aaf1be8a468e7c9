// External traces through the whole stack: open any supported trace file
// (run `trace_export` or `predict_nas --export-trace` to make one, or
// bring a `time_ns,sender,receiver,bytes[,kind]` flat CSV from a real
// capture tool), replay it through the resident prediction service — one
// PredictionServer, one session per trace level, each file parsed in
// pulled batches that overlap the shard drain — and drive the adaptive
// runtime's decision layer over the arrival stream; no simulator
// involved. `--window` slices a capture-time range and `--remap-ranks`
// folds/subsets the rank space before anything else sees the events. Ends
// with the determinism gates: the adaptive replay and the engine reports
// must match across shard counts {1,2,4}, batch sizes {64,4096,unbounded},
// and a write_csv round trip; exits 2 on any mismatch. That a session
// reports exactly what a standalone engine would is pinned in serve_test,
// not re-checked here.
//
// `--emit-metrics <file>` writes the final metrics snapshot (serve.*,
// engine.feed.* per tenant, adaptive.policy.*) as JSON;
// `--emit-trace-events <file>` records the adaptive replay's per-event
// decisions as Chrome trace-event instants stamped with event ordinals (an
// ingested file has no simulated clock). Either flag arms a telemetry gate:
// the instrumented adaptive replay must reproduce the un-instrumented
// sweep's summary byte for byte, or the tool exits 2.
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
#include "ingest/source.hpp"
#include "ingest/streaming.hpp"
#include "ingest/transform.hpp"
#include "ingest/verify.hpp"
#include "serve/server.hpp"

namespace {

/// Tees every pulled batch into a sink, so the adaptive replay below
/// reuses the last level's transformed events instead of re-parsing the
/// whole file a second time.
class TeeStream final : public mpipred::ingest::EventStream {
 public:
  TeeStream(std::unique_ptr<mpipred::ingest::EventStream> inner,
            std::vector<mpipred::ingest::TimedEvent>& sink)
      : inner_(std::move(inner)), sink_(&sink) {}

  std::size_t next_batch(std::size_t max_events,
                         std::vector<mpipred::ingest::TimedEvent>& out) override {
    const std::size_t before = out.size();
    const std::size_t got = inner_->next_batch(max_events, out);
    sink_->insert(sink_->end(), out.begin() + static_cast<std::ptrdiff_t>(before), out.end());
    return got;
  }
  [[nodiscard]] bool time_ordered() const noexcept override { return inner_->time_ordered(); }

 private:
  std::unique_ptr<mpipred::ingest::EventStream> inner_;
  std::vector<mpipred::ingest::TimedEvent>* sink_;
};

/// +1 accuracy as a percentage; 0 when the stream was empty (an empty
/// window or keep set must degrade to a zero report, not an abort).
double pct_at_one(const mpipred::core::AccuracyReport& report) {
  return report.max_horizon() == 0 ? 0.0 : 100.0 * report.at(1).accuracy();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mpipred;
  auto arg = engine::predictor_arg_or_exit(argc, argv);
  const std::size_t shards = bench::shards_flag(arg.rest);
  const bench::TraceFlags flags = bench::trace_flags_or_exit(arg.rest);
  const bench::TelemetryFlags telem_flags = bench::telemetry_flags(arg.rest);
  if (!arg.rest.empty()) {
    std::fprintf(stderr, "unexpected argument '%s'\n", arg.rest.front().c_str());
    return 1;
  }
  if (flags.path.empty()) {
    std::fprintf(stderr,
                 "usage: replay_trace --trace <file> [--predictor <name>] [--shards <n>]\n"
                 "                    [--batch-events <n>] [--window <t0>:<t1>]\n"
                 "                    [--remap-ranks <spec>] [--emit-metrics <file>]\n"
                 "                    [--emit-trace-events <file>]\n");
    return 1;
  }

  const auto source = bench::open_trace_or_exit(flags.path);
  const engine::EngineConfig cfg{.predictor = arg.name, .shards = shards};

  // Registry + (ordinal-clocked) trace sink behind the `--emit-*` flags.
  // The serve sessions report into the registry; the gate engines stay
  // metrics-free.
  telemetry::Telemetry telem;
  if (!telem_flags.trace_path.empty()) {
    telem.enable_tracing();
  }
  engine::EngineConfig server_cfg = cfg;
  if (telem_flags.any()) {
    server_cfg.metrics = &telem.metrics();
  }
  std::printf("%s: format %s, %d ranks, predictor %s, batch %zu events\n", flags.path.c_str(),
              std::string(source->format()).c_str(), source->nranks(), arg.name.c_str(),
              flags.batch_events);

  // The paper's accuracy question, answered from the file alone through
  // the resident service: one PredictionServer, one isolated session per
  // trace level, each fed by the incremental reader in batches (parse of
  // batch N+1 overlapped with the drain of batch N). The last level's
  // transformed arrivals double as the adaptive replay's input below
  // (physical, when the format records it).
  serve::PredictionServer server({.engine = server_cfg});
  std::vector<engine::Event> arrivals;
  try {
    std::vector<ingest::TimedEvent> last_level_events;
    for (const trace::Level level : source->levels()) {
      auto chain = ingest::apply_transforms(ingest::open_event_stream(flags.path, level),
                                            flags.transforms);
      std::unique_ptr<ingest::EventStream> stream = std::move(chain.stream);
      if (level == source->levels().back()) {
        stream = std::make_unique<TeeStream>(std::move(stream), last_level_events);
      }
      const auto session = server.open_session();
      const ingest::StreamedRun run = ingest::run_into(*stream, *session, flags.batch_events);
      std::printf("%s level: %lld messages over %zu streams in %zu batches, +1 accuracy "
                  "senders %.1f%% / sizes %.1f%%\n",
                  std::string(to_string(level)).c_str(), static_cast<long long>(run.events),
                  run.report.streams.size(), run.batches,
                  pct_at_one(run.report.aggregate_senders),
                  pct_at_one(run.report.aggregate_sizes));
      if (chain.window != nullptr) {
        std::printf("  %s\n", chain.window->summary().c_str());
      }
      if (chain.remap != nullptr) {
        std::printf("  remap %s: %s\n", chain.remap->config().to_string().c_str(),
                    chain.remap->report().summary().c_str());
      }
    }
    arrivals = ingest::strip_times(last_level_events);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  // The §2 runtime question — what would the adaptive library have done?
  // — swept across shard counts (the first determinism gate).
  const auto sweep = bench::gate_shard_sweep(shards);
  adaptive::RuntimeConfig rt;
  rt.service.engine.predictor = arg.name;
  const auto swept = ingest::replay_adaptive_swept(arrivals, rt, sweep);
  std::printf("adaptive replay: %s\n", swept.replay.summary().c_str());
  if (!swept.deterministic) {
    std::fprintf(stderr, "adaptive replay differs at %s\n", swept.mismatch.c_str());
    return 2;
  }
  if (telem_flags.any()) {
    // Telemetry on/off gate: the instrumented replay (metrics registry
    // wired in, decision instants recorded) must reproduce the
    // un-instrumented sweep's summary byte for byte.
    const ingest::AdaptiveReplay instrumented = ingest::replay_adaptive(arrivals, rt, &telem);
    if (instrumented.summary() != swept.replay.summary()) {
      std::fprintf(stderr, "telemetry gate FAILED: instrumented replay differs\n  ref : %s\n"
                           "  got : %s\n",
                   swept.replay.summary().c_str(), instrumented.summary().c_str());
      return 2;
    }
  }
  const auto streamed =
      ingest::verify_streamed_source(flags.path, *source, flags.transforms, cfg, sweep);
  if (!streamed.ok) {
    std::fprintf(stderr, "streamed-ingest gate FAILED: %s\n", streamed.detail.c_str());
    return 2;
  }
  if (const trace::TraceStore* store = source->store()) {
    const auto gate = ingest::verify_csv_round_trip(*store, cfg, sweep);
    if (!gate.ok) {
      std::fprintf(stderr, "round-trip gate FAILED: %s\n", gate.detail.c_str());
      return 2;
    }
  }
  std::printf("gates: adaptive replay and engine reports byte-identical across shards {1,2,4}, "
              "batch sizes {64,4096,unbounded}, and a write_csv round trip\n");
  if (telem_flags.any()) {
    bench::write_telemetry_or_exit(telem_flags, telem);
    std::printf("telemetry gate: ok (instrumented replay identical)");
    if (!telem_flags.metrics_path.empty()) {
      std::printf("; metrics -> %s", telem_flags.metrics_path.c_str());
    }
    if (!telem_flags.trace_path.empty()) {
      std::printf("; trace events -> %s", telem_flags.trace_path.c_str());
    }
    std::printf("\n");
  }
  return 0;
}
