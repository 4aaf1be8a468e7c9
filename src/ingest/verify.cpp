#include "ingest/verify.hpp"

#include <optional>
#include <sstream>
#include <vector>

#include "ingest/source.hpp"
#include "trace/csv.hpp"

namespace mpipred::ingest {

namespace {

engine::EngineReport report_over(std::span<const engine::Event> events,
                                 const engine::EngineConfig& cfg, std::size_t shards) {
  engine::EngineConfig run = cfg;
  run.shards = shards;
  engine::PredictionEngine eng(run);
  eng.observe_all(events);
  return eng.report();
}

}  // namespace

RoundTripResult verify_csv_round_trip(const trace::TraceStore& store,
                                      const engine::EngineConfig& cfg,
                                      std::span<const std::size_t> shard_counts) {
  if (shard_counts.empty()) {
    return {.ok = false, .detail = "no shard counts requested"};
  }
  std::stringstream csv;
  trace::write_csv(csv, store);
  std::optional<CsvTraceSource> source;
  try {
    source.emplace(open_trace_stream(csv, "<round-trip>"));
  } catch (const IngestError& e) {
    return {.ok = false, .detail = std::string("re-ingest failed: ") + e.what()};
  }
  for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
    const std::string label = std::string(trace::to_string(level));
    const auto direct = engine::events_from_trace(store, level);
    const auto ingested = source->events(level);
    if (direct != ingested) {
      return {.ok = false,
              .detail = label + " level: ingested event stream differs from the store's (" +
                        std::to_string(ingested.size()) + " vs " + std::to_string(direct.size()) +
                        " events)"};
    }
    const auto reference = report_over(direct, cfg, shard_counts.front());
    for (const std::size_t shards : shard_counts) {
      if (report_over(ingested, cfg, shards) != reference) {
        return {.ok = false,
                .detail = label + " level: report over ingested events at shards=" +
                          std::to_string(shards) + " differs from the direct report (predictor " +
                          cfg.predictor + ")"};
      }
    }
    // The same equality through the streamed batch path: pulled batches of
    // the re-ingested source must drive the engine to the identical report
    // at every gate batch size (streamed == materialized == simulated).
    const auto streamed = verify_streamed_replay(
        [&source, level] { return source->stream_events(level); }, direct, cfg, shard_counts,
        kGateBatchEvents);
    if (!streamed.ok) {
      return {.ok = false, .detail = label + " level: " + streamed.detail};
    }
  }
  return {};
}

RoundTripResult verify_streamed_replay(const StreamFactory& make_stream,
                                       std::span<const engine::Event> reference,
                                       const engine::EngineConfig& cfg,
                                       std::span<const std::size_t> shard_counts,
                                       std::span<const std::size_t> batch_sizes) {
  if (shard_counts.empty() || batch_sizes.empty()) {
    return {.ok = false, .detail = "no shard counts or batch sizes requested"};
  }
  const auto reference_report = report_over(reference, cfg, shard_counts.front());
  for (const std::size_t shards : shard_counts) {
    for (const std::size_t batch : batch_sizes) {
      engine::EngineConfig run = cfg;
      run.shards = shards;
      engine::PredictionEngine eng(run);
      const auto stream = make_stream();
      const StreamedRun got = run_into(*stream, eng, batch);
      if (got.report != reference_report) {
        return {.ok = false,
                .detail = "streamed report at shards=" + std::to_string(shards) +
                          " batch-events=" + std::to_string(batch) +
                          " differs from the materialized report (" + std::to_string(got.events) +
                          " events streamed, predictor " + cfg.predictor + ")"};
      }
    }
  }
  return {};
}

RoundTripResult verify_streamed_source(const std::string& path, const CsvTraceSource& source,
                                       const TransformSpec& spec, const engine::EngineConfig& cfg,
                                       std::span<const std::size_t> shard_counts) {
  for (const trace::Level level : source.levels()) {
    // Materialized reference: the source's own events through the same
    // transform chain, applied eagerly.
    auto reference_chain = apply_transforms(source.stream_events(level), spec);
    const auto reference = strip_times(drain(*reference_chain.stream));
    const auto gate = verify_streamed_replay(
        [&path, &spec, level] {
          return apply_transforms(open_event_stream(path, level), spec).stream;
        },
        reference, cfg, shard_counts, kGateBatchEvents);
    if (!gate.ok) {
      return {.ok = false,
              .detail = std::string(trace::to_string(level)) + " level: " + gate.detail};
    }
  }
  return {};
}

}  // namespace mpipred::ingest
