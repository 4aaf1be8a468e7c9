#pragma once

// The reproducibility gates at the ingest boundary:
//
//  * verify_csv_round_trip — a trace exported with trace::write_csv and
//    re-ingested through the CSV source must drive the prediction engine
//    to a byte-identical EngineReport, for every level, at every requested
//    shard count, through the materialized AND the streamed feed path at
//    every gate batch size (streamed == materialized == simulated).
//  * verify_streamed_replay — a pull-based stream (file-backed reader,
//    transform chain) replayed through run_into on a fresh engine must
//    match the report over its materialized reference at every shard
//    count × batch size point.
//  * verify_streamed_source — the same per level of a (possibly
//    transformed) input file: file-backed streamed reads against the
//    materialized source.
//
// These are the tier-1 oracle (ingest_test, serve_test): the tests run
// them over simulator-shaped traces in both dialects, with and without
// transforms, so the `--trace` tools replay without re-checking, and
// replayed numbers can never silently drift from simulated ones.
//
// Gates are comparison-based by design: they materialize one reference
// copy of the (transformed) stream and re-read the file once per
// shard × batch point, trading memory and wall time for certainty. The
// bounded-memory property belongs to the replay pass itself
// (run_into over CsvStreamReader), not to the gates that audit it.

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "engine/engine.hpp"
#include "ingest/streaming.hpp"
#include "ingest/transform.hpp"
#include "trace/store.hpp"

namespace mpipred::ingest {

class CsvTraceSource;

/// Batch sizes every streamed gate sweeps (0 = unbounded, one batch).
inline constexpr std::size_t kGateBatchEvents[] = {64, 4096, 0};

struct RoundTripResult {
  bool ok = true;
  /// First mismatch (level, shard count, what differed); empty when ok.
  std::string detail;
};

/// Exports `store` as CSV in memory, re-ingests it, and compares the
/// engine report over the ingested events against the report over the
/// store's own events — per level, at every shard count in
/// `shard_counts` (the first entry computes the reference), then repeats
/// the comparison through the streamed batch path at every
/// kGateBatchEvents size.
[[nodiscard]] RoundTripResult verify_csv_round_trip(const trace::TraceStore& store,
                                                    const engine::EngineConfig& cfg,
                                                    std::span<const std::size_t> shard_counts);

/// Produces a fresh stream of the same events on every call (streams are
/// single-use; every gate point replays from the start).
using StreamFactory = std::function<std::unique_ptr<EventStream>()>;

/// The streamed == materialized gate: for every shard count × batch size,
/// run_into of make_stream() on a fresh engine must produce a report
/// byte-identical to observe_all over `reference` at shard_counts.front().
[[nodiscard]] RoundTripResult verify_streamed_replay(const StreamFactory& make_stream,
                                                     std::span<const engine::Event> reference,
                                                     const engine::EngineConfig& cfg,
                                                     std::span<const std::size_t> shard_counts,
                                                     std::span<const std::size_t> batch_sizes);

/// For each level of `source` (parsed from `path`), the file-backed
/// streamed path the `--trace` tools take (open_event_stream + `spec`
/// transforms) must match the materialized reference
/// (source.stream_events + the same transforms) across `shard_counts` ×
/// kGateBatchEvents.
[[nodiscard]] RoundTripResult verify_streamed_source(const std::string& path,
                                                     const CsvTraceSource& source,
                                                     const TransformSpec& spec,
                                                     const engine::EngineConfig& cfg,
                                                     std::span<const std::size_t> shard_counts);

}  // namespace mpipred::ingest
