#pragma once

// The streaming half of the ingest boundary: traces bigger than RAM reach
// the prediction engine as pulled batches instead of one materialized
// vector. An EventStream yields time-ordered TimedEvents a batch at a
// time; CsvStreamReader implements it directly over a file (bounded
// memory — it never holds more than one batch plus a per-section
// lookahead); run_into drives an engine's or session's observe_batches so
// the parse of batch N+1 overlaps the shard drain of batch N. Batch
// boundaries never change any stream's event order, so engine reports are
// byte-identical across batch sizes and shard counts — the gates in
// ingest/verify.hpp pin streamed == materialized == simulated.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "sim/time.hpp"
#include "trace/event.hpp"

namespace mpipred::ingest {

/// Default events per pulled batch of the streamed ingest path (the
/// `--batch-events` fallback in every `--trace` consumer).
inline constexpr std::size_t kDefaultBatchEvents = 8192;

/// One engine event with the capture timestamp still attached. The engine
/// itself is time-blind; the timestamp exists for the transforms
/// (TimeWindowSource slices on it) and is dropped at the feed boundary.
struct TimedEvent {
  sim::SimTime time{0};
  engine::Event event{};

  [[nodiscard]] bool operator==(const TimedEvent&) const = default;
};

/// Pull-based event stream: the contract every streamed ingest producer —
/// file readers, transforms, in-memory adapters — implements.
class EventStream {
 public:
  virtual ~EventStream() = default;

  /// Appends up to `max_events` events, in stream order, to `out` and
  /// returns the number appended. Returning 0 means the stream is
  /// exhausted; a stream must never return 0 while events remain (filters
  /// keep pulling their inner stream until they can yield or it ends).
  virtual std::size_t next_batch(std::size_t max_events, std::vector<TimedEvent>& out) = 0;

  /// True when timestamps are guaranteed non-decreasing across the whole
  /// stream — transforms use this to stop early at a window's end.
  [[nodiscard]] virtual bool time_ordered() const noexcept { return false; }
};

/// In-memory adapter: serves a materialized vector through the batch
/// contract (the default TraceSource::stream_events implementation, and
/// the base of the materialized reference side of every gate).
class VectorEventStream final : public EventStream {
 public:
  explicit VectorEventStream(std::vector<TimedEvent> events, bool time_ordered = false)
      : events_(std::move(events)), time_ordered_(time_ordered) {}

  std::size_t next_batch(std::size_t max_events, std::vector<TimedEvent>& out) override;
  [[nodiscard]] bool time_ordered() const noexcept override { return time_ordered_; }

 private:
  std::vector<TimedEvent> events_;
  std::size_t next_ = 0;
  bool time_ordered_ = false;
};

/// Drains `stream` to the end, pulling `batch_events` at a time (0 =
/// unbounded, one pull) — tests, and consumers like the adaptive replay
/// that need the whole arrival sequence in memory anyway.
[[nodiscard]] std::vector<TimedEvent> drain(EventStream& stream,
                                            std::size_t batch_events = kDefaultBatchEvents);

/// The engine's view of a timed batch: timestamps dropped, order kept.
[[nodiscard]] std::vector<engine::Event> strip_times(const std::vector<TimedEvent>& events);

/// Incremental reader over a CSV trace file: parses on demand instead of
/// materializing, holding at most one lookahead record per file section
/// (native dialect; a section is a contiguous run of one (rank, level))
/// or one timestamp-tie group (flat dialect) beyond the batch being
/// filled. The emitted order is exactly the materialized order —
/// `events_from_trace` over the parsed store: stable by time, ties in
/// rank-major record order, unresolved senders dropped.
///
/// Layouts the merge cannot stream — a flat file whose timestamps
/// decrease, a native section with non-monotone times, or more sections
/// than kMaxStreamSections — fall back to materializing (still correct,
/// reported by streaming() == false). open() fully validates every line
/// (one scan, same grammar as CsvTraceSource::parse) without retaining
/// events, so a malformed file is rejected up front with the usual
/// file:line diagnostic.
class CsvStreamReader final : public EventStream {
 public:
  /// Section-count ceiling for the native K-way merge (each section costs
  /// one cursor + one lookahead record). write_csv emits nranks*2; a file
  /// interleaving ranks per line would degenerate to one section per line
  /// and is materialized instead.
  static constexpr std::size_t kMaxStreamSections = 1 << 16;

  [[nodiscard]] static std::unique_ptr<CsvStreamReader> open(const std::string& path,
                                                             trace::Level level);
  ~CsvStreamReader() override;

  std::size_t next_batch(std::size_t max_events, std::vector<TimedEvent>& out) override;
  [[nodiscard]] bool time_ordered() const noexcept override { return true; }

  /// False when the file's layout forced the materialized fallback.
  [[nodiscard]] bool streaming() const noexcept;

  /// High-water mark of parsed records resident inside the reader (cursor
  /// lookaheads + pending tie groups; the whole trace when !streaming()).
  /// The bounded-memory property ingest_test pins: while streaming(), this
  /// never exceeds the per-section lookahead plus one tie group,
  /// independent of the trace length.
  [[nodiscard]] std::size_t peak_buffered_events() const noexcept;

  /// Ranks covered: declared by the file, or inferred as max rank + 1.
  [[nodiscard]] int nranks() const noexcept;

 private:
  struct Impl;
  explicit CsvStreamReader(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Opens `path` through the format registry as an incremental stream of
/// one level's events: formats registering an `open_stream` hook (the CSV
/// dialects do) parse on demand; others are materialized and adapted.
/// Throws IngestError on an unreadable file, unknown format, or malformed
/// content.
[[nodiscard]] std::unique_ptr<EventStream> open_event_stream(const std::string& path,
                                                             trace::Level level);

/// Accounting of one streamed engine pass.
struct StreamedRun {
  engine::EngineReport report;
  std::int64_t events = 0;
  std::size_t batches = 0;
};

/// Drives any batched-feed target over `stream`: pulls `batch_events` at
/// a time (0 = unbounded, one pull) and pushes each batch through
/// `target.observe_batches`, which overlaps the production (parse) of
/// batch N+1 with the drain of batch N. `Target` is anything exposing the
/// engine's batched verb pair — `observe_batches(BatchProducer)` and
/// `report()` — so the same driver serves a standalone PredictionEngine
/// and a serve::Session; the two produce byte-identical reports
/// (serve_test pins this for every predictor and gate batch size).
template <typename Target>
StreamedRun run_into(EventStream& stream, Target& target,
                     std::size_t batch_events = kDefaultBatchEvents) {
  StreamedRun out;
  const std::size_t limit =
      batch_events == 0 ? std::numeric_limits<std::size_t>::max() : batch_events;
  std::vector<TimedEvent> timed;
  target.observe_batches([&](std::vector<engine::Event>& batch) {
    timed.clear();
    (void)stream.next_batch(limit, timed);
    batch.reserve(timed.size());
    for (const TimedEvent& te : timed) {
      batch.push_back(te.event);
    }
    if (!timed.empty()) {
      ++out.batches;
      out.events += static_cast<std::int64_t>(timed.size());
    }
  });
  out.report = target.report();
  return out;
}

}  // namespace mpipred::ingest
