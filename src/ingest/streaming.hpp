#pragma once

// The streaming half of the ingest boundary: traces bigger than RAM reach
// the prediction engine as pulled batches instead of one materialized
// vector. An EventStream yields time-ordered TimedEvents a batch at a
// time; CsvTraceFile opens, validates and indexes a file in one scan, and
// CsvStreamReader implements the stream over it, one level at a time
// (bounded memory — it never holds more than one batch plus a per-section
// lookahead and read window); run_into drives an engine's or session's
// observe_batches so the parse of batch N+1 overlaps the shard drain of
// batch N. Batch
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
#include "ingest/source.hpp"
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
/// contract (what CsvTraceSource::stream_events returns, and the base of
/// the materialized reference side of every gate).
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

/// One CSV trace file, opened once and validated and indexed by one scan
/// that retains no event: the header and rank count, every section (a
/// contiguous run of data lines with one (rank, level)) of both levels
/// with each level's time layout, and the records per rank. It answers
/// what the `--trace` tools report about a file, and CsvStreamReader::open
/// streams any of its levels over the same descriptor without scanning
/// the file again. Copies share the file.
class CsvTraceFile : public TraceDialect {
 public:
  struct Index;  // streaming.cpp: what open() learned
  /// Throws IngestError on a file that cannot be opened or is not a
  /// regular file (checked before any read, so a FIFO never blocks), an
  /// unknown header, or malformed content.
  [[nodiscard]] static CsvTraceFile open(const std::string& path);

  /// Ranks covered: declared by the file, or inferred as max rank + 1.
  [[nodiscard]] int nranks() const noexcept;

  /// Data lines received by each rank at `level`, nranks() entries
  /// (unresolved senders included): the counts the materialized store
  /// holds, and trace::representative_rank's input.
  [[nodiscard]] std::vector<std::size_t> records_per_rank(trace::Level level) const;

 private:
  friend class CsvStreamReader;
  explicit CsvTraceFile(std::shared_ptr<const Index> index);

  std::shared_ptr<const Index> index_;
};

/// Incremental reader over a CSV trace file: parses on demand instead of
/// materializing, holding at most one lookahead record per file section
/// (native dialect) or one timestamp-tie group (flat dialect) beyond the
/// batch being filled. The emitted order is exactly the materialized order
/// — `events_from_trace` over the parsed store: stable by time, ties in
/// rank-major record order, unresolved senders dropped.
///
/// Lines are read through one csv_line::LineCutter per native section
/// (one over the data for the flat dialect), each with its own window of
/// kSectionWindowBytes that it refills by pread at its own offset, never
/// past its section's end: the merge moving between sections costs no
/// seek. A window grows only for a single line longer than itself and is
/// freed when its section ends. A read that ends early or fails before a
/// section's end — the file changed after it was opened — throws
/// IngestError with the file and line.
///
/// Layouts the merge cannot stream — a flat file whose timestamps
/// decrease, a native section with non-monotone times, or more sections
/// than kMaxStreamSections — fall back to materializing through the open
/// descriptor (still correct, reported by streaming() == false). Every
/// line was validated when the file was opened (CsvTraceFile::open), so a
/// malformed file is rejected up front with the usual file:line
/// diagnostic; each pull decodes a data line through the one row decoder,
/// csv_line::parse_row.
class CsvStreamReader final : public EventStream {
 public:
  /// Section-count ceiling for the native K-way merge (each section costs
  /// one cursor, its read window, and one lookahead record). write_csv
  /// emits nranks*2; a file interleaving ranks per line would degenerate
  /// to one section per line and is materialized instead.
  static constexpr std::size_t kMaxStreamSections = 1 << 16;

  /// Read window of each section's line cutter (smaller when the section
  /// is).
  static constexpr std::size_t kSectionWindowBytes = 4096;

  /// Opens and indexes the file at `path`, then streams `level` of it.
  [[nodiscard]] static std::unique_ptr<CsvStreamReader> open(const std::string& path,
                                                             trace::Level level);
  /// Streams `level` of an already indexed file, with no second scan.
  [[nodiscard]] static std::unique_ptr<CsvStreamReader> open(const CsvTraceFile& file,
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

 private:
  struct Impl;
  explicit CsvStreamReader(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Opens the CSV trace at `path` as an incremental stream of one level's
/// events (a CsvStreamReader). Throws IngestError on a file that cannot
/// be opened or is not a regular file, an unknown header, or malformed
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
