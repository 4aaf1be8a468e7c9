#pragma once

// Trace ingestion: the boundary where externally captured traces become
// the time-ordered engine::Event streams every consumer of this repo
// understands. Two CSV dialects are accepted:
//
//  * native — `rank,level,time_ns,sender,bytes,kind,op`: the schema
//    trace::write_csv emits, one line per (receiver rank, level) record.
//  * flat   — `time_ns,sender,receiver,bytes[,kind]`: one line per
//    delivered message, the shape external capture tools typically log.
//    Lines need not be time-sorted; ingestion orders them. Flat traces
//    carry arrival data only, so they expose just the Physical level.
//
// Both dialects accept `#` comment lines anywhere and, before the header,
// `# key: value` directives: `# mpipred-trace: v1` (schema version; other
// versions are rejected) and `# nranks: N` (declares the rank count, which
// is otherwise inferred as max observed rank + 1). Lines may end in CRLF.
// Every rejected line raises IngestError with file:line, the offending
// field, and the reason — never an assert. The header line alone decides
// the dialect; the bounded-memory readers over a file are
// ingest::CsvTraceFile and ingest::open_event_stream (streaming.hpp).

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "engine/config.hpp"
#include "trace/event.hpp"
#include "trace/store.hpp"

namespace mpipred::ingest {

class EventStream;  // streaming.hpp: pull-based batch contract
namespace csv_line {
class ByteSource;  // csv_line.hpp: the open file or an in-memory text
}  // namespace csv_line

/// One parse problem, pinned to its location: unlike the simulator-side
/// readers (which may assert — their input is our own output), ingestion
/// faces hostile files and must say exactly where and why a line was
/// rejected.
struct Diagnostic {
  /// Path of the offending file, or a "<label>" for in-memory streams.
  std::string file;
  /// 1-based line number; 0 for whole-file problems (missing header, ...).
  std::size_t line = 0;
  /// Name of the offending field ("sender", "op", ...); empty when the
  /// problem is the whole line or file.
  std::string field;
  std::string reason;
};

/// "file:12: field 'op': value 99 outside [0, 12)" — file:line first, so
/// editors and CI logs can jump to the offending input line.
[[nodiscard]] std::string to_string(const Diagnostic& d);

/// Raised on any malformed ingest input; carries the structured location
/// so callers can report or collect diagnostics instead of string-parsing
/// what().
class IngestError : public Error {
 public:
  explicit IngestError(Diagnostic d) : Error(to_string(d)), diag_(std::move(d)) {}

  [[nodiscard]] const Diagnostic& where() const noexcept { return diag_; }

 private:
  Diagnostic diag_;
};

/// What a trace's header line decided, for the materialized source and
/// the indexed file (streaming.hpp's CsvTraceFile) alike.
class TraceDialect {
 public:
  /// "csv" (native dialect) or "csv-flat".
  [[nodiscard]] std::string_view format() const noexcept { return flat_ ? "csv-flat" : "csv"; }

  /// Instrumentation levels the dialect carries, in enum order: both for
  /// native files, just Physical for flat ones.
  [[nodiscard]] std::vector<trace::Level> levels() const;

 protected:
  explicit TraceDialect(bool flat) : flat_(flat) {}

 private:
  bool flat_;
};

/// One fully ingested CSV trace. All parsing and validation happen at open
/// time — a constructed source can no longer fail, and its accessors are
/// cheap.
class CsvTraceSource final : public TraceDialect {
 public:
  /// Ranks covered: declared by the file, or inferred as max rank + 1.
  [[nodiscard]] int nranks() const noexcept { return store_.nranks(); }

  /// The trace of `level` as a time-ordered global event stream (a stable
  /// merge of the per-rank record streams, so ties keep rank-major order —
  /// the same order a live simulator trace produces), exactly what
  /// engine::PredictionEngine::observe_all and the adaptive replays
  /// consume. Levels outside levels() yield empty.
  [[nodiscard]] std::vector<engine::Event> events(trace::Level level) const;

  /// The same stream events(level) returns, timestamps attached, behind
  /// the pull-based batch contract (each call yields a fresh,
  /// self-contained stream), so the materialized trace composes with the
  /// streaming transforms.
  [[nodiscard]] std::unique_ptr<EventStream> stream_events(trace::Level level) const;

  /// The parsed per-rank records; the round-trip gate re-exports them
  /// through trace::write_csv.
  [[nodiscard]] const trace::TraceStore& store() const noexcept { return store_; }

 private:
  friend CsvTraceSource read_trace(const csv_line::ByteSource& bytes);

  CsvTraceSource(bool flat, trace::TraceStore store)
      : TraceDialect(flat), store_(std::move(store)) {}

  trace::TraceStore store_;
};

/// Parses the CSV trace at `path`; throws IngestError on a file that
/// cannot be opened or is not a regular file, an unknown header, or
/// malformed content.
[[nodiscard]] CsvTraceSource open_trace(const std::string& path);

/// Parses a whole CSV stream (dialect detected from the header); throws
/// IngestError on the first malformed line. `label` names the stream in
/// diagnostics.
[[nodiscard]] CsvTraceSource open_trace_stream(std::istream& is, const std::string& label);

/// The one materializing parse behind open_trace, open_trace_stream and
/// the streaming reader's fallback: scans `bytes` and builds the store.
[[nodiscard]] CsvTraceSource read_trace(const csv_line::ByteSource& bytes);

}  // namespace mpipred::ingest
