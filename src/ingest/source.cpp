#include "ingest/source.hpp"

#include <fstream>
#include <istream>
#include <utility>

#include "engine/engine.hpp"
#include "ingest/csv_line.hpp"
#include "ingest/streaming.hpp"
#include "trace/merge.hpp"

namespace mpipred::ingest {

std::string to_string(const Diagnostic& d) {
  std::string out = d.file;
  if (d.line != 0) {
    out += ':';
    out += std::to_string(d.line);
  }
  out += ": ";
  if (!d.field.empty()) {
    out += "field '";
    out += d.field;
    out += "': ";
  }
  out += d.reason;
  return out;
}

std::vector<trace::Level> CsvTraceSource::levels() const {
  if (flat_) {
    return {trace::Level::Physical};
  }
  return {trace::Level::Logical, trace::Level::Physical};
}

// A flat file's store holds Physical records only, so its Logical level
// reads empty in both views below without a dialect check.
std::vector<engine::Event> CsvTraceSource::events(trace::Level level) const {
  return engine::events_from_trace(store_, level);
}

std::unique_ptr<EventStream> CsvTraceSource::stream_events(trace::Level level) const {
  const auto merged = trace::merged_records(store_, level);
  std::vector<TimedEvent> timed;
  timed.reserve(merged.size());
  for (const trace::MergedRecord& rec : merged) {
    timed.push_back({.time = rec.time,
                     .event = {.source = rec.sender,
                               .destination = rec.receiver,
                               .tag = static_cast<std::int32_t>(rec.kind),
                               .bytes = rec.bytes}});
  }
  return std::make_unique<VectorEventStream>(std::move(timed), /*time_ordered=*/true);
}

CsvTraceSource open_trace(const std::string& path) {
  std::ifstream is = csv_line::open_file(path);
  return open_trace_stream(is, path);
}

CsvTraceSource open_trace_stream(std::istream& is, const std::string& label) {
  // Every line is validated before the store is built, so the rank count
  // can be inferred when the file does not declare it.
  std::vector<csv_line::Row> rows;
  const csv_line::Layout layout =
      csv_line::scan(is, label, [&rows](const auto&, const csv_line::Row& row, auto...) {
        rows.push_back(row);
      });
  trace::TraceStore store(layout.nranks);
  for (const csv_line::Row& row : rows) {
    store.append(row.rank, row.level, row.rec);
  }
  return {layout.header.dialect == csv_line::Dialect::Flat, std::move(store)};
}

}  // namespace mpipred::ingest
