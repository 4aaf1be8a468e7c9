#include "ingest/source.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>
#include <iterator>
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

std::vector<trace::Level> TraceDialect::levels() const {
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
  trace::RecordMerge merge(store_, level);
  std::vector<TimedEvent> timed;
  timed.reserve(merge.size());
  merge.drain([&timed](std::int32_t receiver, const trace::Record& rec) {
    timed.push_back({.time = rec.time,
                     .event = {.source = rec.sender,
                               .destination = receiver,
                               .tag = static_cast<std::int32_t>(rec.kind),
                               .bytes = rec.bytes}});
  });
  return std::make_unique<VectorEventStream>(std::move(timed), /*time_ordered=*/true);
}

namespace csv_line {

FileSource::FileSource(const std::string& path)
    : ByteSource(path), fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK)) {
  if (fd_ < 0) {
    throw IngestError({.file = path, .line = 0, .field = {}, .reason = "cannot open for reading"});
  }
  struct stat st {};
  if (::fstat(fd_, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd_);
    throw IngestError({.file = path, .line = 0, .field = {}, .reason = "not a regular file"});
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
}

FileSource::~FileSource() { ::close(fd_); }

void FileSource::read_exact(char* dst, std::size_t n, std::uint64_t offset,
                            std::size_t line) const {
  while (n > 0) {
    const ssize_t got = ::pread(fd_, dst, n, static_cast<off_t>(offset));
    if (got > 0) {
      dst += got;
      n -= static_cast<std::size_t>(got);
      offset += static_cast<std::uint64_t>(got);
      continue;
    }
    if (got < 0 && errno == EINTR) {
      continue;
    }
    throw IngestError(
        {.file = name(),
         .line = line,
         .field = {},
         .reason = got == 0 ? "file ended at byte " + std::to_string(offset) +
                                  ", short of the size open() measured: it changed while read"
                            : std::string("read failed: ") + std::strerror(errno)});
  }
}

}  // namespace csv_line

CsvTraceSource read_trace(const csv_line::ByteSource& bytes) {
  // Every line is validated before the store is built, so the rank count
  // can be inferred when the file does not declare it.
  std::vector<csv_line::Row> rows;
  const csv_line::Layout layout =
      csv_line::scan(bytes, [&rows](const auto&, const csv_line::Row& row, auto...) {
        rows.push_back(row);
      });
  trace::TraceStore store(layout.nranks);
  for (const csv_line::Row& row : rows) {
    store.append(row.rank, row.level, row.rec);
  }
  return {layout.header.dialect == csv_line::Dialect::Flat, std::move(store)};
}

CsvTraceSource open_trace(const std::string& path) {
  return read_trace(csv_line::FileSource(path));
}

CsvTraceSource open_trace_stream(std::istream& is, const std::string& label) {
  return read_trace(
      csv_line::TextSource(std::string(std::istreambuf_iterator<char>(is), {}), label));
}

}  // namespace mpipred::ingest
