#include "ingest/streaming.hpp"

#include <algorithm>
#include <deque>
#include <fstream>
#include <limits>
#include <optional>
#include <queue>
#include <tuple>
#include <utility>

#include "ingest/csv_line.hpp"
#include "ingest/csv_source.hpp"
#include "ingest/source.hpp"
#include "trace/csv_util.hpp"

namespace mpipred::ingest {

namespace {

using trace::csv_util::strip_cr;

[[nodiscard]] TimedEvent to_timed(const csv_line::Row& row) {
  return {.time = row.rec.time,
          .event = {.source = row.rec.sender,
                    .destination = row.rank,
                    .tag = static_cast<std::int32_t>(row.rec.kind),
                    .bytes = row.rec.bytes}};
}

}  // namespace

std::size_t VectorEventStream::next_batch(std::size_t max_events, std::vector<TimedEvent>& out) {
  const std::size_t take = std::min(max_events, events_.size() - next_);
  out.insert(out.end(), events_.begin() + static_cast<std::ptrdiff_t>(next_),
             events_.begin() + static_cast<std::ptrdiff_t>(next_ + take));
  next_ += take;
  return take;
}

std::vector<TimedEvent> drain(EventStream& stream, std::size_t batch_events) {
  const std::size_t limit =
      batch_events == 0 ? std::numeric_limits<std::size_t>::max() : batch_events;
  std::vector<TimedEvent> out;
  while (stream.next_batch(limit, out) != 0) {
  }
  return out;
}

std::vector<engine::Event> strip_times(const std::vector<TimedEvent>& events) {
  std::vector<engine::Event> out;
  out.reserve(events.size());
  for (const TimedEvent& te : events) {
    out.push_back(te.event);
  }
  return out;
}

// ---------------------------------------------------------------------------
// CsvStreamReader

struct CsvStreamReader::Impl {
  enum class Mode { NativeMerge, FlatSequential, Materialized, Empty };

  // One contiguous run of data lines with the same (rank, level). `end` is
  // the next section's first data line (or the file size), so a cursor can
  // consume trailing comments without crossing into foreign records.
  struct Section {
    int rank = 0;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::size_t start_line = 0;
  };

  struct SectionCursor {
    std::uint64_t next_offset = 0;
    std::size_t line = 0;  // last line number handed to getline
    TimedEvent lookahead{};
  };

  // Min-heap entry: the merged order is (time, rank, section file order) —
  // exactly the stable-by-time sort over rank-major record concatenation
  // the materialized path produces.
  struct HeapItem {
    std::int64_t time = 0;
    std::int32_t rank = 0;
    std::uint32_t idx = 0;
  };
  struct HeapGreater {
    bool operator()(const HeapItem& a, const HeapItem& b) const noexcept {
      return std::tie(a.time, a.rank, a.idx) > std::tie(b.time, b.rank, b.idx);
    }
  };

  std::string path;
  trace::Level level = trace::Level::Physical;
  csv_line::HeaderInfo header{};
  std::optional<int> declared_nranks;
  int nranks = 1;
  Mode mode = Mode::Empty;

  std::ifstream is;
  std::uint64_t pos = 0;  // byte offset the stream is positioned at
  std::string raw;

  // NativeMerge: one cursor + one parsed lookahead per requested-level section.
  std::vector<Section> sections;
  std::vector<SectionCursor> cursors;
  std::priority_queue<HeapItem, std::vector<HeapItem>, HeapGreater> heap;

  // FlatSequential: a single forward pass plus one timestamp-tie group.
  std::uint64_t data_start = 0;
  std::size_t data_start_line = 0;
  bool file_done = false;
  std::int64_t tie_time = 0;
  std::vector<TimedEvent> tie_group;
  std::deque<TimedEvent> pending;

  // Materialized fallback (layouts the merge cannot stream).
  std::vector<TimedEvent> materialized;
  std::size_t next = 0;

  std::size_t buffered_peak = 0;

  void note_buffered(std::size_t resident) { buffered_peak = std::max(buffered_peak, resident); }

  /// Positions the underlying stream at `offset` (clearing any EOF state)
  /// and reads the next raw line; returns false at end of stream. Advances
  /// `offset` past the consumed bytes.
  bool read_line_at(std::uint64_t& offset) {
    is.clear();
    if (pos != offset) {
      is.seekg(static_cast<std::streamoff>(offset));
      pos = offset;
    }
    if (!std::getline(is, raw)) {
      return false;
    }
    const std::uint64_t consumed = raw.size() + (is.eof() ? 0 : 1);
    offset += consumed;
    pos += consumed;
    return true;
  }

  /// Advances the cursor of section `idx` to its next emittable record
  /// (skipping comments, blanks, and unresolved senders — the default
  /// stream filter); false once the section is exhausted.
  bool refill(std::uint32_t idx) {
    const Section& section = sections[idx];
    SectionCursor& cursor = cursors[idx];
    while (cursor.next_offset < section.end) {
      if (!read_line_at(cursor.next_offset)) {
        return false;
      }
      ++cursor.line;
      const std::string_view line = strip_cr(raw);
      if (line.empty() || line.front() == '#') {
        continue;
      }
      const csv_line::Cursor at{.file = path, .line = cursor.line};
      const csv_line::Row row = csv_line::parse_row(line, header, declared_nranks, at);
      if (row.rec.sender == trace::kUnresolvedSender) {
        continue;
      }
      cursor.lookahead = to_timed(row);
      return true;
    }
    return false;
  }

  std::size_t next_batch_native(std::size_t max_events, std::vector<TimedEvent>& out) {
    std::size_t appended = 0;
    while (appended < max_events && !heap.empty()) {
      const HeapItem top = heap.top();
      heap.pop();
      out.push_back(cursors[top.idx].lookahead);
      ++appended;
      if (refill(top.idx)) {
        heap.push({.time = cursors[top.idx].lookahead.time.count(),
                   .rank = sections[top.idx].rank,
                   .idx = top.idx});
      }
    }
    return appended;
  }

  void flush_tie_group() {
    // Ties leave the reader in rank-major order (stable: one receiver's
    // records keep their file order) — the materialized merge's tie rule.
    std::stable_sort(tie_group.begin(), tie_group.end(),
                     [](const TimedEvent& a, const TimedEvent& b) {
                       return a.event.destination < b.event.destination;
                     });
    pending.insert(pending.end(), tie_group.begin(), tie_group.end());
    tie_group.clear();
  }

  std::size_t next_batch_flat(std::size_t max_events, std::vector<TimedEvent>& out) {
    std::size_t appended = 0;
    std::size_t line_no = data_start_line;
    while (appended < max_events) {
      if (!pending.empty()) {
        out.push_back(pending.front());
        pending.pop_front();
        ++appended;
        continue;
      }
      if (file_done) {
        if (tie_group.empty()) {
          break;
        }
        flush_tie_group();
        continue;
      }
      if (!read_line_at(data_start)) {
        file_done = true;
        continue;
      }
      ++data_start_line;
      line_no = data_start_line;
      const std::string_view line = strip_cr(raw);
      if (line.empty() || line.front() == '#') {
        continue;
      }
      const csv_line::Cursor at{.file = path, .line = line_no};
      const csv_line::Row row = csv_line::parse_row(line, header, declared_nranks, at);
      if (row.rec.sender == trace::kUnresolvedSender) {
        continue;
      }
      const TimedEvent ev = to_timed(row);
      if (!tie_group.empty() && ev.time.count() != tie_time) {
        flush_tie_group();
      }
      tie_time = ev.time.count();
      tie_group.push_back(ev);
      note_buffered(tie_group.size() + pending.size());
    }
    return appended;
  }

  std::size_t next_batch_materialized(std::size_t max_events, std::vector<TimedEvent>& out) {
    const std::size_t take = std::min(max_events, materialized.size() - next);
    out.insert(out.end(), materialized.begin() + static_cast<std::ptrdiff_t>(next),
               materialized.begin() + static_cast<std::ptrdiff_t>(next + take));
    next += take;
    return take;
  }
};

CsvStreamReader::CsvStreamReader(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
CsvStreamReader::~CsvStreamReader() = default;

std::unique_ptr<CsvStreamReader> CsvStreamReader::open(const std::string& path,
                                                       trace::Level level) {
  auto im = std::make_unique<Impl>();
  im->path = path;
  im->level = level;

  // Validation scan: every line is checked with the same grammar the
  // materializing parser applies (one pass, nothing retained), sections
  // are indexed, and the time layout is probed so the merge knows whether
  // it can stream this file.
  std::ifstream scan(path);
  if (!scan) {
    throw IngestError({.file = path, .line = 0, .field = {}, .reason = "cannot open for reading"});
  }
  csv_line::Cursor at{.file = path};
  std::optional<csv_line::HeaderInfo> header;
  std::uint64_t offset = 0;
  std::string raw;
  std::int32_t max_rank = -1;
  int run_rank = -1;
  int run_level = -1;
  std::int64_t run_last_time = 0;
  bool level_mono[trace::kNumLevels] = {true, true};
  bool flat_sorted = true;
  std::int64_t flat_last_time = std::numeric_limits<std::int64_t>::min();
  std::vector<Impl::Section> all_sections;
  std::vector<int> section_levels;
  while (std::getline(scan, raw)) {
    ++at.line;
    const std::uint64_t line_start = offset;
    offset += raw.size() + (scan.eof() ? 0 : 1);
    const std::string_view line = strip_cr(raw);
    if (line.empty()) {
      continue;
    }
    if (line.front() == '#') {
      if (!header) {
        csv_line::handle_directive(csv_line::trim(line.substr(1)), im->declared_nranks, at);
      }
      continue;
    }
    if (!header) {
      header = csv_line::match_header(line);
      if (!header) {
        csv_line::reject_header(line, at);
      }
      im->data_start = offset;
      im->data_start_line = at.line;
      continue;
    }
    const csv_line::Row row = csv_line::parse_row(line, *header, im->declared_nranks, at);
    max_rank = std::max({max_rank, static_cast<std::int32_t>(row.rank), row.rec.sender});
    if (header->dialect == csv_line::Dialect::Native) {
      const int row_level = static_cast<int>(row.level);
      if (row.rank != run_rank || row_level != run_level) {
        all_sections.push_back(
            {.rank = row.rank, .start = line_start, .end = 0, .start_line = at.line - 1});
        section_levels.push_back(row_level);
        run_rank = row.rank;
        run_level = row_level;
      } else if (row.rec.time.count() < run_last_time) {
        level_mono[row_level] = false;
      }
      run_last_time = row.rec.time.count();
    } else {
      if (row.rec.time.count() < flat_last_time) {
        flat_sorted = false;
      }
      flat_last_time = row.rec.time.count();
    }
  }
  if (!header) {
    throw IngestError({.file = path, .line = 0, .field = {}, .reason = "no header line found"});
  }
  im->header = *header;
  im->nranks = im->declared_nranks.value_or(std::max(max_rank + 1, 1));
  for (std::size_t i = 0; i < all_sections.size(); ++i) {
    all_sections[i].end = i + 1 < all_sections.size() ? all_sections[i + 1].start : offset;
  }

  const int level_int = static_cast<int>(level);
  if (header->dialect == csv_line::Dialect::Flat) {
    if (level != trace::Level::Physical) {
      im->mode = Impl::Mode::Empty;
    } else if (flat_sorted) {
      im->mode = Impl::Mode::FlatSequential;
    } else {
      im->mode = Impl::Mode::Materialized;
    }
  } else {
    std::vector<Impl::Section> mine;
    for (std::size_t i = 0; i < all_sections.size(); ++i) {
      if (section_levels[i] == level_int) {
        mine.push_back(all_sections[i]);
      }
    }
    if (level_mono[level_int] && all_sections.size() <= kMaxStreamSections) {
      im->mode = Impl::Mode::NativeMerge;
      im->sections = std::move(mine);
    } else {
      im->mode = Impl::Mode::Materialized;
    }
  }

  switch (im->mode) {
    case Impl::Mode::NativeMerge: {
      im->is.open(path);
      if (!im->is) {
        throw IngestError({.file = path,
                           .line = 0,
                           .field = {},
                           .reason = "cannot open for reading"});
      }
      im->cursors.resize(im->sections.size());
      for (std::uint32_t i = 0; i < im->sections.size(); ++i) {
        im->cursors[i].next_offset = im->sections[i].start;
        im->cursors[i].line = im->sections[i].start_line;
        if (im->refill(i)) {
          im->heap.push({.time = im->cursors[i].lookahead.time.count(),
                         .rank = im->sections[i].rank,
                         .idx = i});
        }
      }
      im->note_buffered(im->heap.size());
      break;
    }
    case Impl::Mode::FlatSequential: {
      im->is.open(path);
      if (!im->is) {
        throw IngestError({.file = path,
                           .line = 0,
                           .field = {},
                           .reason = "cannot open for reading"});
      }
      break;
    }
    case Impl::Mode::Materialized: {
      // This layout (unsorted flat file, native section with non-monotone
      // times, or a section blow-up) cannot be merged incrementally; fall
      // back to the materializing parser's own stream adapter so the
      // emitted order is the non-streamed path's by construction.
      std::ifstream reparse(path);
      if (!reparse) {
        throw IngestError({.file = path,
                           .line = 0,
                           .field = {},
                           .reason = "cannot open for reading"});
      }
      im->materialized = drain(*CsvTraceSource::parse(reparse, path)->stream_events(level));
      im->note_buffered(im->materialized.size());
      break;
    }
    case Impl::Mode::Empty:
      break;
  }
  return std::unique_ptr<CsvStreamReader>(new CsvStreamReader(std::move(im)));
}

std::size_t CsvStreamReader::next_batch(std::size_t max_events, std::vector<TimedEvent>& out) {
  switch (impl_->mode) {
    case Impl::Mode::NativeMerge:
      return impl_->next_batch_native(max_events, out);
    case Impl::Mode::FlatSequential:
      return impl_->next_batch_flat(max_events, out);
    case Impl::Mode::Materialized:
      return impl_->next_batch_materialized(max_events, out);
    case Impl::Mode::Empty:
      return 0;
  }
  return 0;
}

bool CsvStreamReader::streaming() const noexcept {
  return impl_->mode != Impl::Mode::Materialized;
}

std::size_t CsvStreamReader::peak_buffered_events() const noexcept { return impl_->buffered_peak; }

int CsvStreamReader::nranks() const noexcept { return impl_->nranks; }

std::unique_ptr<EventStream> open_event_stream(const std::string& path, trace::Level level) {
  return TraceFormatRegistry::instance().open_stream(path, level);
}

}  // namespace mpipred::ingest
