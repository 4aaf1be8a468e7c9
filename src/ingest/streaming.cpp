#include "ingest/streaming.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <limits>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "ingest/csv_line.hpp"
#include "ingest/source.hpp"

namespace mpipred::ingest {

namespace {

[[nodiscard]] TimedEvent to_timed(const csv_line::Row& row) {
  return {.time = row.rec.time,
          .event = {.source = row.rec.sender,
                    .destination = row.rank,
                    .tag = static_cast<std::int32_t>(row.rec.kind),
                    .bytes = row.rec.bytes}};
}

// One contiguous run of data lines with the same (rank, level). `end` is
// the next section's first data line (or the file size), so a cursor can
// consume trailing comments without crossing into foreign records.
struct Section {
  int rank = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::size_t start_line = 0;
};

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
// CsvTraceFile

struct CsvTraceFile::Index {
  explicit Index(const std::string& path) : bytes(path) {}

  csv_line::FileSource bytes;
  csv_line::Layout layout;
  // Native dialect: each level's sections in file order; cleared once the
  // file holds more than kMaxStreamSections, which no level can stream.
  std::array<std::vector<Section>, trace::kNumLevels> sections;
  bool too_many_sections = false;
  std::array<bool, trace::kNumLevels> level_monotone{true, true};
  // Flat dialect: whether the data lines' times never decrease.
  bool flat_sorted = true;
  // Records per receiving rank, up to the largest rank seen at the level.
  std::array<std::vector<std::size_t>, trace::kNumLevels> records_per_rank;
};

CsvTraceFile::CsvTraceFile(std::shared_ptr<const Index> index)
    : TraceDialect(index->layout.header.dialect == csv_line::Dialect::Flat),
      index_(std::move(index)) {}

CsvTraceFile CsvTraceFile::open(const std::string& path) {
  auto index = std::make_shared<Index>(path);
  Index& ix = *index;
  // The one scan: every line is checked by the csv_line scanner, nothing
  // is retained but the index, and the time layout is probed so a reader
  // knows whether it can stream a level.
  int run_rank = -1;
  int run_level = -1;
  std::int64_t run_last_time = 0;
  std::size_t run_rows = 0;
  std::size_t section_count = 0;
  std::int64_t flat_last_time = std::numeric_limits<std::int64_t>::min();
  const auto count_rows = [&ix](int level, int rank, std::size_t rows) {
    std::vector<std::size_t>& counts = ix.records_per_rank[level];
    if (static_cast<std::size_t>(rank) >= counts.size()) {
      counts.resize(static_cast<std::size_t>(rank) + 1);
    }
    counts[static_cast<std::size_t>(rank)] += rows;
  };
  const auto index_row = [&](const csv_line::HeaderInfo& header, const csv_line::Row& row,
                             std::size_t line, std::uint64_t offset) {
    const int row_level = static_cast<int>(row.level);
    const std::int64_t time = row.rec.time.count();
    if (header.dialect == csv_line::Dialect::Flat) {
      count_rows(row_level, row.rank, 1);
      ix.flat_sorted = ix.flat_sorted && time >= flat_last_time;
      flat_last_time = time;
      return;
    }
    // A native section's rows are counted when it ends, not one by one.
    ++run_rows;
    if (row.rank != run_rank || row_level != run_level) {
      if (run_level >= 0) {
        count_rows(run_level, run_rank, run_rows - 1);
      }
      run_rows = 1;
      if (!ix.too_many_sections) {
        if (run_level >= 0) {
          ix.sections[run_level].back().end = offset;
        }
        if (++section_count > CsvStreamReader::kMaxStreamSections) {
          ix.too_many_sections = true;
          ix.sections = {};
        } else {
          ix.sections[row_level].push_back(
              {.rank = row.rank, .start = offset, .end = 0, .start_line = line - 1});
        }
      }
      run_rank = row.rank;
      run_level = row_level;
    } else if (time < run_last_time) {
      ix.level_monotone[row_level] = false;
    }
    run_last_time = time;
  };
  ix.layout = csv_line::scan(ix.bytes, index_row);
  if (run_level >= 0) {
    count_rows(run_level, run_rank, run_rows);
    if (!ix.too_many_sections) {
      ix.sections[run_level].back().end = ix.bytes.size();
    }
  }
  return CsvTraceFile(std::move(index));
}

int CsvTraceFile::nranks() const noexcept { return index_->layout.nranks; }

std::vector<std::size_t> CsvTraceFile::records_per_rank(trace::Level level) const {
  std::vector<std::size_t> counts = index_->records_per_rank[static_cast<int>(level)];
  counts.resize(static_cast<std::size_t>(nranks()));
  return counts;
}

// ---------------------------------------------------------------------------
// CsvStreamReader

struct CsvStreamReader::Impl {
  enum class Mode { NativeMerge, FlatSequential, Materialized };

  struct SectionCursor {
    csv_line::LineCutter lines;
    int rank = 0;
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

  // The indexed file: its descriptor (declared first, so it outlives every
  // line cutter that reads it) and the header rows are decoded against.
  std::shared_ptr<const CsvTraceFile::Index> file;
  Mode mode = Mode::NativeMerge;

  // NativeMerge: one cursor + one parsed lookahead per requested-level section.
  std::vector<SectionCursor> cursors;
  std::priority_queue<HeapItem, std::vector<HeapItem>, HeapGreater> heap;

  // FlatSequential: a single forward pass plus one timestamp-tie group.
  std::optional<csv_line::LineCutter> flat;
  bool file_done = false;
  std::int64_t tie_time = 0;
  std::vector<TimedEvent> tie_group;
  std::deque<TimedEvent> pending;

  // Materialized fallback (layouts the merge cannot stream).
  std::optional<VectorEventStream> materialized;

  std::size_t buffered_peak = 0;

  void note_buffered(std::size_t resident) { buffered_peak = std::max(buffered_peak, resident); }

  /// Reads `lines` up to its next emittable record (skipping comments,
  /// blanks, and unresolved senders — the default stream filter) into
  /// `out`; false once its range is exhausted. The one line path of both
  /// streaming modes.
  bool next_record(csv_line::LineCutter& lines, TimedEvent& out) {
    std::string_view line;
    while (lines.next(line)) {
      if (line.empty() || line.front() == '#') {
        continue;
      }
      const csv_line::Cursor at{.file = file->bytes.name(), .line = lines.line()};
      const csv_line::Row row =
          csv_line::parse_row(line, file->layout.header, file->layout.declared_nranks, at);
      if (row.rec.sender == trace::kUnresolvedSender) {
        continue;
      }
      out = to_timed(row);
      return true;
    }
    return false;
  }

  /// Reads section `idx` up to its next emittable record and queues it
  /// for the merge; an exhausted section leaves the merge.
  void advance(std::uint32_t idx) {
    SectionCursor& cursor = cursors[idx];
    if (next_record(cursor.lines, cursor.lookahead)) {
      heap.push({.time = cursor.lookahead.time.count(), .rank = cursor.rank, .idx = idx});
    }
  }

  std::size_t next_batch_native(std::size_t max_events, std::vector<TimedEvent>& out) {
    std::size_t appended = 0;
    while (appended < max_events && !heap.empty()) {
      const HeapItem top = heap.top();
      heap.pop();
      out.push_back(cursors[top.idx].lookahead);
      ++appended;
      advance(top.idx);
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
    TimedEvent ev;
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
      if (!next_record(*flat, ev)) {
        file_done = true;
        continue;
      }
      if (!tie_group.empty() && ev.time.count() != tie_time) {
        flush_tie_group();
      }
      tie_time = ev.time.count();
      tie_group.push_back(ev);
      note_buffered(tie_group.size() + pending.size());
    }
    return appended;
  }
};

CsvStreamReader::CsvStreamReader(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
CsvStreamReader::~CsvStreamReader() = default;

std::unique_ptr<CsvStreamReader> CsvStreamReader::open(const std::string& path,
                                                       trace::Level level) {
  return open(CsvTraceFile::open(path), level);
}

std::unique_ptr<CsvStreamReader> CsvStreamReader::open(const CsvTraceFile& file,
                                                       trace::Level level) {
  auto im = std::make_unique<Impl>();
  im->file = file.index_;
  const CsvTraceFile::Index& ix = *im->file;
  const int level_int = static_cast<int>(level);
  const bool flat = ix.layout.header.dialect == csv_line::Dialect::Flat;
  if (flat && level == trace::Level::Physical && ix.flat_sorted) {
    im->mode = Impl::Mode::FlatSequential;
    im->flat.emplace(ix.bytes, ix.layout.data_start, ix.bytes.size(), ix.layout.header_line,
                     kSectionWindowBytes);
  } else if (flat ? level != trace::Level::Physical
                  : ix.level_monotone[level_int] && !ix.too_many_sections) {
    // One cursor per section of the level (a flat file indexes none, so
    // its Logical level merges nothing).
    im->mode = Impl::Mode::NativeMerge;
    const std::vector<Section>& sections = ix.sections[level_int];
    im->cursors.reserve(sections.size());
    for (std::uint32_t i = 0; i < sections.size(); ++i) {
      const Section& section = sections[i];
      im->cursors.push_back({.lines = csv_line::LineCutter(ix.bytes, section.start, section.end,
                                                           section.start_line,
                                                           kSectionWindowBytes),
                             .rank = section.rank});
      im->advance(i);
    }
    im->note_buffered(im->heap.size());
  } else {
    // This layout (unsorted flat file, native section with non-monotone
    // times, or a section blow-up) cannot be merged incrementally; fall
    // back to the materializing parser's own stream over the open
    // descriptor, so the emitted order is the non-streamed path's by
    // construction.
    im->mode = Impl::Mode::Materialized;
    std::vector<TimedEvent> events = drain(*read_trace(ix.bytes).stream_events(level));
    im->note_buffered(events.size());
    im->materialized.emplace(std::move(events), /*time_ordered=*/true);
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
      return impl_->materialized->next_batch(max_events, out);
  }
  return 0;
}

bool CsvStreamReader::streaming() const noexcept {
  return impl_->mode != Impl::Mode::Materialized;
}

std::size_t CsvStreamReader::peak_buffered_events() const noexcept { return impl_->buffered_peak; }

std::unique_ptr<EventStream> open_event_stream(const std::string& path, trace::Level level) {
  return CsvStreamReader::open(path, level);
}

}  // namespace mpipred::ingest
