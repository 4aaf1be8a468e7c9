#include "ingest/streaming.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
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

/// The trace file, opened once for the reader's lifetime and read only
/// positionally (pread), so any number of cursors share it without a
/// shared file position.
class FileHandle {
 public:
  explicit FileHandle(const std::string& path)
      : path_(path), fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    if (fd_ < 0) {
      throw IngestError(
          {.file = path, .line = 0, .field = {}, .reason = "cannot open for reading"});
    }
  }
  FileHandle(const FileHandle&) = delete;
  FileHandle& operator=(const FileHandle&) = delete;
  ~FileHandle() { ::close(fd_); }

  /// Reads exactly `n` bytes at `offset` into `dst`. The open() scan
  /// already measured the file, so an early end or a read error means it
  /// changed under the reader: IngestError naming `line`, never a silently
  /// shorter trace.
  void read_exact(char* dst, std::size_t n, std::uint64_t offset, std::size_t line) const {
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
          {.file = path_,
           .line = line,
           .field = {},
           .reason = got == 0 ? "file ended at byte " + std::to_string(offset) +
                                    ", short of the size open() measured: it changed while read"
                              : std::string("read failed: ") + std::strerror(errno)});
    }
  }

 private:
  std::string path_;
  int fd_ = -1;
};

/// Forward line reader over the byte range [offset, end) of the file: one
/// per native section, one for the flat dialect's data. It refills a
/// window of kWindowBytes (at most the bytes left in its range) by pread
/// at its own offset, carries a partial line over into the next refill,
/// grows only for a single line longer than the window, and frees the
/// window once the range is exhausted.
class LineWindow {
 public:
  static constexpr std::size_t kWindowBytes = 4096;

  /// `line` is the number of the line just before `offset`.
  LineWindow(std::uint64_t offset, std::uint64_t end, std::size_t line)
      : next_read_(offset), end_(end), line_(line) {}

  /// The next line, without its '\n' (a '\r' is the caller's to strip),
  /// valid until the next call; false once the range is exhausted.
  bool next(const FileHandle& file, std::string_view& line) {
    while (true) {
      const std::string_view unread(buf_.data() + head_, tail_ - head_);
      const std::size_t newline = unread.find('\n');
      if (newline != std::string_view::npos) {
        line = unread.substr(0, newline);
        head_ += newline + 1;
        ++line_;
        return true;
      }
      if (next_read_ == end_) {
        if (unread.empty()) {
          std::vector<char>().swap(buf_);
          head_ = tail_ = 0;
          return false;
        }
        line = unread;  // the file's last line, without a trailing newline
        head_ = tail_;
        ++line_;
        return true;
      }
      refill(file);
    }
  }

  /// Number of the line next() returned last.
  [[nodiscard]] std::size_t line() const noexcept { return line_; }

 private:
  void refill(const FileHandle& file) {
    if (head_ != 0) {  // carry the partial line to the front
      std::copy(buf_.begin() + static_cast<std::ptrdiff_t>(head_),
                buf_.begin() + static_cast<std::ptrdiff_t>(tail_), buf_.begin());
      tail_ -= head_;
      head_ = 0;
    }
    const std::uint64_t left = end_ - next_read_;
    if (buf_.empty()) {
      buf_.resize(static_cast<std::size_t>(std::min<std::uint64_t>(kWindowBytes, left)));
    } else if (tail_ == buf_.size()) {
      // One line longer than the window: double it, but never past the range.
      buf_.resize(tail_ + static_cast<std::size_t>(std::min<std::uint64_t>(tail_, left)));
    }
    const auto want = static_cast<std::size_t>(std::min<std::uint64_t>(buf_.size() - tail_, left));
    file.read_exact(buf_.data() + tail_, want, next_read_, line_ + 1);
    tail_ += want;
    next_read_ += want;
  }

  std::vector<char> buf_;
  std::size_t head_ = 0;  // buf_[head_, tail_) holds read, unconsumed bytes
  std::size_t tail_ = 0;
  std::uint64_t next_read_ = 0;  // file offset of the byte after buf_[tail_ - 1]
  std::uint64_t end_ = 0;
  std::size_t line_ = 0;
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
    LineWindow window;
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

  // Both streaming modes read their lines through LineWindows over this.
  std::optional<FileHandle> file;

  // NativeMerge: one cursor + one parsed lookahead per requested-level section.
  std::vector<Section> sections;
  std::vector<SectionCursor> cursors;
  std::priority_queue<HeapItem, std::vector<HeapItem>, HeapGreater> heap;

  // FlatSequential: a single forward pass plus one timestamp-tie group.
  std::optional<LineWindow> flat;
  bool file_done = false;
  std::int64_t tie_time = 0;
  std::vector<TimedEvent> tie_group;
  std::deque<TimedEvent> pending;

  // Materialized fallback (layouts the merge cannot stream).
  std::optional<VectorEventStream> materialized;

  std::size_t buffered_peak = 0;

  void note_buffered(std::size_t resident) { buffered_peak = std::max(buffered_peak, resident); }

  /// Reads `window` up to its next emittable record (skipping comments,
  /// blanks, and unresolved senders — the default stream filter) into
  /// `out`; false once the window's range is exhausted. The one line path
  /// of both streaming modes.
  bool next_record(LineWindow& window, TimedEvent& out) {
    std::string_view raw;
    while (window.next(*file, raw)) {
      const std::string_view line = strip_cr(raw);
      if (line.empty() || line.front() == '#') {
        continue;
      }
      const csv_line::Cursor at{.file = path, .line = window.line()};
      const csv_line::Row row = csv_line::parse_row(line, header, declared_nranks, at);
      if (row.rec.sender == trace::kUnresolvedSender) {
        continue;
      }
      out = to_timed(row);
      return true;
    }
    return false;
  }

  /// Advances the cursor of section `idx` to its next emittable record;
  /// false once the section is exhausted.
  bool refill(std::uint32_t idx) {
    SectionCursor& cursor = cursors[idx];
    return next_record(cursor.window, cursor.lookahead);
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
  auto im = std::make_unique<Impl>();
  im->path = path;
  im->level = level;

  // Validation scan: every line is checked by the one csv_line scanner
  // (one pass, nothing retained), sections are indexed, and the time
  // layout is probed so the merge knows whether it can stream this file.
  int run_rank = -1;
  int run_level = -1;
  std::int64_t run_last_time = 0;
  bool level_mono[trace::kNumLevels] = {true, true};
  bool flat_sorted = true;
  std::int64_t flat_last_time = std::numeric_limits<std::int64_t>::min();
  std::vector<Impl::Section> all_sections;
  std::vector<int> section_levels;
  const auto index_row = [&](const csv_line::HeaderInfo& header, const csv_line::Row& row,
                             std::size_t line, std::uint64_t offset) {
    const std::int64_t time = row.rec.time.count();
    if (header.dialect == csv_line::Dialect::Flat) {
      flat_sorted = flat_sorted && time >= flat_last_time;
      flat_last_time = time;
      return;
    }
    const int row_level = static_cast<int>(row.level);
    if (row.rank != run_rank || row_level != run_level) {
      all_sections.push_back({.rank = row.rank, .start = offset, .end = 0, .start_line = line - 1});
      section_levels.push_back(row_level);
      run_rank = row.rank;
      run_level = row_level;
    } else if (time < run_last_time) {
      level_mono[row_level] = false;
    }
    run_last_time = time;
  };
  std::ifstream scan = csv_line::open_file(path);
  const csv_line::Layout layout = csv_line::scan(scan, path, index_row);
  im->header = layout.header;
  im->declared_nranks = layout.declared_nranks;
  im->nranks = layout.nranks;
  for (std::size_t i = 0; i < all_sections.size(); ++i) {
    all_sections[i].end = i + 1 < all_sections.size() ? all_sections[i + 1].start : layout.end;
  }

  const int level_int = static_cast<int>(level);
  if (layout.header.dialect == csv_line::Dialect::Flat) {
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

  if (im->mode == Impl::Mode::NativeMerge || im->mode == Impl::Mode::FlatSequential) {
    im->file.emplace(path);
  }
  if (im->mode == Impl::Mode::FlatSequential) {
    im->flat.emplace(layout.data_start, layout.end, layout.header_line);
  } else if (im->mode == Impl::Mode::NativeMerge) {
    im->cursors.reserve(im->sections.size());
    for (std::uint32_t i = 0; i < im->sections.size(); ++i) {
      const Impl::Section& section = im->sections[i];
      im->cursors.push_back({.window = LineWindow(section.start, section.end, section.start_line)});
      if (im->refill(i)) {
        im->heap.push({.time = im->cursors[i].lookahead.time.count(),
                       .rank = section.rank,
                       .idx = i});
      }
    }
    im->note_buffered(im->heap.size());
  } else if (im->mode == Impl::Mode::Materialized) {
    // This layout (unsorted flat file, native section with non-monotone
    // times, or a section blow-up) cannot be merged incrementally; fall
    // back to the materializing parser's own stream, so the emitted order
    // is the non-streamed path's by construction.
    std::vector<TimedEvent> events = drain(*open_trace(path).stream_events(level));
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
  return CsvStreamReader::open(path, level);
}

}  // namespace mpipred::ingest
