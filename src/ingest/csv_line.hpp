#pragma once

// Line-level grammar of the two ingest CSV dialects and the one scanner
// that applies it: the materializing parser (source.cpp) and the
// incremental streaming reader (streaming.cpp) both validate a file
// through csv_line::scan, so the two paths can never drift on what a valid
// preamble directive, header, or data line is. A data line has one
// decoder, parse_row: one forward pass over the bytes that decodes each
// field while walking to the next comma, then the field-count check, then
// each column's checks in order. Lines have one cutter, LineCutter: it
// reads a byte range of a ByteSource (the open file, or a text in memory)
// through a window of a size its owner picks — 64 KiB for the scan, 4 KiB
// per streamed section — and cuts lines with memchr. Internal to
// src/ingest/; consumers outside the ingest boundary go through
// CsvTraceSource, CsvTraceFile or EventStream instead.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ingest/source.hpp"
#include "trace/csv.hpp"
#include "trace/event.hpp"

namespace mpipred::ingest::csv_line {

inline constexpr std::string_view kFlatHeader = "time_ns,sender,receiver,bytes";
inline constexpr std::string_view kFlatHeaderKind = "time_ns,sender,receiver,bytes,kind";

inline constexpr std::string_view kSupportedVersion = "v1";

/// Ceiling on rank values a file may declare or use. The rank count sizes
/// the TraceStore, so a hostile value must become a diagnostic here — not
/// signed overflow, an allocation failure, or a TraceStore assert (the
/// boundary promise is "never an abort"). 2^22 ranks is an order of
/// magnitude beyond the largest real MPI jobs.
inline constexpr std::int32_t kMaxRanks = 1 << 22;

enum class Dialect { Native, Flat };

[[nodiscard]] inline std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Location state threaded through every field parse, so each rejection
/// can name file, line, and field without repeating the plumbing.
struct Cursor {
  const std::string& file;
  std::size_t line = 0;

  [[noreturn]] void reject(std::string field, std::string reason) const {
    throw IngestError(
        {.file = file, .line = line, .field = std::move(field), .reason = std::move(reason)});
  }
};

/// A directive's integer value (data lines go through parse_row instead).
[[nodiscard]] inline int parse_directive_int(std::string_view text, const char* key,
                                             const Cursor& at) {
  int value = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    at.reject(key, "malformed integer '" + std::string(text) + "'");
  }
  return value;
}

/// Handles one pre-header `#` line. Directives are `# key: value`;
/// recognized keys are validated, everything else is a plain comment.
inline void handle_directive(std::string_view body, std::optional<int>& declared_nranks,
                             const Cursor& at) {
  const std::size_t colon = body.find(':');
  if (colon == std::string_view::npos) {
    return;  // plain comment
  }
  const std::string_view key = trim(body.substr(0, colon));
  const std::string_view value = trim(body.substr(colon + 1));
  if (key == "mpipred-trace") {
    if (value != kSupportedVersion) {
      at.reject("mpipred-trace", "unsupported trace schema version '" + std::string(value) +
                                     "' (supported: " + std::string(kSupportedVersion) + ")");
    }
  } else if (key == "nranks") {
    const int n = parse_directive_int(value, "nranks", at);
    if (n < 1) {
      at.reject("nranks", "declared rank count " + std::to_string(n) + " must be at least 1");
    }
    if (n > kMaxRanks) {
      at.reject("nranks", "declared rank count " + std::to_string(n) +
                              " above the supported maximum " + std::to_string(kMaxRanks));
    }
    declared_nranks = n;
  }
  // Unknown keys: forward-compatible comments, deliberately ignored.
}

struct HeaderInfo {
  Dialect dialect = Dialect::Native;
  bool flat_has_kind = false;
};

/// The dialect `line` announces, or nullopt for an unrecognized header.
[[nodiscard]] inline std::optional<HeaderInfo> match_header(std::string_view line) {
  if (line == trace::kNativeHeader) {
    return HeaderInfo{.dialect = Dialect::Native};
  }
  if (line == kFlatHeaderKind) {
    return HeaderInfo{.dialect = Dialect::Flat, .flat_has_kind = true};
  }
  if (line == kFlatHeader) {
    return HeaderInfo{.dialect = Dialect::Flat};
  }
  return std::nullopt;
}

[[noreturn]] inline void reject_header(std::string_view line, const Cursor& at) {
  at.reject("", "unrecognized header '" + std::string(line) + "' (known formats: csv '" +
                    std::string(trace::kNativeHeader) + "', csv-flat '" + std::string(kFlatHeader) +
                    "[,kind]')");
}

[[nodiscard]] inline std::size_t expected_fields(const HeaderInfo& header) {
  return header.dialect == Dialect::Native ? 7 : (header.flat_has_kind ? 5 : 4);
}

/// One field of a data line as FieldReader decoded it: its text, kept for
/// a diagnostic, and its value when `ok`.
struct Field {
  std::string_view text;
  std::int64_t value = 0;
  bool ok = false;
};

/// Decodes a data line field by field in one forward pass: next()
/// accumulates a field's digits while walking to its comma, and count()
/// counts the fields left after the last one taken. It rejects nothing, so
/// parse_row can check the field count before any field.
class FieldReader {
 public:
  explicit FieldReader(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// The next field, decoded as an integer of its column's width (int64
  /// when `wide`, else int32). `ok` holds exactly when std::from_chars
  /// would accept the whole field as that type: an optional '-', at least
  /// one digit, nothing else, and no overflow. Past the last field of the
  /// line: an empty field that is not ok.
  [[nodiscard]] Field next(bool wide) {
    constexpr std::uint64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
    constexpr std::uint64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
    // Any run of up to 19 digits fits the accumulator: 10^19 - 1 < 2^64.
    constexpr std::ptrdiff_t kExactDigits = 19;
    if (done_) {
      return {};
    }
    ++taken_;
    const char* const begin = p_;
    const bool negative = p_ != end_ && *p_ == '-';
    p_ += negative ? 1 : 0;
    const char* const digits = p_;
    std::uint64_t magnitude = 0;
    bool ok = p_ != end_ && *p_ != ',';
    for (; p_ != end_ && *p_ != ','; ++p_) {
      const unsigned digit = static_cast<unsigned char>(*p_) - unsigned{'0'};
      ok &= digit <= 9;
      magnitude = magnitude * 10 + digit;
    }
    if (p_ - digits > kExactDigits) {
      // A longer run wrapped the accumulator unless its leading zeros
      // leave at most 19 digits; those zeros added nothing to it.
      const char* first = digits;
      while (first != p_ && *first == '0') {
        ++first;
      }
      ok &= p_ - first <= kExactDigits;
    }
    const Field field{.text = {begin, static_cast<std::size_t>(p_ - begin)},
                      .value = static_cast<std::int64_t>(negative ? 0 - magnitude : magnitude),
                      .ok = ok && magnitude <= (wide ? kInt64Max : kInt32Max) + (negative ? 1 : 0)};
    if (p_ == end_) {
      done_ = true;
    } else {
      ++p_;  // past the comma
    }
    return field;
  }

  /// The line's true field count: the fields taken, plus every field after
  /// them.
  [[nodiscard]] std::size_t count() const {
    return taken_ + (done_ ? 0 : 1 + static_cast<std::size_t>(std::count(p_, end_, ',')));
  }

 private:
  const char* p_;
  const char* end_;
  std::size_t taken_ = 0;
  bool done_ = false;
};

// The rejections of a failing field. Out of line and marked cold, so the
// accepting path of parse_row stays a few compares and builds no text.

[[noreturn, gnu::cold, gnu::noinline]] inline void reject_malformed(const Field& f,
                                                                   const char* name,
                                                                   const Cursor& at) {
  at.reject(name, "malformed integer '" + std::string(f.text) + "'");
}

[[noreturn, gnu::cold, gnu::noinline]] inline void reject_outside(std::int64_t value,
                                                                 const char* name, int lo,
                                                                 int hi_exclusive,
                                                                 const Cursor& at) {
  at.reject(name, "value " + std::to_string(value) + " outside [" + std::to_string(lo) + ", " +
                      std::to_string(hi_exclusive) + ")");
}

[[noreturn, gnu::cold, gnu::noinline]] inline void reject_rank(
    std::int64_t value, const char* name, std::int32_t min,
    const std::optional<int>& declared_nranks, const Cursor& at) {
  if (value < min) {
    at.reject(name, "rank " + std::to_string(value) + " below " + std::to_string(min));
  }
  if (value >= kMaxRanks) {
    at.reject(name, "rank " + std::to_string(value) + " above the supported maximum " +
                        std::to_string(kMaxRanks - 1));
  }
  // Here min <= value < kMaxRanks: the bound that failed is the declared count.
  at.reject(name, "rank " + std::to_string(value) + " outside declared nranks " +
                      std::to_string(*declared_nranks));
}

[[noreturn, gnu::cold, gnu::noinline]] inline void reject_negative_bytes(std::int64_t value,
                                                                        const Cursor& at) {
  at.reject("bytes", "negative byte count " + std::to_string(value));
}

/// The value of a decoded field; rejects it as a malformed integer, quoting
/// its text, when it is not ok.
[[nodiscard]] inline std::int64_t field_value(const Field& f, const char* name,
                                              const Cursor& at) {
  if (!f.ok) {
    reject_malformed(f, name, at);
  }
  return f.value;
}

[[nodiscard]] inline int field_in_range(const Field& f, const char* name, int lo,
                                        int hi_exclusive, const Cursor& at) {
  const std::int64_t value = field_value(f, name, at);
  if (value < lo || value >= hi_exclusive) {
    reject_outside(value, name, lo, hi_exclusive, at);
  }
  return static_cast<int>(value);
}

/// Rank-valued field: at least `min` (-1 for sender fields, which may be
/// kUnresolvedSender, else 0), below kMaxRanks, and under the declared rank
/// count when the file carries a `# nranks` directive (otherwise bounds are
/// inferred after the parse).
[[nodiscard]] inline std::int32_t field_rank(const Field& f, const char* name, std::int32_t min,
                                             const std::optional<int>& declared_nranks,
                                             const Cursor& at) {
  const std::int64_t value = field_value(f, name, at);
  if (value < min || value >= declared_nranks.value_or(kMaxRanks)) {
    reject_rank(value, name, min, declared_nranks, at);
  }
  return static_cast<std::int32_t>(value);
}

[[nodiscard]] inline std::int64_t field_bytes(const Field& f, const Cursor& at) {
  const std::int64_t value = field_value(f, "bytes", at);
  if (value < 0) {
    reject_negative_bytes(value, at);
  }
  return value;
}

/// One fully validated data line, in either dialect's terms: the receiving
/// rank, the instrumentation level, and the record itself.
struct Row {
  int rank = 0;
  trace::Level level = trace::Level::Logical;
  trace::Record rec;
};

/// Parses and validates one data line (CR already stripped, not a comment
/// or blank); throws IngestError with the exact field and reason on any
/// malformed content. Every field of the dialect is decoded first, in one
/// pass (FieldReader); then the field count is checked, with the true
/// count, and then each column in order, so the first failing column is
/// the one named. Diagnostic text is built only on the failing path.
[[nodiscard]] inline Row parse_row(std::string_view line, const HeaderInfo& header,
                                   const std::optional<int>& declared_nranks, const Cursor& at) {
  constexpr bool kInt64 = true;
  constexpr bool kInt32 = false;
  FieldReader fields(line);
  const auto check_count = [&] {
    const std::size_t expected = expected_fields(header);
    if (fields.count() != expected) {
      at.reject("", "has " + std::to_string(fields.count()) + " fields, expected " +
                        std::to_string(expected));
    }
  };
  Row row;
  if (header.dialect == Dialect::Native) {
    const Field rank = fields.next(kInt32);
    const Field level = fields.next(kInt32);
    const Field time = fields.next(kInt64);
    const Field sender = fields.next(kInt32);
    const Field bytes = fields.next(kInt64);
    const Field kind = fields.next(kInt32);
    const Field op = fields.next(kInt32);
    check_count();
    row.rank = field_rank(rank, "rank", 0, declared_nranks, at);
    row.level = static_cast<trace::Level>(field_in_range(level, "level", 0, trace::kNumLevels, at));
    row.rec.time = sim::SimTime{field_value(time, "time_ns", at)};
    row.rec.sender = field_rank(sender, "sender", trace::kUnresolvedSender, declared_nranks, at);
    row.rec.bytes = field_bytes(bytes, at);
    row.rec.kind = static_cast<trace::OpKind>(field_in_range(kind, "kind", 0, 2, at));
    row.rec.op = static_cast<trace::Op>(field_in_range(op, "op", 0, trace::kNumOps, at));
  } else {
    const Field time = fields.next(kInt64);
    const Field sender = fields.next(kInt32);
    const Field receiver = fields.next(kInt32);
    const Field bytes = fields.next(kInt64);
    const Field kind = header.flat_has_kind ? fields.next(kInt32) : Field{};
    check_count();
    row.rec.time = sim::SimTime{field_value(time, "time_ns", at)};
    row.rec.sender = field_rank(sender, "sender", 0, declared_nranks, at);
    row.rank = field_rank(receiver, "receiver", 0, declared_nranks, at);
    row.level = trace::Level::Physical;
    row.rec.bytes = field_bytes(bytes, at);
    if (header.flat_has_kind) {
      row.rec.kind = static_cast<trace::OpKind>(field_in_range(kind, "kind", 0, 2, at));
    }
    row.rec.op = trace::Op::Recv;
  }
  return row;
}

/// A trace's bytes, read positionally: the open file (FileSource) or an
/// in-memory text (TextSource). LineCutter reads through this interface
/// only, so it cannot tell the two apart.
class ByteSource {
 public:
  ByteSource(const ByteSource&) = delete;
  ByteSource& operator=(const ByteSource&) = delete;
  virtual ~ByteSource() = default;

  /// The path, or a "<label>": the file diagnostics name.
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Bytes in the source, measured once when it was opened.
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  /// Reads exactly `n` bytes at `offset` (within size()) into `dst`;
  /// throws IngestError naming `line` when the bytes are no longer there.
  virtual void read_exact(char* dst, std::size_t n, std::uint64_t offset,
                          std::size_t line) const = 0;

 protected:
  explicit ByteSource(std::string name) : name_(std::move(name)) {}

  std::uint64_t size_ = 0;  // set once, by the derived constructor

 private:
  std::string name_;
};

/// A regular file, opened once without blocking (so a FIFO cannot hang
/// the open) and measured by fstat; anything else is rejected at line 0.
/// Read with pread only, so any number of cutters share it. An early end
/// or a read error means the file changed after it was measured:
/// IngestError naming the line, never a silently shorter trace.
class FileSource final : public ByteSource {
 public:
  explicit FileSource(const std::string& path);
  ~FileSource() override;
  void read_exact(char* dst, std::size_t n, std::uint64_t offset,
                  std::size_t line) const override;

 private:
  int fd_;
};

class TextSource final : public ByteSource {
 public:
  TextSource(std::string text, std::string name)
      : ByteSource(std::move(name)), text_(std::move(text)) {
    size_ = text_.size();
  }
  void read_exact(char* dst, std::size_t n, std::uint64_t offset,
                  std::size_t /*line*/) const override {
    std::memcpy(dst, text_.data() + offset, n);
  }

 private:
  std::string text_;
};

/// The validation scan's read window.
inline constexpr std::size_t kScanWindowBytes = std::size_t{64} << 10;

/// Cuts the byte range [offset, end) of a ByteSource into lines: the one
/// line loop of src/ingest/. It reads a window of `window_bytes` (at most
/// what is left of the range) at its own offset, finds each '\n' with
/// memchr and hands out lines as views into the window, never copied. A
/// line cut by the window's end is carried to the front of the next read;
/// the window grows (doubling, never past the range) only for one line
/// longer than itself, and is freed once the range is exhausted.
class LineCutter {
 public:
  /// `line` is the number of the line just before `offset`.
  LineCutter(const ByteSource& bytes, std::uint64_t offset, std::uint64_t end, std::size_t line,
             std::size_t window_bytes)
      : bytes_(&bytes), window_(window_bytes), next_read_(offset), end_(end), line_(line) {}

  /// The next line without its '\n' or a '\r' before it, valid until the
  /// next call; false once the range is exhausted. A last line without a
  /// '\n' is still a line.
  bool next(std::string_view& line) {
    while (true) {
      if (searched_ != tail_) {
        const char* const base = buf_.data();
        const void* newline = std::memchr(base + searched_, '\n', tail_ - searched_);
        if (newline != nullptr) {
          const auto stop = static_cast<std::size_t>(static_cast<const char*>(newline) - base);
          return take(line, stop, stop + 1);
        }
        searched_ = tail_;
      }
      if (next_read_ != end_) {
        refill();
      } else if (head_ != tail_) {
        return take(line, tail_, tail_);  // the range's last line, without a '\n'
      } else {
        std::vector<char>().swap(buf_);
        head_ = searched_ = tail_ = 0;
        return false;
      }
    }
  }

  /// Number of the line next() returned last.
  [[nodiscard]] std::size_t line() const noexcept { return line_; }

  /// Byte offset just past the last line next() returned, its '\n'
  /// included.
  [[nodiscard]] std::uint64_t offset() const noexcept { return next_read_ - (tail_ - head_); }

 private:
  /// Hands out buf_[head_, stop) as the next line, CR stripped, and
  /// resumes at `resume`.
  bool take(std::string_view& line, std::size_t stop, std::size_t resume) {
    line = {buf_.data() + head_, stop - head_};
    head_ = searched_ = resume;
    ++line_;
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
    }
    return true;
  }

  void refill() {
    if (head_ != 0) {  // carry the partial line to the front
      std::memmove(buf_.data(), buf_.data() + head_, tail_ - head_);
      tail_ -= head_;
      searched_ -= head_;
      head_ = 0;
    }
    const std::uint64_t left = end_ - next_read_;
    if (tail_ == buf_.size()) {  // empty, or one line longer than the window
      buf_.resize(tail_ + static_cast<std::size_t>(
                              std::min<std::uint64_t>(tail_ == 0 ? window_ : tail_, left)));
    }
    const auto want = static_cast<std::size_t>(std::min<std::uint64_t>(buf_.size() - tail_, left));
    bytes_->read_exact(buf_.data() + tail_, want, next_read_, line_ + 1);
    tail_ += want;
    next_read_ += want;
  }

  const ByteSource* bytes_;
  std::size_t window_;
  std::vector<char> buf_;
  std::size_t head_ = 0;      // buf_[head_, tail_) holds read, unconsumed bytes
  std::size_t searched_ = 0;  // buf_[head_, searched_) holds no '\n'
  std::size_t tail_ = 0;
  std::uint64_t next_read_;  // source offset of the byte after buf_[tail_ - 1]
  std::uint64_t end_;
  std::size_t line_;
};

/// What a scan learned about a file besides its data rows.
struct Layout {
  HeaderInfo header;
  std::optional<int> declared_nranks;
  /// Declared by `# nranks`, or inferred as max observed rank + 1.
  int nranks = 1;
  /// Line number of the header, and the byte offset just past it.
  std::size_t header_line = 0;
  std::uint64_t data_start = 0;
};

/// The one line scanner of both dialects: validates every line of `bytes`
/// (directives and comments before the header, the header itself, then
/// comments, blanks, and data rows; CRLF accepted by the cutter) and calls
/// `on_row(header, row, line, offset)` for each data row with its 1-based
/// line number and the byte offset of its first character. Lines are cut
/// through a kScanWindowBytes window. Throws IngestError, labeled with
/// the source's name, on the first malformed line. A template parameter
/// rather than std::function: the call sits in the per-line loop of every
/// file open.
template <typename OnRow>
Layout scan(const ByteSource& bytes, OnRow&& on_row) {
  Cursor at{.file = bytes.name()};
  Layout out;
  bool have_header = false;
  std::int32_t max_rank = -1;
  LineCutter lines(bytes, 0, bytes.size(), 0, kScanWindowBytes);
  std::string_view line;
  std::uint64_t line_start = 0;  // offset of line's first byte
  for (; lines.next(line); line_start = lines.offset()) {
    ++at.line;
    if (line.empty()) {
      continue;
    }
    if (line.front() == '#') {
      if (!have_header) {
        handle_directive(trim(line.substr(1)), out.declared_nranks, at);
      }
      continue;
    }
    if (!have_header) {
      const std::optional<HeaderInfo> header = match_header(line);
      if (!header) {
        reject_header(line, at);
      }
      out.header = *header;
      out.header_line = at.line;
      out.data_start = lines.offset();
      have_header = true;
      continue;
    }
    const Row row = parse_row(line, out.header, out.declared_nranks, at);
    max_rank = std::max({max_rank, static_cast<std::int32_t>(row.rank), row.rec.sender});
    on_row(out.header, row, at.line, line_start);
  }
  if (!have_header) {
    throw IngestError(
        {.file = bytes.name(), .line = 0, .field = {}, .reason = "no header line found"});
  }
  out.nranks = out.declared_nranks.value_or(std::max(max_rank + 1, 1));
  return out;
}

}  // namespace mpipred::ingest::csv_line
