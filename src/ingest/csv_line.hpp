#pragma once

// Line-level grammar of the two ingest CSV dialects and the one scanner
// that applies it: the materializing parser (source.cpp) and the
// incremental streaming reader (streaming.cpp) both validate a file
// through csv_line::scan, so the two paths can never drift on what a valid
// preamble directive, header, or data line is. Internal to src/ingest/;
// consumers outside the ingest boundary go through CsvTraceSource or
// EventStream instead.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <istream>
#include <optional>
#include <string>
#include <string_view>

#include "ingest/source.hpp"
#include "trace/csv_util.hpp"
#include "trace/event.hpp"

namespace mpipred::ingest::csv_line {

inline constexpr std::string_view kNativeHeader = trace::csv_util::kNativeHeader;
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

template <typename T>
[[nodiscard]] T parse_int(std::string_view text, const char* field, const Cursor& at) {
  T value{};
  const auto* begin = text.data();
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    at.reject(field, "malformed integer '" + std::string(text) + "'");
  }
  return value;
}

template <typename T>
[[nodiscard]] T parse_in_range(std::string_view text, const char* field, T lo, T hi_exclusive,
                               const Cursor& at) {
  const T value = parse_int<T>(text, field, at);
  if (value < lo || value >= hi_exclusive) {
    at.reject(field, "value " + std::to_string(value) + " outside [" + std::to_string(lo) + ", " +
                         std::to_string(hi_exclusive) + ")");
  }
  return value;
}

/// Rank-valued field: non-negative, and under the declared rank count when
/// the file carries a `# nranks` directive (otherwise bounds are inferred
/// after the parse). `min` is -1 for sender fields (kUnresolvedSender).
[[nodiscard]] inline std::int32_t parse_rank(std::string_view text, const char* field,
                                             std::int32_t min,
                                             const std::optional<int>& declared_nranks,
                                             const Cursor& at) {
  const auto value = parse_int<std::int32_t>(text, field, at);
  if (value < min) {
    at.reject(field, "rank " + std::to_string(value) + " below " + std::to_string(min));
  }
  if (value >= kMaxRanks) {
    at.reject(field, "rank " + std::to_string(value) + " above the supported maximum " +
                         std::to_string(kMaxRanks - 1));
  }
  if (declared_nranks && value >= *declared_nranks) {
    at.reject(field, "rank " + std::to_string(value) + " outside declared nranks " +
                         std::to_string(*declared_nranks));
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
    const int n = parse_int<int>(value, "nranks", at);
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
  if (line == kNativeHeader) {
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
                    std::string(kNativeHeader) + "', csv-flat '" + std::string(kFlatHeader) +
                    "[,kind]')");
}

[[nodiscard]] inline std::size_t expected_fields(const HeaderInfo& header) {
  return header.dialect == Dialect::Native ? 7 : (header.flat_has_kind ? 5 : 4);
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
/// malformed content.
[[nodiscard]] inline Row parse_row(std::string_view line, const HeaderInfo& header,
                                   const std::optional<int>& declared_nranks, const Cursor& at) {
  const auto fields = trace::csv_util::split(line);
  if (fields.size() != expected_fields(header)) {
    at.reject("", "has " + std::to_string(fields.size()) + " fields, expected " +
                      std::to_string(expected_fields(header)));
  }
  Row row;
  if (header.dialect == Dialect::Native) {
    row.rank = parse_rank(fields[0], "rank", 0, declared_nranks, at);
    row.level = static_cast<trace::Level>(
        parse_in_range<int>(fields[1], "level", 0, trace::kNumLevels, at));
    row.rec.time = sim::SimTime{parse_int<std::int64_t>(fields[2], "time_ns", at)};
    row.rec.sender =
        parse_rank(fields[3], "sender", trace::kUnresolvedSender, declared_nranks, at);
    row.rec.bytes = parse_int<std::int64_t>(fields[4], "bytes", at);
    if (row.rec.bytes < 0) {
      at.reject("bytes", "negative byte count " + std::to_string(row.rec.bytes));
    }
    row.rec.kind = static_cast<trace::OpKind>(parse_in_range<int>(fields[5], "kind", 0, 2, at));
    row.rec.op =
        static_cast<trace::Op>(parse_in_range<int>(fields[6], "op", 0, trace::kNumOps, at));
  } else {
    row.rec.time = sim::SimTime{parse_int<std::int64_t>(fields[0], "time_ns", at)};
    row.rec.sender = parse_rank(fields[1], "sender", 0, declared_nranks, at);
    row.rank = parse_rank(fields[2], "receiver", 0, declared_nranks, at);
    row.level = trace::Level::Physical;
    row.rec.bytes = parse_int<std::int64_t>(fields[3], "bytes", at);
    if (row.rec.bytes < 0) {
      at.reject("bytes", "negative byte count " + std::to_string(row.rec.bytes));
    }
    if (header.flat_has_kind) {
      row.rec.kind = static_cast<trace::OpKind>(parse_in_range<int>(fields[4], "kind", 0, 2, at));
    }
    row.rec.op = trace::Op::Recv;
  }
  return row;
}

/// Opens `path` for reading; throws IngestError when it cannot.
[[nodiscard]] inline std::ifstream open_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw IngestError({.file = path, .line = 0, .field = {}, .reason = "cannot open for reading"});
  }
  return is;
}

/// What a scan learned about a file besides its data rows.
struct Layout {
  HeaderInfo header;
  std::optional<int> declared_nranks;
  /// Declared by `# nranks`, or inferred as max observed rank + 1.
  int nranks = 1;
  /// Line number of the header, and the byte offset just past it.
  std::size_t header_line = 0;
  std::uint64_t data_start = 0;
  /// Byte offset at the end of the scan (the file size).
  std::uint64_t end = 0;
};

/// The one line scanner of both dialects: validates every line of `is`
/// (directives and comments before the header, the header itself, then
/// comments, blanks, and data rows; CRLF accepted) and calls
/// `on_row(header, row, line, offset)` for each data row with its 1-based
/// line number and the byte offset of its first character. Throws
/// IngestError, labeled with `file`, on the first malformed line. A
/// template parameter rather than std::function: the call sits in the
/// per-line loop of every file open.
template <typename OnRow>
Layout scan(std::istream& is, const std::string& file, OnRow&& on_row) {
  Cursor at{.file = file};
  Layout out;
  bool have_header = false;
  std::int32_t max_rank = -1;
  std::uint64_t offset = 0;
  std::string raw;
  while (std::getline(is, raw)) {
    ++at.line;
    const std::uint64_t line_start = offset;
    offset += raw.size() + (is.eof() ? 0 : 1);
    const std::string_view line = trace::csv_util::strip_cr(raw);
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
      out.data_start = offset;
      have_header = true;
      continue;
    }
    const Row row = parse_row(line, out.header, out.declared_nranks, at);
    max_rank = std::max({max_rank, static_cast<std::int32_t>(row.rank), row.rec.sender});
    on_row(out.header, row, at.line, line_start);
  }
  if (!have_header) {
    throw IngestError({.file = file, .line = 0, .field = {}, .reason = "no header line found"});
  }
  out.nranks = out.declared_nranks.value_or(std::max(max_rank + 1, 1));
  out.end = offset;
  return out;
}

}  // namespace mpipred::ingest::csv_line
