#pragma once

// Line-level CSV plumbing shared by the simulator-side writer
// (trace/csv.cpp) and the ingest boundary's one line scanner
// (ingest/csv_line.hpp), so writer and reader of the native schema cannot
// drift on the header or on how a line is split.

#include <array>
#include <cstddef>
#include <string_view>

namespace mpipred::trace::csv_util {

/// The native schema's column header — the one literal write_csv and the
/// ingest readers agree on.
inline constexpr std::string_view kNativeHeader = "rank,level,time_ns,sender,bytes,kind,op";

/// Files written on Windows (or piped through tools that normalize line
/// endings) terminate lines with "\r\n"; getline leaves the '\r' behind.
[[nodiscard]] inline std::string_view strip_cr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') {
    line.remove_suffix(1);
  }
  return line;
}

/// The fields of one line: views of the first kMaxFields, plus the true
/// field count (which may exceed kMaxFields, so a "has N fields" diagnostic
/// still names N). Indexing past min(size(), kMaxFields) is not allowed.
struct Fields {
  static constexpr std::size_t kMaxFields = 8;

  std::array<std::string_view, kMaxFields> views{};
  std::size_t count = 0;

  [[nodiscard]] std::size_t size() const noexcept { return count; }
  [[nodiscard]] std::string_view operator[](std::size_t i) const noexcept { return views[i]; }
};

/// Splits on ',' without collapsing empty fields ("a,,b" -> {"a","","b"}).
/// Allocation-free: it runs on every data line of every scan and parse.
[[nodiscard]] inline Fields split(std::string_view line) {
  Fields fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (fields.count < Fields::kMaxFields) {
      fields.views[fields.count] =
          line.substr(start, comma == std::string_view::npos ? comma : comma - start);
    }
    ++fields.count;
    if (comma == std::string_view::npos) {
      return fields;
    }
    start = comma + 1;
  }
}

}  // namespace mpipred::trace::csv_util
