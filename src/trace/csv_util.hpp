#pragma once

// Line-level CSV plumbing shared by the simulator-side writer
// (trace/csv.cpp) and the ingest boundary's one line scanner
// (ingest/csv_line.hpp), so writer and reader of the native schema cannot
// drift on the header or on how a line is split.

#include <string_view>
#include <vector>

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

/// Splits on ',' without collapsing empty fields ("a,,b" -> {"a","","b"}).
[[nodiscard]] inline std::vector<std::string_view> split(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      fields.push_back(line.substr(start));
      break;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  return fields;
}

}  // namespace mpipred::trace::csv_util
