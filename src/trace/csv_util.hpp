#pragma once

// Line-level CSV plumbing shared by the simulator-side writer
// (trace/csv.cpp) and the ingest boundary's one line scanner
// (ingest/csv_line.hpp), so writer and reader of the native schema cannot
// drift on the header, and every ingest line path strips a CR one way.

#include <string_view>

namespace mpipred::trace::csv_util {

/// The native schema's column header — the one literal write_csv and the
/// ingest readers agree on.
inline constexpr std::string_view kNativeHeader = "rank,level,time_ns,sender,bytes,kind,op";

/// Files written on Windows (or piped through tools that normalize line
/// endings) terminate lines with "\r\n"; cutting at '\n' leaves the '\r'.
[[nodiscard]] inline std::string_view strip_cr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') {
    line.remove_suffix(1);
  }
  return line;
}

}  // namespace mpipred::trace::csv_util
