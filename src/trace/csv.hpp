#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "trace/store.hpp"

namespace mpipred::trace {

/// The native schema's column header: the one literal write_csv writes
/// and the ingest scanner (src/ingest/csv_line.hpp) matches.
inline constexpr std::string_view kNativeHeader = "rank,level,time_ns,sender,bytes,kind,op";

/// Writes every record of `store` as CSV with the header kNativeHeader
/// (`rank,level,time_ns,sender,bytes,kind,op`), preceded by the versioned
/// `# mpipred-trace: v1` / `# nranks: N` preamble (so re-ingestion
/// recovers the rank count even when the top ranks logged nothing).
/// Streams are emitted rank by rank, level by level, preserving in-stream
/// order. src/ingest/ (ingest::open_trace) is the reader.
void write_csv(std::ostream& os, const TraceStore& store);
void write_csv_file(const std::string& path, const TraceStore& store);

}  // namespace mpipred::trace
