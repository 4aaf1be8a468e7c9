// The trace-ingestion boundary: dialect parsing, per-line diagnostics,
// and the round-trip determinism gates — a simulator trace exported via
// write_csv (or as a flat capture) and re-ingested must drive the engine
// to a byte-identical report for every registry predictor, shard count,
// and batch size, streamed or materialized. The `--trace` tools rely on
// these gates instead of re-running them.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/app.hpp"
#include "common/error.hpp"
#include "engine/engine.hpp"
#include "engine/registry.hpp"
#include "ingest/csv_line.hpp"
#include "ingest/replay.hpp"
#include "ingest/source.hpp"
#include "ingest/streaming.hpp"
#include "ingest/transform.hpp"
#include "ingest/verify.hpp"
#include "mpi/world.hpp"
#include "trace/csv.hpp"
#include "trace/merge.hpp"
#include "trace/stats.hpp"

namespace mpipred::ingest {
namespace {

CsvTraceSource parse(const std::string& text) {
  std::stringstream ss(text);
  return open_trace_stream(ss, "<test>");
}

Diagnostic reject(const std::string& text) {
  std::stringstream ss(text);
  try {
    (void)open_trace_stream(ss, "<test>");
  } catch (const IngestError& e) {
    return e.where();
  }
  ADD_FAILURE() << "expected IngestError for:\n" << text;
  return {};
}

std::string write_temp_file(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream os(path);
  os << text;
  return path;
}

constexpr const char* kNative = "rank,level,time_ns,sender,bytes,kind,op\n";
constexpr const char* kFlat = "time_ns,sender,receiver,bytes\n";

TEST(CsvSource, NativeDialectMatchesStoreAndEngineEvents) {
  trace::TraceStore store(3);
  store.append(0, trace::Level::Logical,
               {.time = sim::SimTime{5}, .bytes = 100, .sender = 1});
  store.append(0, trace::Level::Physical,
               {.time = sim::SimTime{9}, .bytes = 200, .sender = 2});
  store.append(2, trace::Level::Logical,
               {.time = sim::SimTime{1},
                .bytes = 50,
                .sender = 0,
                .kind = trace::OpKind::Collective,
                .op = trace::Op::Allreduce});
  std::stringstream csv;
  trace::write_csv(csv, store);

  const auto source = open_trace_stream(csv, "<test>");
  EXPECT_EQ(source.format(), "csv");
  EXPECT_EQ(source.nranks(), 3);  // declared by write_csv's preamble
  for (int r = 0; r < 3; ++r) {
    for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
      const auto a = store.records(r, level);
      const auto b = source.store().records(r, level);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b[i]);
      }
      EXPECT_EQ(source.events(level), engine::events_from_trace(store, level));
    }
  }
}

TEST(CsvSource, DiagnosticsNameFileLineFieldAndReason) {
  // One malformed line per validated field; every rejection must carry the
  // exact location instead of asserting or producing a bogus record.
  const struct {
    const char* line;
    const char* field;
  } corpus[] = {
      {"0,0,1,2,3,0,99", "op"},       // out-of-range enum (csv.cpp:103 bug)
      {"0,0,1,2,3,0,-1", "op"},       //
      {"0,0,1,2,3,0,12", "op"},       // first value past the last op
      {"0,0,1,2,3,7,0", "kind"},      //
      {"0,9,1,2,3,0,0", "level"},     //
      {"0,7,1,2,3,0,0", "level"},     //
      {"-1,0,1,2,3,0,0", "rank"},     // negative receiver rank
      {"0,0,1,-2,3,0,0", "sender"},   // below kUnresolvedSender
      {"0,0,xx,2,3,0,0", "time_ns"},  // malformed integer
      {"0,0,1,2,-3,0,0", "bytes"},    // negative byte count
  };
  for (const auto& c : corpus) {
    const Diagnostic d = reject(std::string(kNative) + c.line + "\n");
    EXPECT_EQ(d.file, "<test>");
    EXPECT_EQ(d.line, 2u) << c.line;
    EXPECT_EQ(d.field, c.field) << c.line;
    EXPECT_FALSE(d.reason.empty());
  }
  const Diagnostic short_line = reject(std::string(kNative) + "0,0,1,2\n");
  EXPECT_EQ(short_line.line, 2u);
  EXPECT_NE(short_line.reason.find("expected 7"), std::string::npos);
  // The last valid op still parses.
  const auto last_op = parse(std::string(kNative) + "0,0,1,2,3,0," +
                             std::to_string(trace::kNumOps - 1) + "\n");
  EXPECT_EQ(last_op.store().records(0, trace::Level::Logical)[0].op, trace::Op::Scan);
}

// The decoder keeps values of at most seven fields but always counts them
// all, so the count diagnostic names the true number on long lines too.
TEST(CsvSource, FieldCountDiagnosticNamesTheTrueCount) {
  EXPECT_EQ(reject(std::string(kNative) + "0,0,1,2\n").reason, "has 4 fields, expected 7");
  EXPECT_EQ(reject(std::string(kNative) + "0,0,1,2,3,0,0,0\n").reason, "has 8 fields, expected 7");
  EXPECT_EQ(reject(std::string(kNative) + "0,0,1,2,3,0,0,0,0\n").reason,
            "has 9 fields, expected 7");
  EXPECT_EQ(reject(std::string(kNative) + std::string(19, ',') + "\n").reason,
            "has 20 fields, expected 7");
  EXPECT_EQ(reject(std::string(kFlat) + "1,2,3\n").reason, "has 3 fields, expected 4");
  EXPECT_EQ(reject(std::string(kFlat) + "1,2,3,4,5\n").reason, "has 5 fields, expected 4");
}

TEST(CsvSource, ToStringFormatsEditorFriendlyLocation) {
  const Diagnostic d = reject(std::string(kNative) + "0,0,1,2,3,0,99\n");
  EXPECT_EQ(to_string(d).rfind("<test>:2: field 'op': ", 0), 0u) << to_string(d);
}

TEST(CsvSource, CrlfAndCommentsAccepted) {
  const auto source = parse("# exported by some windows tool\r\n"
                            "rank,level,time_ns,sender,bytes,kind,op\r\n"
                            "0,0,1,1,64,0,0\r\n"
                            "# a comment between data lines\r\n"
                            "1,1,2,0,128,1,4\r\n");
  EXPECT_EQ(source.store().total_records(trace::Level::Logical), 1u);
  EXPECT_EQ(source.store().total_records(trace::Level::Physical), 1u);
  EXPECT_EQ(source.store().records(1, trace::Level::Physical)[0].op, trace::Op::Allreduce);
}

TEST(CsvSource, VersionDirectiveGatesUnsupportedSchemas) {
  EXPECT_NO_THROW(parse(std::string("# mpipred-trace: v1\n") + kNative));
  const Diagnostic d = reject(std::string("# mpipred-trace: v7\n") + kNative);
  EXPECT_EQ(d.line, 1u);
  EXPECT_NE(d.reason.find("v7"), std::string::npos);
}

TEST(CsvSource, NranksDirectiveDeclaresAndBounds) {
  const auto source = parse(std::string("# nranks: 6\n") + kNative + "0,0,1,1,64,0,0\n");
  EXPECT_EQ(source.nranks(), 6);  // declared beats inference (max rank 1)

  for (const char* rank : {"2", "5", "1000"}) {
    const Diagnostic rank_over =
        reject(std::string("# nranks: 2\n") + kNative + rank + ",0,1,1,64,0,0\n");
    EXPECT_EQ(rank_over.field, "rank") << rank;
    EXPECT_EQ(rank_over.line, 3u) << rank;
  }
  const Diagnostic sender_over =
      reject(std::string("# nranks: 2\n") + kNative + "0,0,1,5,64,0,0\n");
  EXPECT_EQ(sender_over.field, "sender");
  const Diagnostic bad_count = reject(std::string("# nranks: 0\n") + kNative);
  EXPECT_EQ(bad_count.field, "nranks");
}

// write_csv's `# nranks` preamble keeps the rank count faithful even when
// the top ranks logged nothing — without it, re-ingestion would shrink a
// 5-rank world to 1 and skew every per-process figure downstream.
TEST(CsvSource, IdleTopRanksSurviveTheRoundTrip) {
  trace::TraceStore store(5);
  store.append(0, trace::Level::Physical, {.time = sim::SimTime{1}, .bytes = 8, .sender = 1});
  std::stringstream csv;
  trace::write_csv(csv, store);
  const auto source = open_trace_stream(csv, "<test>");
  EXPECT_EQ(source.nranks(), 5);
}

// Hostile rank values must become diagnostics, not aborts: the rank count
// sizes the TraceStore, so an unchecked INT32_MAX would mean signed
// overflow, and a merely huge value an allocation failure or store assert.
TEST(CsvSource, AstronomicalRanksAreRejectedNotAllocated) {
  EXPECT_EQ(reject(std::string(kFlat) + "1,0,2147483647,64\n").field, "receiver");
  EXPECT_EQ(reject(std::string(kFlat) + "1,2147483647,0,64\n").field, "sender");
  EXPECT_EQ(reject(std::string(kNative) + "2000000000,0,1,0,8,0,0\n").field, "rank");
  EXPECT_EQ(reject(std::string("# nranks: 2000000000\n") + kFlat).field, "nranks");
}

TEST(CsvSource, FlatDialectOrdersByTimeAndInfersRanks) {
  const auto source = parse(std::string(kFlat) + "10,1,0,100\n5,2,0,200\n20,0,3,50\n");
  EXPECT_EQ(source.format(), "csv-flat");
  EXPECT_EQ(source.nranks(), 4);  // receiver 3 + 1
  EXPECT_EQ(source.levels(), std::vector<trace::Level>{trace::Level::Physical});
  EXPECT_TRUE(source.events(trace::Level::Logical).empty());

  const auto events = source.events(trace::Level::Physical);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], (engine::Event{.source = 2, .destination = 0, .tag = 0, .bytes = 200}));
  EXPECT_EQ(events[1], (engine::Event{.source = 1, .destination = 0, .tag = 0, .bytes = 100}));
  EXPECT_EQ(events[2], (engine::Event{.source = 0, .destination = 3, .tag = 0, .bytes = 50}));
}

TEST(CsvSource, FlatDialectKindColumnAndValidation) {
  const auto source =
      parse("time_ns,sender,receiver,bytes,kind\n1,0,1,64,1\n2,1,0,32,0\n");
  const auto events = source.events(trace::Level::Physical);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].tag, 1);  // OpKind rides in the tag dimension
  EXPECT_EQ(events[1].tag, 0);

  EXPECT_EQ(reject(std::string(kFlat) + "1,-1,0,64\n").field, "sender");  // no wildcards in flat
  EXPECT_EQ(reject(std::string(kFlat) + "1,0,-1,64\n").field, "receiver");
  EXPECT_EQ(reject("time_ns,sender,receiver,bytes,kind\n1,0,1,64,9\n").field, "kind");
}

TEST(CsvSource, UnknownHeaderListsKnownFormats) {
  for (const char* text : {"who,knows,what\n1,2,3\n", "not,a,header\n"}) {
    const Diagnostic d = reject(text);
    EXPECT_EQ(d.line, 1u) << text;
    EXPECT_NE(d.reason.find("csv"), std::string::npos) << text;
    EXPECT_NE(d.reason.find("csv-flat"), std::string::npos) << text;
  }
}

// ---------------------------------------------------------------------------
// write_csv -> CSV source: the native dialect round-trips every record field.

trace::Record record(std::int32_t sender, std::int64_t bytes, trace::OpKind kind,
                     trace::Op op, std::int64_t t) {
  return {.time = sim::SimTime{t}, .bytes = bytes, .sender = sender, .kind = kind, .op = op};
}

CsvTraceSource round_trip(const trace::TraceStore& store) {
  std::stringstream csv;
  trace::write_csv(csv, store);
  return open_trace_stream(csv, "<test>");
}

TEST(CsvSource, RoundTripsAllFields) {
  trace::TraceStore store(2);
  store.append(0, trace::Level::Logical,
               record(1, 100, trace::OpKind::PointToPoint, trace::Op::Recv, 5));
  store.append(0, trace::Level::Physical,
               record(1, 100, trace::OpKind::PointToPoint, trace::Op::Recv, 17));
  store.append(1, trace::Level::Logical,
               record(trace::kUnresolvedSender, 0, trace::OpKind::Collective,
                      trace::Op::Alltoallv, 9));

  const auto source = round_trip(store);
  const trace::TraceStore& back = source.store();
  for (int r = 0; r < 2; ++r) {
    for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
      const auto a = store.records(r, level);
      const auto b = back.records(r, level);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b[i]);
      }
    }
  }
}

// Regression: CRLF-terminated files (Windows exports, curl -o) used to be
// rejected with "missing or unexpected header".
TEST(CsvSource, RoundTripsThroughCrlfLineEndings) {
  trace::TraceStore store(2);
  store.append(0, trace::Level::Logical,
               record(1, 100, trace::OpKind::PointToPoint, trace::Op::Recv, 5));
  store.append(1, trace::Level::Physical,
               record(0, 7, trace::OpKind::Collective, trace::Op::Bcast, 6));
  std::stringstream unix_csv;
  trace::write_csv(unix_csv, store);
  std::string text = unix_csv.str();
  for (std::size_t pos = 0; (pos = text.find('\n', pos)) != std::string::npos; pos += 2) {
    text.replace(pos, 1, "\r\n");
  }
  const auto source = parse(text);
  const trace::TraceStore& back = source.store();
  EXPECT_EQ(back.records(0, trace::Level::Logical)[0], store.records(0, trace::Level::Logical)[0]);
  EXPECT_EQ(back.records(1, trace::Level::Physical)[0],
            store.records(1, trace::Level::Physical)[0]);
}

// Property: write_csv -> CSV source is the identity on arbitrary store
// contents — time ties, empty streams, both levels, wildcard senders.
TEST(CsvSource, RandomizedRoundTripProperty) {
  std::mt19937 rng(20030515);  // fixed seed: reproducible corpus
  for (int iteration = 0; iteration < 25; ++iteration) {
    const int nranks = std::uniform_int_distribution<int>(1, 5)(rng);
    trace::TraceStore store(nranks);
    for (int rank = 0; rank < nranks; ++rank) {
      for (const trace::Level level : {trace::Level::Logical, trace::Level::Physical}) {
        const int count = std::uniform_int_distribution<int>(0, 8)(rng);
        for (int i = 0; i < count; ++i) {
          trace::Record rec;
          // Tight time range on purpose: ties across ranks are common.
          rec.time = sim::SimTime{std::uniform_int_distribution<std::int64_t>(0, 3)(rng)};
          rec.sender = std::uniform_int_distribution<std::int32_t>(trace::kUnresolvedSender,
                                                                   nranks - 1)(rng);
          rec.bytes = std::uniform_int_distribution<std::int64_t>(0, 1 << 20)(rng);
          rec.kind = static_cast<trace::OpKind>(std::uniform_int_distribution<int>(0, 1)(rng));
          rec.op = static_cast<trace::Op>(
              std::uniform_int_distribution<int>(0, trace::kNumOps - 1)(rng));
          store.append(rank, level, rec);
        }
      }
    }
    const auto source = round_trip(store);
    const trace::TraceStore& back = source.store();
    ASSERT_EQ(back.nranks(), nranks) << "iteration " << iteration;
    for (int rank = 0; rank < nranks; ++rank) {
      for (const trace::Level level : {trace::Level::Logical, trace::Level::Physical}) {
        const auto a = store.records(rank, level);
        const auto b = back.records(rank, level);
        ASSERT_EQ(a.size(), b.size()) << "iteration " << iteration << " rank " << rank;
        for (std::size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i], b[i]) << "iteration " << iteration << " rank " << rank << " #" << i;
        }
      }
    }
  }
}

TEST(CsvSource, FileRoundTrip) {
  trace::TraceStore store(1);
  store.append(0, trace::Level::Logical,
               record(0, 64, trace::OpKind::PointToPoint, trace::Op::Recv, 0));
  const std::string path = ::testing::TempDir() + "/mpipred_csv_round_trip.csv";
  trace::write_csv_file(path, store);
  const auto source = open_trace(path);
  EXPECT_EQ(source.store().records(0, trace::Level::Logical).size(), 1u);
  EXPECT_THROW((void)open_trace("/nonexistent/dir/x.csv"), Error);
}

TEST(CsvSource, EmptyFileNeedsHeader) {
  const Diagnostic d = reject("# just a comment\n");
  EXPECT_EQ(d.line, 0u);
  EXPECT_NE(d.reason.find("header"), std::string::npos);
}

// scan cuts lines through a 64 KiB window: lines cut by a window's end,
// comments longer than several windows, CRLF endings and an unterminated
// last line must keep the line numbers and byte offsets of a plain split
// on '\n', whether the bytes come from memory or from the file.
TEST(CsvSource, ScanKeepsLineNumbersAndOffsetsAcrossBlocks) {
  const std::size_t block = csv_line::kScanWindowBytes;
  std::string text = "# mpipred-trace: v1\r\n# " + std::string(2 * block + 7, 'c') + "\n" +
                     std::string(kNative);
  for (int i = 0; text.size() < 4 * block; ++i) {
    if (i == 100) {
      text += "# " + std::string(block + 3, 'd') + "\n";
    }
    text += std::to_string(i % 4) + ",1," + std::to_string(i) + "," + std::to_string(i % 3) +
            ",64,0,0" + (i % 5 == 0 ? "\r\n" : "\n");
  }
  text += "3,1,999999,2,16,0,0";  // no trailing newline
  // The reference: every data line's number and offset by a plain split.
  std::vector<std::pair<std::size_t, std::uint64_t>> want;
  std::size_t number = 0;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t eol = std::min(text.find('\n', at), text.size());
    ++number;
    if (number > 3 && text[at] != '#') {
      want.emplace_back(number, at);
    }
    at = eol + 1;
  }
  const csv_line::TextSource in_memory(text, "<test>");
  const csv_line::FileSource on_disk(write_temp_file("scan_windows.csv", text));
  for (const csv_line::ByteSource* bytes : {static_cast<const csv_line::ByteSource*>(&in_memory),
                                            static_cast<const csv_line::ByteSource*>(&on_disk)}) {
    SCOPED_TRACE(bytes->name());
    std::vector<std::pair<std::size_t, std::uint64_t>> got;
    const csv_line::Layout layout =
        csv_line::scan(*bytes, [&](const auto&, const csv_line::Row&, std::size_t line,
                                   std::uint64_t offset) { got.emplace_back(line, offset); });
    EXPECT_EQ(got, want);
    EXPECT_EQ(layout.header_line, 3u);
    EXPECT_EQ(layout.data_start, text.find(kNative) + std::string_view(kNative).size());
    EXPECT_EQ(bytes->size(), text.size());
  }
  EXPECT_EQ(parse(text).store().records(3, trace::Level::Physical).back().bytes, 16);
}

// ---------------------------------------------------------------------------
// Differential oracle for the row decoder. csv_line::parse_row decodes a
// data line in one forward pass; the parser it replaced (split on ',',
// then std::from_chars per field) is kept below verbatim as the
// specification. Over a fixed-seed mutation corpus in every dialect, the
// decoder must return the same Row or throw the same diagnostic.

namespace reference {

using csv_line::Cursor;
using csv_line::Dialect;
using csv_line::expected_fields;
using csv_line::HeaderInfo;
using csv_line::kMaxRanks;
using csv_line::Row;

struct Fields {
  static constexpr std::size_t kMaxFields = 8;

  std::array<std::string_view, kMaxFields> views{};
  std::size_t count = 0;

  [[nodiscard]] std::size_t size() const noexcept { return count; }
  [[nodiscard]] std::string_view operator[](std::size_t i) const noexcept { return views[i]; }
};

[[nodiscard]] Fields split(std::string_view line) {
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

[[nodiscard]] std::int32_t parse_rank(std::string_view text, const char* field, std::int32_t min,
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

[[nodiscard]] Row parse_row(std::string_view line, const HeaderInfo& header,
                            const std::optional<int>& declared_nranks, const Cursor& at) {
  const auto fields = split(line);
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

}  // namespace reference

// What a parser made of one line: the row's fields, or the full diagnostic
// (file:line: field: reason) it threw.
template <typename Parse>
std::string outcome_of(Parse&& parse) {
  try {
    const csv_line::Row row = parse();
    return "row " + std::to_string(row.rank) + "," + std::to_string(static_cast<int>(row.level)) +
           "," + std::to_string(row.rec.time.count()) + "," + std::to_string(row.rec.sender) +
           "," + std::to_string(row.rec.bytes) + "," +
           std::to_string(static_cast<int>(row.rec.kind)) + "," +
           std::to_string(static_cast<int>(row.rec.op));
  } catch (const IngestError& e) {
    return "error " + to_string(e.where());
  }
}

// Values each column is tried with: the int32 and int64 limits and one
// past them, 19- and 20-digit runs, leading zeros, rank bounds, and the
// signs, spaces and stray bytes from_chars refuses.
const std::vector<std::string> kEdgeTokens = {
    "0", "1", "-0", "-", "+1", " 1", "1 ", "", "-1", "-2", "15", "16", "17", "4194303", "4194304",
    "2147483647", "2147483648", "-2147483648", "-2147483649", "4294967296",
    "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "-9223372036854775809", "1234567890123456789", "12345678901234567890",
    "-1234567890123456789", "99999999999999999999", "18446744073709551615",
    "18446744073709551616", "000000000000000000000000000042", "-0000000000000000000002147483648",
    "-0000000000000000000002147483649", "00000000000000000009223372036854775807",
    "00000000000000000009223372036854775808", "000000000000000000000", "0x10", "1e3", "1.5",
    "--1", "-+1", "12a", "a12", "1\r", "\t1", std::string("1\0", 2)};

struct OracleDialect {
  csv_line::HeaderInfo header;
  std::optional<int> declared_nranks;
};

std::vector<OracleDialect> oracle_dialects() {
  std::vector<OracleDialect> out;
  for (const std::optional<int> nranks : {std::optional<int>{}, std::optional<int>{16}}) {
    out.push_back({{.dialect = csv_line::Dialect::Native}, nranks});
    out.push_back({{.dialect = csv_line::Dialect::Flat}, nranks});
    out.push_back({{.dialect = csv_line::Dialect::Flat, .flat_has_kind = true}, nranks});
  }
  return out;
}

std::string join_fields(const std::vector<std::string>& fields) {
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    line += (i == 0 ? "" : ",") + fields[i];
  }
  return line;
}

// A line of the dialect with plausible values, some of them just outside a
// column's range (rank 16 against `# nranks: 16`, level 2, sender -2, ...).
std::vector<std::string> random_fields(std::mt19937_64& rng, const csv_line::HeaderInfo& header) {
  const auto below = [&rng](std::uint64_t n) { return static_cast<std::int64_t>(rng() % n); };
  // 1 to 19 digits, leading zeros included: some overflow int64.
  std::string time(1 + static_cast<std::size_t>(below(19)), '0');
  for (char& digit : time) {
    digit = static_cast<char>('0' + below(10));
  }
  const std::string bytes = std::to_string(below(64) == 0 ? -below(1000) : below(1 << 20));
  const std::string kind = std::to_string(below(3));
  if (header.dialect == csv_line::Dialect::Native) {
    return {std::to_string(below(18)), std::to_string(below(3)), time,
            std::to_string(below(19) - 2), bytes, kind, std::to_string(below(trace::kNumOps + 1))};
  }
  std::vector<std::string> fields = {time, std::to_string(below(18) - 1),
                                     std::to_string(below(18) - 1), bytes};
  if (header.flat_has_kind) {
    fields.push_back(kind);
  }
  return fields;
}

// One random corruption of `line`: a byte flip, a truncation, a dropped or
// doubled comma, an edge token in place of a field, a trailing '\r', or a
// field count of 8, 9 or 20.
void mutate(std::mt19937_64& rng, std::string& line) {
  static constexpr char kFlipBytes[] = {'0', '9', ',', '-', '+', ' ', '\r', '\t', 'x',
                                        '.', '\0', '\x7f', '\x80', '\xff'};
  const auto below = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  const std::size_t comma = line.empty() ? std::string::npos : line.find(',', below(line.size()));
  switch (below(7)) {
    case 0:
      if (!line.empty()) {
        line[below(line.size())] = kFlipBytes[below(sizeof kFlipBytes)];
      }
      break;
    case 1:
      line.resize(below(line.size() + 1));
      break;
    case 2:
      if (comma != std::string::npos) {
        line.erase(comma, 1);
      }
      break;
    case 3:
      if (comma != std::string::npos) {
        line.insert(comma, 1, ',');
      }
      break;
    case 4: {
      // Replace the field after that comma (the first field if none).
      const std::size_t begin = comma == std::string::npos ? 0 : comma + 1;
      const std::size_t end = std::min(line.find(',', begin), line.size());
      line.replace(begin, end - begin, kEdgeTokens[below(kEdgeTokens.size())]);
      break;
    }
    case 5:
      line += '\r';
      break;
    default: {
      const auto fields = static_cast<std::size_t>(std::count(line.begin(), line.end(), ',')) + 1;
      const std::size_t want = std::vector<std::size_t>{8, 9, 20}[below(3)];
      for (std::size_t f = fields; f < want; ++f) {
        line += ",0";
      }
      break;
    }
  }
}

TEST(CsvOracle, RowDecoderMatchesReferenceParser) {
  const std::string file = "<oracle>";
  std::size_t line_no = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  const auto check = [&](const std::string& line, const OracleDialect& d) {
    const csv_line::Cursor at{.file = file, .line = ++line_no};
    const std::string want = outcome_of(
        [&] { return reference::parse_row(line, d.header, d.declared_nranks, at); });
    const std::string got = outcome_of(
        [&] { return csv_line::parse_row(line, d.header, d.declared_nranks, at); });
    (want.rfind("row", 0) == 0 ? accepted : rejected) += 1;
    return want == got ? testing::AssertionSuccess()
                       : testing::AssertionFailure() << "line '" << line << "'\n  reference: "
                                                      << want << "\n  decoder:   " << got;
  };
  std::mt19937_64 rng(2003);
  for (const OracleDialect& d : oracle_dialects()) {
    // Every edge token in every column, the rest of the line valid.
    const std::size_t columns = csv_line::expected_fields(d.header);
    for (std::size_t column = 0; column < columns; ++column) {
      for (const std::string& token : kEdgeTokens) {
        std::vector<std::string> fields = random_fields(rng, d.header);
        fields[column] = token;
        ASSERT_TRUE(check(join_fields(fields), d));
      }
    }
    // Random lines under zero to three random corruptions.
    for (int i = 0; i < 3000; ++i) {
      std::string line = join_fields(random_fields(rng, d.header));
      for (std::uint64_t m = rng() % 4; m > 0; --m) {
        mutate(rng, line);
      }
      ASSERT_TRUE(check(line, d));
    }
  }
  // The corpus exercises both outcomes in earnest.
  EXPECT_GT(accepted, 2000u);
  EXPECT_GT(rejected, 10000u);
}

// The acceptance gate: a simulated run exported with write_csv and
// replayed through src/ingest/ produces a byte-identical EngineReport for
// every registry predictor, across shard counts {1, 2, 4}.
TEST(RoundTrip, GateHoldsForEveryRegistryPredictorAcrossShards) {
  mpi::World world(8, apps::paper_world_config(/*seed=*/7));
  const auto outcome =
      apps::run_is(world, apps::AppConfig{.problem_class = apps::ProblemClass::S});
  ASSERT_TRUE(outcome.verified);

  const std::size_t shard_counts[] = {1, 2, 4};
  for (const std::string& predictor : engine::builtin_predictor_names()) {
    const auto gate = verify_csv_round_trip(
        world.traces(), engine::EngineConfig{.predictor = predictor}, shard_counts);
    EXPECT_TRUE(gate.ok) << predictor << ": " << gate.detail;
  }
}

TEST(RoundTrip, EmptyStoreAndEmptyShardListHandled) {
  const trace::TraceStore empty(3);
  const std::size_t shard_counts[] = {1, 2};
  EXPECT_TRUE(verify_csv_round_trip(empty, {}, shard_counts).ok);
  EXPECT_FALSE(verify_csv_round_trip(empty, {}, {}).ok);
}

TEST(AdaptiveReplay, SummaryDeterministicAcrossShardCounts) {
  mpi::World world(8, apps::paper_world_config(/*seed=*/11));
  (void)apps::run_is(world, apps::AppConfig{.problem_class = apps::ProblemClass::S});
  const auto events = engine::events_from_trace(world.traces(), trace::Level::Physical);

  adaptive::RuntimeConfig cfg;
  cfg.service.engine.shards = 1;
  const AdaptiveReplay reference = replay_adaptive(events, cfg);
  EXPECT_NE(reference.summary().find("messages="), std::string::npos);
  EXPECT_GT(reference.stats.messages, 0);
  for (const std::size_t shards : {2, 4}) {
    cfg.service.engine.shards = shards;
    EXPECT_EQ(replay_adaptive(events, cfg).summary(), reference.summary()) << "shards=" << shards;
  }
}

TEST(AdaptiveReplay, SummaryNeverTruncatesExtremeValues) {
  AdaptiveReplay replay;
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  replay.stats = {.messages = 1,
                  .prepost_hits = kMin,
                  .prepost_misses = kMin,
                  .peak_buffers = kMin,
                  .buffer_sum = -1e300,  // avg_buffers prints 300+ digits
                  .eager_sends = kMin,
                  .rendezvous_sends = kMin,
                  .rendezvous_elided = kMin};
  replay.credit_hits = kMin;
  replay.credit_misses = kMin;
  replay.peak_pledged_bytes = kMax;
  const std::string summary = replay.summary();
  EXPECT_GT(summary.size(), 256u);
  EXPECT_TRUE(summary.ends_with(" peak_pledged_bytes=9223372036854775807")) << summary;
}

// ---------------------------------------------------------------------------
// The §2 what-ifs (pre-post buffers, per-stream credits, rendezvous
// elision) as views over replay_adaptive, on synthetic single-receiver
// streams.

std::vector<engine::Event> arrivals(const std::vector<std::int32_t>& senders,
                                    const std::vector<std::int64_t>& sizes, std::size_t n) {
  std::vector<engine::Event> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({.source = senders[i % senders.size()],
                   .destination = 0,
                   .tag = 0,
                   .bytes = sizes[i % sizes.size()]});
  }
  return out;
}

/// splitmix64 finalizer: a fixed aperiodic sequence.
std::uint64_t scramble(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The credit and rendezvous what-ifs plan at the engine's default horizon.
adaptive::RuntimeConfig what_if_config() {
  adaptive::RuntimeConfig cfg;
  cfg.service.engine = engine::EngineConfig{};
  return cfg;
}

TEST(AdaptiveReplay, PredictableCycleEarnsCreditsWithBoundedPledge) {
  const AdaptiveReplay replay =
      replay_adaptive(arrivals({1, 2, 3, 4}, {512, 1024, 512, 2048}, 2000), what_if_config());
  EXPECT_EQ(replay.credit_hits + replay.credit_misses, 2000);
  EXPECT_GT(replay.credit_hit_rate(), 0.95);
  // One granule-rounded credit per flow, far below the stream's volume.
  EXPECT_LT(replay.peak_pledged_bytes, 16 * 1024);
}

TEST(AdaptiveReplay, CreditMustCoverTheLargerOfAlternatingSizes) {
  // A mispredicted size would leave the credit short of the large
  // message; a correct period-2 prediction covers both.
  const AdaptiveReplay replay = replay_adaptive(arrivals({1}, {100, 10000}, 600), what_if_config());
  EXPECT_GT(replay.credit_hit_rate(), 0.9);
}

TEST(AdaptiveReplay, AperiodicStreamDegradesToAsking) {
  std::vector<engine::Event> events;
  for (std::uint64_t i = 0; i < 400; ++i) {
    const std::uint64_t x = scramble(i * 0x9E3779B97F4A7C15ULL + 17);
    events.push_back({.source = static_cast<std::int32_t>(x % 13),
                      .destination = 0,
                      .tag = 0,
                      .bytes = static_cast<std::int64_t>((x >> 8) % 7 + 1) * 100});
  }
  const AdaptiveReplay replay = replay_adaptive(events, what_if_config());
  EXPECT_LT(replay.credit_hit_rate(), 0.5);
  EXPECT_EQ(replay.credit_hits + replay.credit_misses, 400);
}

TEST(AdaptiveReplay, PeriodicLargeMessagesSkipTheHandshake) {
  // Every 4th message is rendezvous-sized and periodic: the receiver can
  // pre-grant it.
  const AdaptiveReplay periodic = replay_adaptive(
      arrivals({1, 2, 3, 7}, {1024, 1024, 1024, 64 * 1024}, 2000), what_if_config());
  EXPECT_EQ(periodic.stats.rendezvous_sends + periodic.stats.rendezvous_elided, 500);
  EXPECT_GT(periodic.stats.elision_rate(), 0.95);
  // Credits score every arrival, rendezvous-sized and elided ones too.
  EXPECT_EQ(periodic.credit_hits + periodic.credit_misses, 2000);

  // Aperiodic large sizes: a predicted size below the actual one must
  // not elide (the pre-granted buffer would be too small).
  std::vector<std::int64_t> sizes;
  for (std::int64_t i = 0; i < 300; ++i) {
    sizes.push_back(20'000 + (i * i * 997) % 50'000);
  }
  const AdaptiveReplay aperiodic = replay_adaptive(arrivals({1}, sizes, 300), what_if_config());
  EXPECT_EQ(aperiodic.stats.rendezvous_sends + aperiodic.stats.rendezvous_elided, 300);
  EXPECT_LT(aperiodic.stats.elision_rate(), 0.1);

  // At or under the threshold nothing is long.
  adaptive::RuntimeConfig high = what_if_config();
  high.policy.rendezvous_threshold_bytes = 64 * 1024;
  const AdaptiveReplay under = replay_adaptive(arrivals({1}, {30'000}, 200), high);
  EXPECT_EQ(under.stats.eager_sends, 200);
  EXPECT_EQ(under.stats.rendezvous_sends + under.stats.rendezvous_elided, 0);
  EXPECT_EQ(under.stats.elision_rate(), 0.0);
}

TEST(AdaptiveReplay, EmptyReplayReadsAllZero) {
  const AdaptiveReplay replay = replay_adaptive({});
  EXPECT_EQ(replay.stats.messages, 0);
  EXPECT_EQ(replay.stats.hit_rate(), 0.0);
  EXPECT_EQ(replay.stats.avg_buffers(), 0.0);
  EXPECT_EQ(replay.stats.elision_rate(), 0.0);
  EXPECT_EQ(replay.credit_hit_rate(), 0.0);
  EXPECT_EQ(replay.summary(),
            "messages=0 hits=0 misses=0 avg_buffers=0.000000 peak_buffers=0 eager=0 "
            "rendezvous=0 elided=0 credit_hits=0 credit_misses=0 peak_pledged_bytes=0");

  const adaptive::PolicyStats lru = replay_lru({}, 4);
  EXPECT_EQ(lru.messages, 0);
  EXPECT_EQ(lru.prepost_hits + lru.prepost_misses, 0);
  EXPECT_EQ(lru.peak_buffers, 0);
  EXPECT_EQ(lru.hit_rate(), 0.0);
  EXPECT_EQ(lru.avg_buffers(), 0.0);
}

TEST(AdaptiveReplay, LruKeepsTheMostRecentSendersPerDestination) {
  // Two receivers, each cycling three senders: an LRU of 3 holds each
  // receiver's whole cycle, an LRU of 2 never does.
  std::vector<engine::Event> events;
  for (std::int32_t i = 0; i < 30; ++i) {
    events.push_back({.source = i % 3, .destination = 0, .tag = 0, .bytes = 8});
    events.push_back({.source = 10 + i % 3, .destination = 1, .tag = 0, .bytes = 8});
  }
  const adaptive::PolicyStats three = replay_lru(events, 3);
  EXPECT_EQ(three.messages, 60);
  EXPECT_EQ(three.prepost_misses, 6);  // each receiver's first three
  EXPECT_EQ(three.peak_buffers, 3);
  EXPECT_EQ(replay_lru(events, 2).prepost_hits, 0);
}

TEST(AdaptiveReplay, RegistryPredictorComesFromTheConfig) {
  adaptive::RuntimeConfig cfg;
  cfg.service.engine.predictor = "last-value";
  // A constant sender: last-value nails it.
  EXPECT_GT(replay_adaptive(arrivals({4}, {0}, 400), cfg).stats.hit_rate(), 0.9);

  cfg.service.engine.predictor = "no-such-predictor";
  EXPECT_THROW((void)replay_adaptive(arrivals({1, 2}, {0}, 10), cfg), UsageError);
}

// ---------------------------------------------------------------------------
// Streaming ingest: the pull-based batch path must reproduce the
// materialized event order exactly, at any batch size, with bounded
// buffering — and fall back (still byte-identical) on layouts it cannot
// merge incrementally.

/// Monotone per-rank times with frequent cross-rank ties, occasional
/// unresolved senders, both levels populated.
trace::TraceStore random_store(std::uint32_t seed, int nranks, int records_per_rank) {
  std::mt19937 rng(seed);
  trace::TraceStore store(nranks);
  for (int rank = 0; rank < nranks; ++rank) {
    for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
      std::int64_t t = static_cast<std::int64_t>(rng() % 3);
      for (int i = 0; i < records_per_rank; ++i) {
        t += static_cast<std::int64_t>(rng() % 2);  // ties within and across ranks
        const bool unresolved = level == trace::Level::Logical && rng() % 13 == 0;
        // Drawn in this order (sender, bytes, kind) so each seed's store
        // is independent of Record's field order.
        const std::int32_t sender = unresolved ? trace::kUnresolvedSender
                                               : static_cast<std::int32_t>(rng() % nranks);
        const auto bytes = static_cast<std::int64_t>(8 << (rng() % 4));
        const trace::OpKind kind =
            rng() % 5 == 0 ? trace::OpKind::Collective : trace::OpKind::PointToPoint;
        store.append(rank, level,
                     {.time = sim::SimTime{t}, .bytes = bytes, .sender = sender, .kind = kind});
      }
    }
  }
  return store;
}

std::vector<TimedEvent> pull_all(EventStream& stream, std::size_t batch) {
  std::vector<TimedEvent> out;
  while (stream.next_batch(batch, out) != 0) {
  }
  return out;
}

TEST(Streaming, NativeFileMatchesMaterializedAcrossBatchSizes) {
  const auto store = random_store(/*seed=*/101, /*nranks=*/5, /*records_per_rank=*/120);
  const std::string path = ::testing::TempDir() + "stream_native.csv";
  trace::write_csv_file(path, store);
  for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
    const auto expect = engine::events_from_trace(store, level);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{64},
                                    std::size_t{1 << 20}}) {
      auto reader = CsvStreamReader::open(path, level);
      EXPECT_TRUE(reader->streaming());
      EXPECT_EQ(CsvTraceFile::open(path).nranks(), 5);
      const auto got = pull_all(*reader, batch);
      EXPECT_EQ(strip_times(got), expect) << "batch = " << batch;
      // Bounded buffering: one lookahead per requested-level section (5
      // ranks -> 5 cursors), independent of trace length or batch size.
      EXPECT_LE(reader->peak_buffered_events(), 5u);
      // Times are the merge keys and must come out non-decreasing.
      for (std::size_t i = 1; i < got.size(); ++i) {
        EXPECT_LE(got[i - 1].time.count(), got[i].time.count());
      }
    }
  }
}

// A hand-interleaved native file: one rank's records split across two
// sections with overlapping times. The merge must reproduce the
// materialized order — stable by time over rank-major concatenation —
// not file order.
TEST(Streaming, NativeInterleavedSectionsMergeLikeMaterialized) {
  const std::string text = std::string(kNative) +
                           "0,1,10,1,111,0,0\n"   // rank 0, section A
                           "1,1,5,0,222,0,0\n"    // rank 1
                           "0,1,5,1,333,0,0\n"    // rank 0, section B
                           "0,1,10,1,444,0,0\n";  // tie with section A's 10
  const std::string path = write_temp_file("stream_sections.csv", text);
  const auto source = parse(text);
  const auto expect = source.events(trace::Level::Physical);

  auto reader = CsvStreamReader::open(path, trace::Level::Physical);
  EXPECT_TRUE(reader->streaming());
  const auto got = strip_times(pull_all(*reader, 2));
  ASSERT_EQ(got, expect);
  // Spot-check the order: both 5s (rank 0 then rank 1), then rank 0's
  // earlier-section 10 before its later-section 10.
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].bytes, 333);
  EXPECT_EQ(got[1].bytes, 222);
  EXPECT_EQ(got[2].bytes, 111);
  EXPECT_EQ(got[3].bytes, 444);
}

TEST(Streaming, FlatSortedStreamsUnsortedFallsBack) {
  const std::string sorted = std::string(kFlat) + "5,1,0,100\n5,2,1,200\n5,3,0,300\n7,0,1,50\n";
  const std::string sorted_path = write_temp_file("stream_flat_sorted.csv", sorted);
  const auto sorted_expect = parse(sorted).events(trace::Level::Physical);
  auto sorted_reader = CsvStreamReader::open(sorted_path, trace::Level::Physical);
  EXPECT_TRUE(sorted_reader->streaming());
  EXPECT_EQ(strip_times(pull_all(*sorted_reader, 1)), sorted_expect);

  // Ties at t=5 come out rank-major (receiver 0's two records first) even
  // though the file interleaves receivers.
  ASSERT_EQ(sorted_expect.size(), 4u);
  EXPECT_EQ(sorted_expect[0].bytes, 100);
  EXPECT_EQ(sorted_expect[1].bytes, 300);
  EXPECT_EQ(sorted_expect[2].bytes, 200);

  const std::string unsorted = std::string(kFlat) + "9,1,0,100\n5,2,1,200\n7,0,1,50\n";
  const std::string unsorted_path = write_temp_file("stream_flat_unsorted.csv", unsorted);
  auto unsorted_reader = CsvStreamReader::open(unsorted_path, trace::Level::Physical);
  EXPECT_FALSE(unsorted_reader->streaming());  // decreasing time: materialized fallback
  EXPECT_EQ(strip_times(pull_all(*unsorted_reader, 2)),
            parse(unsorted).events(trace::Level::Physical));

  // Flat traces carry the physical level only; the logical stream is empty.
  auto logical = CsvStreamReader::open(sorted_path, trace::Level::Logical);
  EXPECT_TRUE(pull_all(*logical, 16).empty());
}

// The bounded-memory property of the tentpole: while streaming, the
// reader never holds more than the per-section lookahead (plus one
// timestamp-tie group for flat files) — in particular never `max_events`
// parsed events — however long the trace is.
TEST(Streaming, BoundedBufferingIndependentOfTraceLength) {
  std::string flat = std::string(kFlat);
  for (int i = 0; i < 10000; ++i) {
    flat += std::to_string(i) + "," + std::to_string(i % 3) + "," + std::to_string(i % 4) +
            ",64\n";
  }
  const std::string flat_path = write_temp_file("stream_flat_long.csv", flat);
  auto flat_reader = CsvStreamReader::open(flat_path, trace::Level::Physical);
  const auto got = pull_all(*flat_reader, 64);
  EXPECT_EQ(got.size(), 10000u);
  EXPECT_TRUE(flat_reader->streaming());
  EXPECT_LE(flat_reader->peak_buffered_events(), 2u);  // distinct times: tie groups of 1

  const auto store = random_store(/*seed=*/7, /*nranks=*/4, /*records_per_rank=*/1000);
  const std::string native_path = ::testing::TempDir() + "stream_native_long.csv";
  trace::write_csv_file(native_path, store);
  auto native_reader = CsvStreamReader::open(native_path, trace::Level::Physical);
  EXPECT_EQ(pull_all(*native_reader, 64).size(),
            engine::events_from_trace(store, trace::Level::Physical).size());
  EXPECT_LE(native_reader->peak_buffered_events(), 4u);  // one lookahead per rank section
}

TEST(Streaming, NonMonotoneNativeSectionFallsBackByteIdentical) {
  const std::string text = std::string(kNative) + "0,1,10,1,64,0,0\n0,1,5,1,32,0,0\n";
  const std::string path = write_temp_file("stream_nonmono.csv", text);
  auto reader = CsvStreamReader::open(path, trace::Level::Physical);
  EXPECT_FALSE(reader->streaming());
  EXPECT_EQ(strip_times(pull_all(*reader, 1)), parse(text).events(trace::Level::Physical));
}

TEST(Streaming, OpenValidatesTheWholeFileUpFront) {
  const std::string path =
      write_temp_file("stream_bad.csv", std::string(kNative) + "0,0,1,2,3,0,99\n");
  try {
    (void)CsvStreamReader::open(path, trace::Level::Logical);
    ADD_FAILURE() << "expected IngestError";
  } catch (const IngestError& e) {
    EXPECT_EQ(e.where().field, "op");
    EXPECT_EQ(e.where().line, 2u);
    EXPECT_EQ(e.where().file, path);
  }
}

TEST(Streaming, SourceStreamEventsMatchesEvents) {
  const auto store = random_store(/*seed=*/33, /*nranks=*/3, /*records_per_rank=*/50);
  std::stringstream csv;
  trace::write_csv(csv, store);
  const auto source = open_trace_stream(csv, "<test>");
  for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
    const auto stream = source.stream_events(level);
    EXPECT_TRUE(stream->time_ordered());
    EXPECT_EQ(strip_times(drain(*stream)), source.events(level));
  }
}

TEST(Streaming, StreamedReplayMatchesObserveAllReport) {
  const auto store = random_store(/*seed=*/55, /*nranks=*/4, /*records_per_rank=*/100);
  const std::string path = ::testing::TempDir() + "stream_replay.csv";
  trace::write_csv_file(path, store);
  const auto events = engine::events_from_trace(store, trace::Level::Physical);
  const std::size_t shard_counts[] = {1, 2, 4};
  const auto gate = verify_streamed_replay(
      [&path] { return open_event_stream(path, trace::Level::Physical); }, events,
      engine::EngineConfig{}, shard_counts, kGateBatchEvents);
  EXPECT_TRUE(gate.ok) << gate.detail;
}

// The reader pulls each section's lines through its own read window: a
// line longer than the window, CRLF endings, a missing final newline and
// thousands of tiny sections must all stream exactly as the materializing
// parser reads them, within the usual buffering bounds.
void expect_streams_like_materialized(const std::string& path, const std::string& text,
                                      trace::Level level, std::size_t max_buffered) {
  const auto expect = drain(*parse(text).stream_events(level));
  ASSERT_FALSE(expect.empty());
  const CsvTraceFile file = CsvTraceFile::open(path);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{8192}}) {
    auto reader = CsvStreamReader::open(file, level);
    EXPECT_TRUE(reader->streaming());
    EXPECT_EQ(pull_all(*reader, batch), expect) << path << ", batch = " << batch;
    EXPECT_LE(reader->peak_buffered_events(), max_buffered) << path << ", batch = " << batch;
    EXPECT_EQ(pull_all(*open_event_stream(path, level), batch), expect)
        << path << ", batch = " << batch;
  }
}

TEST(Streaming, CommentLongerThanTheWindowInsideASection) {
  std::string text = std::string(kNative);
  for (int t = 0; t < 40; ++t) {
    text += "0,1," + std::to_string(t) + ",1,64,0,0\n";
    if (t == 20) {
      text += "# " + std::string(12 * 1024, 'x') + "\n";  // three windows' worth
    }
  }
  for (int t = 0; t < 40; ++t) {
    text += "1,1," + std::to_string(t) + ",0,32,0,0\n";
  }
  const std::string path = write_temp_file("stream_long_comment.csv", text);
  expect_streams_like_materialized(path, text, trace::Level::Physical, 2);
}

TEST(Streaming, CrlfLineEndingsInBothDialects) {
  std::string native = "# nranks: 2\r\nrank,level,time_ns,sender,bytes,kind,op\r\n";
  std::string flat = "time_ns,sender,receiver,bytes,kind\r\n";
  for (int t = 0; t < 600; ++t) {
    native += std::to_string(t % 2) + ",1," + std::to_string(t / 2) + ",1,64,0,0\r\n";
    flat += std::to_string(t) + ",0," + std::to_string(t % 2) + ",64,1\r\n";
  }
  expect_streams_like_materialized(write_temp_file("stream_crlf_native.csv", native), native,
                                   trace::Level::Physical, 600);  // one section per line
  expect_streams_like_materialized(write_temp_file("stream_crlf_flat.csv", flat), flat,
                                   trace::Level::Physical, 2);
}

TEST(Streaming, LastDataLineWithoutTrailingNewline) {
  const std::string native = std::string(kNative) +
                             "0,1,1,1,64,0,0\n0,1,4,1,64,0,0\n1,1,2,0,32,0,0\n1,1,3,0,16,0,0";
  const std::string flat = std::string(kFlat) + "1,0,1,64\n2,1,0,32\n3,0,1,16";
  const std::string flat_path = write_temp_file("stream_no_eol_flat.csv", flat);
  expect_streams_like_materialized(write_temp_file("stream_no_eol_native.csv", native), native,
                                   trace::Level::Physical, 2);
  expect_streams_like_materialized(flat_path, flat, trace::Level::Physical, 2);
  const auto got = pull_all(*CsvStreamReader::open(flat_path, trace::Level::Physical), 8192);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got.back().event.bytes, 16);  // the unterminated line
}

TEST(Streaming, ThousandsOfInterleavedSmallSections) {
  // 2,000 sections of one to three records, alternating between two
  // ranks: every section gets a window of at most its own length.
  std::string text = std::string(kNative);
  std::int64_t t = 0;
  for (int section = 0; section < 2000; ++section) {
    for (int i = 0; i <= section % 3; ++i) {
      text += std::to_string(section % 2) + ",1," + std::to_string(t++ / 3) + "," +
              std::to_string(1 - section % 2) + "," + std::to_string(8 << (i % 4)) + ",0,0\n";
    }
  }
  const std::string path = write_temp_file("stream_many_sections.csv", text);
  expect_streams_like_materialized(path, text, trace::Level::Physical, 2000);
}

// Ranks alternating on every line make one section per line. Up to
// kMaxStreamSections sections both levels stream; one more and both fall
// back to materializing through the index's descriptor. Either way the
// order is the materialized one and the index counts every rank's rows.
TEST(Streaming, MoreSectionsThanTheMergeTakesFallBack) {
  for (const std::size_t sections :
       {CsvStreamReader::kMaxStreamSections, CsvStreamReader::kMaxStreamSections + 1}) {
    SCOPED_TRACE(sections);
    std::string text = std::string(kNative);
    for (std::size_t i = 0; i < sections; ++i) {
      text += std::to_string(i % 2) + "," + std::to_string(i % 4 / 2) + "," +
              std::to_string(i / 4) + "," + std::to_string(1 - i % 2) + ",64,0,0\n";
    }
    const std::string path = write_temp_file("stream_section_limit.csv", text);
    const CsvTraceFile file = CsvTraceFile::open(path);
    const CsvTraceSource source = parse(text);
    for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
      auto reader = CsvStreamReader::open(file, level);
      EXPECT_EQ(reader->streaming(), sections <= CsvStreamReader::kMaxStreamSections);
      EXPECT_EQ(pull_all(*reader, 4096), drain(*source.stream_events(level)));
      EXPECT_EQ(file.records_per_rank(level),
                (std::vector<std::size_t>{source.store().records(0, level).size(),
                                          source.store().records(1, level).size()}));
    }
  }
}

// open() measures the file; a file cut short afterwards must fail the
// drain with a diagnostic, never end the stream early as if complete —
// and so must a second level's reader opened from the same index after
// the cut.
TEST(Streaming, FileTruncatedAfterOpenFailsClosed) {
  const auto store = random_store(/*seed=*/9, /*nranks=*/4, /*records_per_rank=*/2000);
  const std::string native_path = ::testing::TempDir() + "stream_truncated_native.csv";
  trace::write_csv_file(native_path, store);
  std::string flat = std::string(kFlat);
  for (int i = 0; i < 10000; ++i) {
    flat += std::to_string(i) + "," + std::to_string(i % 3) + "," + std::to_string(i % 4) +
            ",64\n";
  }
  const std::string flat_path = write_temp_file("stream_truncated_flat.csv", flat);
  const auto expect_fails_closed = [](const std::string& path, const auto& read) {
    try {
      read();
      ADD_FAILURE() << path << ": expected IngestError";
    } catch (const IngestError& e) {
      EXPECT_EQ(e.where().file, path);
      EXPECT_GT(e.where().line, 1u);
      EXPECT_NE(e.where().reason.find("short of the size open() measured"), std::string::npos)
          << e.what();
    }
  };
  for (const std::string& path : {native_path, flat_path}) {
    const CsvTraceFile file = CsvTraceFile::open(path);
    auto reader = CsvStreamReader::open(file, trace::Level::Physical);
    ASSERT_TRUE(reader->streaming());
    std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
    expect_fails_closed(path, [&] { (void)pull_all(*reader, 64); });
    // Logical for the native file, a second Physical reader for the flat
    // one: its cursors read past the cut while opening or while pulled.
    const trace::Level second = file.levels().front();
    expect_fails_closed(path, [&] { (void)pull_all(*CsvStreamReader::open(file, second), 64); });
  }
}

// Only a regular file is read: a FIFO with no writer must be rejected at
// open, before any read could block on it, and so must a directory.
TEST(Streaming, NonRegularFilesAreRejectedAtOpen) {
  const std::string fifo = ::testing::TempDir() + "stream_fifo.csv";
  std::filesystem::remove(fifo);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
  const std::string dir = ::testing::TempDir() + "stream_dir.csv";
  std::filesystem::create_directories(dir);
  for (const std::string& path : {fifo, dir}) {
    for (const auto& open : std::initializer_list<void (*)(const std::string&)>{
             [](const std::string& p) { (void)CsvTraceFile::open(p); },
             [](const std::string& p) { (void)open_event_stream(p, trace::Level::Physical); },
             [](const std::string& p) { (void)open_trace(p); }}) {
      try {
        open(path);
        ADD_FAILURE() << path << ": expected IngestError";
      } catch (const IngestError& e) {
        EXPECT_EQ(e.where().file, path);
        EXPECT_EQ(e.where().line, 0u);
        EXPECT_EQ(e.where().reason, "not a regular file");
      }
    }
  }
  std::filesystem::remove(fifo);
}

// The index answers what the materialized source does: format, rank
// count, levels, and the records each rank holds per level (unresolved
// senders and declared but silent ranks included), so the representative
// process is the same.
TEST(Streaming, TraceFileAnswersLikeTheMaterializedSource) {
  auto store = random_store(/*seed=*/21, /*nranks=*/5, /*records_per_rank=*/40);
  store.append(2, trace::Level::Logical, {.time = sim::SimTime{1000}, .bytes = 8, .sender = 0});
  std::stringstream native;
  trace::write_csv(native, store);
  const std::string declared = "# nranks: 9\n" + std::string(kFlat) +
                               "5,1,0,100\n3,2,1,200\n5,3,0,300\n7,0,4,50\n9,0,4,50\n";
  for (const std::string& text : {native.str(), declared}) {
    const std::string path = write_temp_file("stream_index.csv", text);
    const CsvTraceFile file = CsvTraceFile::open(path);
    const CsvTraceSource source = parse(text);
    EXPECT_EQ(file.format(), source.format());
    EXPECT_EQ(file.nranks(), source.nranks());
    EXPECT_EQ(file.levels(), source.levels());
    for (const trace::Level level : file.levels()) {
      std::vector<std::size_t> want;
      for (int r = 0; r < source.nranks(); ++r) {
        want.push_back(source.store().records(r, level).size());
      }
      EXPECT_EQ(file.records_per_rank(level), want);
      EXPECT_EQ(trace::representative_rank(file.records_per_rank(level)),
                trace::representative_rank(source.store(), level));
    }
  }
}

// ---------------------------------------------------------------------------
// Source transforms: window slicing, rank remapping, and their composition
// over the streaming pipeline.

TEST(Transform, WindowSpecParsing) {
  const TimeWindow w = TimeWindow::parse("5000:90000");
  EXPECT_EQ(w.begin_ns, 5000);
  EXPECT_EQ(w.end_ns, 90000);
  EXPECT_TRUE(w.contains(5000));
  EXPECT_FALSE(w.contains(90000));  // half-open
  EXPECT_EQ(w.to_string(), "[5000:90000)");

  EXPECT_FALSE(TimeWindow::parse("5000:").bounded_end());
  EXPECT_FALSE(TimeWindow::parse(":90000").bounded_begin());
  EXPECT_THROW((void)TimeWindow::parse("123"), UsageError);     // no colon
  EXPECT_THROW((void)TimeWindow::parse(":"), UsageError);       // no bound
  EXPECT_THROW((void)TimeWindow::parse("9:5"), UsageError);     // empty window
  EXPECT_THROW((void)TimeWindow::parse("a:b"), UsageError);     // not integers
  EXPECT_THROW((void)TimeWindow::parse("1:2:3"), UsageError);   // extra colon
}

TEST(Transform, RemapSpecParsing) {
  const RankRemapConfig mod = RankRemapConfig::parse("mod:64");
  EXPECT_EQ(mod.mode, RankRemapConfig::Mode::Modulo);
  EXPECT_EQ(mod.modulo, 64);
  EXPECT_EQ(mod.collisions, RankRemapConfig::Collisions::Fold);
  EXPECT_EQ(mod.to_string(), "mod:64");

  const RankRemapConfig strict = RankRemapConfig::parse("mod:8:strict");
  EXPECT_EQ(strict.collisions, RankRemapConfig::Collisions::Reject);
  EXPECT_EQ(strict.to_string(), "mod:8:strict");

  // Ranges normalize: sorted and merged, whatever the spec order.
  const RankRemapConfig keep = RankRemapConfig::parse("keep:5,0-2,1-3");
  EXPECT_EQ(keep.mode, RankRemapConfig::Mode::Keep);
  EXPECT_EQ(keep.to_string(), "keep:0-3,5");
  EXPECT_EQ(keep.kept_count(), 5);

  EXPECT_THROW((void)RankRemapConfig::parse("mod:0"), UsageError);
  EXPECT_THROW((void)RankRemapConfig::parse("mod:x"), UsageError);
  EXPECT_THROW((void)RankRemapConfig::parse("keep:"), UsageError);
  EXPECT_THROW((void)RankRemapConfig::parse("keep:3-1"), UsageError);
  EXPECT_THROW((void)RankRemapConfig::parse("drop:1"), UsageError);
}

std::vector<TimedEvent> timed(std::initializer_list<std::tuple<int, int, int, int>> rows) {
  // (time, src, dst, bytes)
  std::vector<TimedEvent> out;
  for (const auto& [t, src, dst, bytes] : rows) {
    out.push_back({.time = sim::SimTime{t},
                   .event = {.source = src, .destination = dst, .bytes = bytes}});
  }
  return out;
}

TEST(Transform, WindowSlicesHalfOpenAndStopsEarlyWhenOrdered) {
  auto inner = std::make_unique<VectorEventStream>(
      timed({{1, 0, 1, 8}, {3, 0, 1, 8}, {5, 0, 1, 8}, {7, 0, 1, 8}, {9, 0, 1, 8}}),
      /*time_ordered=*/true);
  TimeWindowSource window(std::move(inner), TimeWindow::parse("3:7"));
  const auto got = drain(window);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].time.count(), 3);
  EXPECT_EQ(got[1].time.count(), 5);
  // Ordered inner: the source stops at the first event past the end (the
  // tail at 7 and 9 is never inspected or counted).
  EXPECT_EQ(window.summary(), "window [3:7): kept 2 of 3 events");
}

TEST(Transform, RemapModuloFoldsBothEndpoints) {
  auto inner = std::make_unique<VectorEventStream>(
      timed({{1, 5, 2, 8}, {2, 6, 3, 8}, {3, 1, 0, 8}}));
  RankRemapSource remap(std::move(inner), RankRemapConfig::parse("mod:4"));
  const auto got = drain(remap);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].event.source, 1);       // 5 % 4
  EXPECT_EQ(got[0].event.destination, 2);  // 2 % 4
  EXPECT_EQ(got[1].event.source, 2);       // 6 % 4
  EXPECT_EQ(got[1].event.destination, 3);
  const auto report = remap.report();
  EXPECT_EQ(report.ranks_observed, 6);  // 5, 2, 6, 3, 1, 0
  EXPECT_EQ(report.new_ranks, 4);
  EXPECT_EQ(report.folded, 2);  // 5->1 and 6->2 collide with 1 and 2
  EXPECT_EQ(report.nranks(), 4);
  EXPECT_EQ(report.events_kept, 3);
}

TEST(Transform, RemapKeepSubsetsDenselyWithExternalSenders) {
  // Keep receivers {2, 3, 5}: dense ids 0, 1, 2; external senders -> 3.
  auto inner = std::make_unique<VectorEventStream>(timed({
      {1, 3, 2, 8},   // kept: src 3 -> 1, dst 2 -> 0
      {2, 9, 5, 8},   // kept: foreign sender 9 -> external 3, dst 5 -> 2
      {3, 2, 7, 8},   // dropped: receiver 7 outside the set
      {4, 8, 3, 8},   // kept: foreign sender 8 -> external 3, dst 3 -> 1
  }));
  RankRemapSource remap(std::move(inner), RankRemapConfig::parse("keep:2-3,5"));
  const auto got = drain(remap);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].event.destination, 0);
  EXPECT_EQ(got[0].event.source, 1);
  EXPECT_EQ(got[1].event.destination, 2);
  EXPECT_EQ(got[1].event.source, 3);
  EXPECT_EQ(got[2].event.destination, 1);
  EXPECT_EQ(got[2].event.source, 3);
  const auto report = remap.report();
  EXPECT_EQ(report.events_dropped, 1);
  EXPECT_EQ(report.external_senders, 2);  // 9 and 8
  EXPECT_EQ(report.nranks(), 4);          // dense 0..2 plus external 3
  const std::vector<std::pair<std::int32_t, std::int32_t>> want_mapping = {
      {2, 0}, {3, 1}, {5, 2}, {8, 3}, {9, 3}};
  EXPECT_EQ(report.mapping, want_mapping);
}

TEST(Transform, StrictCollisionPolicyRejects) {
  auto inner = std::make_unique<VectorEventStream>(timed({{1, 0, 1, 8}, {2, 4, 1, 8}}));
  RankRemapSource remap(std::move(inner), RankRemapConfig::parse("mod:4:strict"));
  try {
    (void)drain(remap);
    ADD_FAILURE() << "expected IngestError on 0 and 4 folding onto rank 0";
  } catch (const IngestError& e) {
    EXPECT_NE(std::string(e.what()).find("both map to new rank 0"), std::string::npos)
        << e.what();
  }
  // The same fold without :strict is the documented behavior.
  auto fold_inner = std::make_unique<VectorEventStream>(timed({{1, 0, 1, 8}, {2, 4, 1, 8}}));
  RankRemapSource fold(std::move(fold_inner), RankRemapConfig::parse("mod:4"));
  EXPECT_EQ(drain(fold).size(), 2u);
  EXPECT_EQ(fold.report().folded, 1);

  // Keep mode's external-sender rank merges foreign senders by design:
  // :strict must not reject it (and kept ranks cannot collide at all).
  auto keep_inner = std::make_unique<VectorEventStream>(
      timed({{1, 8, 0, 8}, {2, 9, 1, 8}, {3, 0, 1, 8}}));
  RankRemapSource keep(std::move(keep_inner), RankRemapConfig::parse("keep:0-1:strict"));
  EXPECT_EQ(drain(keep).size(), 3u);
  EXPECT_EQ(keep.report().external_senders, 2);
}

// The composition property of the tentpole: remap ∘ window ∘ stream over a
// randomized trace equals the materialized, pre-transformed reference —
// an oracle computed eagerly and independently here — for every batch
// size, and the engine report over the chain matches across shard counts
// and batch sizes.
TEST(Transform, CompositionMatchesEagerReferenceOnRandomizedTrace) {
  std::mt19937 rng(2003);
  std::vector<TimedEvent> events;
  for (int i = 0; i < 4000; ++i) {
    events.push_back({.time = sim::SimTime{static_cast<std::int64_t>(i / 2)},  // frequent ties
                      .event = {.source = static_cast<std::int32_t>(rng() % 24),
                                .destination = static_cast<std::int32_t>(rng() % 24),
                                .tag = static_cast<std::int32_t>(rng() % 2),
                                .bytes = static_cast<std::int64_t>(8 << (rng() % 6))}});
  }
  const TransformSpec spec =
      TransformSpec::parse(/*window=*/"200:1500", /*remap=*/"mod:5");

  // Independent oracle: eager filter-then-map over the same vector.
  std::vector<TimedEvent> oracle;
  for (TimedEvent te : events) {
    if (te.time.count() < 200 || te.time.count() >= 1500) {
      continue;
    }
    te.event.source %= 5;
    te.event.destination %= 5;
    oracle.push_back(te);
  }
  ASSERT_FALSE(oracle.empty());

  for (const std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{512},
                                  std::size_t{1 << 20}}) {
    auto chain = apply_transforms(
        std::make_unique<VectorEventStream>(events, /*time_ordered=*/true), spec);
    EXPECT_EQ(pull_all(*chain.stream, batch), oracle) << "batch = " << batch;
  }

  // Engine equality across shard counts × gate batch sizes, against the
  // oracle's report.
  const std::size_t shard_counts[] = {1, 2, 4};
  const auto gate = verify_streamed_replay(
      [&events, &spec] {
        return apply_transforms(
                   std::make_unique<VectorEventStream>(events, /*time_ordered=*/true), spec)
            .stream;
      },
      strip_times(oracle), engine::EngineConfig{}, shard_counts, kGateBatchEvents);
  EXPECT_TRUE(gate.ok) << gate.detail;

  // Mapping reports are a pure function of the streamed events: identical
  // for any batch size.
  auto chain_a = apply_transforms(
      std::make_unique<VectorEventStream>(events, /*time_ordered=*/true), spec);
  auto chain_b = apply_transforms(
      std::make_unique<VectorEventStream>(events, /*time_ordered=*/true), spec);
  (void)pull_all(*chain_a.stream, 3);
  (void)pull_all(*chain_b.stream, 999);
  EXPECT_EQ(chain_a.remap->report().summary(), chain_b.remap->report().summary());
  EXPECT_EQ(chain_a.remap->report().mapping, chain_b.remap->report().mapping);
}

// End-to-end over a real file: the tool-level gate (file-backed streamed
// chain vs materialized transformed reference) holds with both transforms
// active.
TEST(Transform, StreamedSourceGateHoldsOverTransformedFile) {
  const auto store = random_store(/*seed=*/77, /*nranks=*/6, /*records_per_rank=*/80);
  const std::string path = ::testing::TempDir() + "stream_transformed.csv";
  trace::write_csv_file(path, store);
  const auto source = open_trace(path);
  const TransformSpec spec = TransformSpec::parse("10:120", "keep:0-2");
  const std::size_t shard_counts[] = {1, 2, 4};
  const auto gate = verify_streamed_source(path, source, spec,
                                           engine::EngineConfig{}, shard_counts);
  EXPECT_TRUE(gate.ok) << gate.detail;
}

// The `--trace` tools' former per-run gates, over a simulator-shaped trace
// in both dialects: the native write_csv export and a time-sorted flat
// capture of the same run. For each file, the file-backed streamed read
// must match the materialized one across shard counts and batch sizes,
// untransformed and through a window plus a rank fold; the store must
// survive the write_csv round trip; and both dialects must yield the same
// arrival stream.
TEST(RoundTrip, SimulatedTraceGatesHoldInBothDialects) {
  mpi::World world(8, apps::paper_world_config(/*seed=*/11));
  ASSERT_TRUE(
      apps::run_is(world, apps::AppConfig{.problem_class = apps::ProblemClass::S}).verified);
  const trace::TraceStore& store = world.traces();

  const std::string native_path = ::testing::TempDir() + "is8_native.csv";
  trace::write_csv_file(native_path, store);
  std::string flat = "time_ns,sender,receiver,bytes,kind\n";
  std::int64_t last_time = 0;
  for (const trace::MergedRecord& rec : trace::merged_records(store, trace::Level::Physical)) {
    flat += std::to_string(rec.time.count()) + "," + std::to_string(rec.sender) + "," +
            std::to_string(rec.receiver) + "," + std::to_string(rec.bytes) + "," +
            std::to_string(static_cast<int>(rec.kind)) + "\n";
    last_time = rec.time.count();
  }
  const std::string flat_path = write_temp_file("is8_flat.csv", flat);
  ASSERT_GT(last_time, 0);

  const std::size_t shard_counts[] = {1, 2, 4};
  const engine::EngineConfig cfg{};
  const TransformSpec windowed_remap = TransformSpec::parse(
      std::to_string(last_time / 4) + ":" + std::to_string(3 * (last_time / 4)), "mod:3");
  for (const std::string& path : {native_path, flat_path}) {
    const CsvTraceSource source = open_trace(path);
    for (const TransformSpec& spec : {TransformSpec{}, windowed_remap}) {
      const auto gate = verify_streamed_source(path, source, spec, cfg, shard_counts);
      EXPECT_TRUE(gate.ok) << path << " (" << (spec.active() ? "window+remap" : "plain")
                           << "): " << gate.detail;
    }
  }
  EXPECT_EQ(open_trace(flat_path).events(trace::Level::Physical),
            open_trace(native_path).events(trace::Level::Physical));

  const auto round_trip_gate = verify_csv_round_trip(store, cfg, shard_counts);
  EXPECT_TRUE(round_trip_gate.ok) << round_trip_gate.detail;
}

}  // namespace
}  // namespace mpipred::ingest
