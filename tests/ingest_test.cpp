// The trace-ingestion boundary: dialect parsing, per-line diagnostics,
// the format registry, and the round-trip determinism gate — a simulator
// trace exported via write_csv and re-ingested must drive the engine to a
// byte-identical report for every registry predictor and shard count.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <tuple>

#include "apps/app.hpp"
#include "engine/engine.hpp"
#include "engine/registry.hpp"
#include "ingest/csv_source.hpp"
#include "ingest/replay.hpp"
#include "ingest/source.hpp"
#include "ingest/streaming.hpp"
#include "ingest/transform.hpp"
#include "ingest/verify.hpp"
#include "mpi/world.hpp"
#include "trace/csv.hpp"

namespace mpipred::ingest {
namespace {

std::unique_ptr<TraceSource> parse(const std::string& text) {
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

constexpr const char* kNative = "rank,level,time_ns,sender,bytes,kind,op\n";
constexpr const char* kFlat = "time_ns,sender,receiver,bytes\n";

TEST(CsvSource, NativeDialectMatchesStoreAndEngineEvents) {
  trace::TraceStore store(3);
  store.append(0, trace::Level::Logical,
               {.time = sim::SimTime{5}, .sender = 1, .bytes = 100});
  store.append(0, trace::Level::Physical,
               {.time = sim::SimTime{9}, .sender = 2, .bytes = 200});
  store.append(2, trace::Level::Logical,
               {.time = sim::SimTime{1},
                .sender = 0,
                .bytes = 50,
                .kind = trace::OpKind::Collective,
                .op = trace::Op::Allreduce});
  std::stringstream csv;
  trace::write_csv(csv, store);

  const auto source = open_trace_stream(csv, "<test>");
  EXPECT_EQ(source->format(), "csv");
  EXPECT_EQ(source->nranks(), 3);  // declared by write_csv's preamble
  ASSERT_NE(source->store(), nullptr);
  for (int r = 0; r < 3; ++r) {
    for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
      const auto a = store.records(r, level);
      const auto b = source->store()->records(r, level);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b[i]);
      }
      EXPECT_EQ(source->events(level), engine::events_from_trace(store, level));
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
  EXPECT_EQ(last_op->store()->records(0, trace::Level::Logical)[0].op, trace::Op::Scan);
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
  ASSERT_NE(source->store(), nullptr);
  EXPECT_EQ(source->store()->total_records(trace::Level::Logical), 1u);
  EXPECT_EQ(source->store()->total_records(trace::Level::Physical), 1u);
  EXPECT_EQ(source->store()->records(1, trace::Level::Physical)[0].op, trace::Op::Allreduce);
}

TEST(CsvSource, VersionDirectiveGatesUnsupportedSchemas) {
  EXPECT_NO_THROW(parse(std::string("# mpipred-trace: v1\n") + kNative));
  const Diagnostic d = reject(std::string("# mpipred-trace: v7\n") + kNative);
  EXPECT_EQ(d.line, 1u);
  EXPECT_NE(d.reason.find("v7"), std::string::npos);
}

TEST(CsvSource, NranksDirectiveDeclaresAndBounds) {
  const auto source = parse(std::string("# nranks: 6\n") + kNative + "0,0,1,1,64,0,0\n");
  EXPECT_EQ(source->nranks(), 6);  // declared beats inference (max rank 1)

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
  store.append(0, trace::Level::Physical, {.time = sim::SimTime{1}, .sender = 1, .bytes = 8});
  std::stringstream csv;
  trace::write_csv(csv, store);
  const auto source = open_trace_stream(csv, "<test>");
  EXPECT_EQ(source->nranks(), 5);
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
  EXPECT_EQ(source->format(), "csv-flat");
  EXPECT_EQ(source->nranks(), 4);  // receiver 3 + 1
  EXPECT_EQ(source->levels(), std::vector<trace::Level>{trace::Level::Physical});
  EXPECT_TRUE(source->events(trace::Level::Logical).empty());

  const auto events = source->events(trace::Level::Physical);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], (engine::Event{.source = 2, .destination = 0, .tag = 0, .bytes = 200}));
  EXPECT_EQ(events[1], (engine::Event{.source = 1, .destination = 0, .tag = 0, .bytes = 100}));
  EXPECT_EQ(events[2], (engine::Event{.source = 0, .destination = 3, .tag = 0, .bytes = 50}));
}

TEST(CsvSource, FlatDialectKindColumnAndValidation) {
  const auto source =
      parse("time_ns,sender,receiver,bytes,kind\n1,0,1,64,1\n2,1,0,32,0\n");
  const auto events = source->events(trace::Level::Physical);
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
    EXPECT_NE(d.reason.find("csv"), std::string::npos) << text;
    EXPECT_NE(d.reason.find("csv-flat"), std::string::npos) << text;
  }
}

// ---------------------------------------------------------------------------
// write_csv -> CSV source: the native dialect round-trips every record field.

trace::Record record(std::int32_t sender, std::int64_t bytes, trace::OpKind kind,
                     trace::Op op, std::int64_t t) {
  return {.time = sim::SimTime{t}, .sender = sender, .bytes = bytes, .kind = kind, .op = op};
}

std::unique_ptr<TraceSource> round_trip(const trace::TraceStore& store) {
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
  ASSERT_NE(source->store(), nullptr);
  const trace::TraceStore& back = *source->store();
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
  ASSERT_NE(source->store(), nullptr);
  const trace::TraceStore& back = *source->store();
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
    ASSERT_NE(source->store(), nullptr);
    const trace::TraceStore& back = *source->store();
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
  ASSERT_NE(source->store(), nullptr);
  EXPECT_EQ(source->store()->records(0, trace::Level::Logical).size(), 1u);
  EXPECT_THROW((void)open_trace("/nonexistent/dir/x.csv"), Error);
}

TEST(CsvSource, EmptyFileNeedsHeader) {
  const Diagnostic d = reject("# just a comment\n");
  EXPECT_EQ(d.line, 0u);
  EXPECT_NE(d.reason.find("header"), std::string::npos);
}

TEST(FormatRegistry, PluggableFormatsDispatchByProbe) {
  struct NullSource final : TraceSource {
    [[nodiscard]] std::string_view format() const noexcept override { return "null"; }
    [[nodiscard]] int nranks() const noexcept override { return 1; }
    [[nodiscard]] std::vector<trace::Level> levels() const override { return {}; }
    [[nodiscard]] std::vector<engine::Event> events(trace::Level) const override { return {}; }
  };
  auto& registry = TraceFormatRegistry::instance();
  const auto names = registry.names();
  if (std::find(names.begin(), names.end(), "null") == names.end()) {
    registry.add({.name = "null",
                  .matches = [](std::string_view header) { return header == "nullfmt"; },
                  .open = [](std::istream&, const std::string&) -> std::unique_ptr<TraceSource> {
                    return std::make_unique<NullSource>();
                  },
                  .open_stream = {}});
  }
  EXPECT_THROW(registry.add({.name = "null", .matches = {}, .open = {}, .open_stream = {}}),
               UsageError);
  const auto source = parse("nullfmt\n");
  EXPECT_EQ(source->format(), "null");
  EXPECT_EQ(source->store(), nullptr);
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

  const std::size_t shard_counts[] = {1, 2, 4};
  const SweptReplay swept = replay_adaptive_swept(events, adaptive::RuntimeConfig{}, shard_counts);
  EXPECT_TRUE(swept.deterministic) << swept.mismatch;
  EXPECT_TRUE(swept.mismatch.empty());
  EXPECT_NE(swept.replay.summary().find("messages="), std::string::npos);
  EXPECT_GT(swept.replay.stats.messages, 0);

  // The swept reference is the plain replay at its first shard count.
  adaptive::RuntimeConfig cfg;
  cfg.service.engine.shards = 1;
  EXPECT_EQ(replay_adaptive(events, cfg).summary(), swept.replay.summary());
}

// ---------------------------------------------------------------------------
// Streaming ingest: the pull-based batch path must reproduce the
// materialized event order exactly, at any batch size, with bounded
// buffering — and fall back (still byte-identical) on layouts it cannot
// merge incrementally.

std::string write_temp_file(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream os(path);
  os << text;
  return path;
}

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
        store.append(rank, level,
                     {.time = sim::SimTime{t},
                      .sender = unresolved ? trace::kUnresolvedSender
                                           : static_cast<std::int32_t>(rng() % nranks),
                      .bytes = static_cast<std::int64_t>(8 << (rng() % 4)),
                      .kind = rng() % 5 == 0 ? trace::OpKind::Collective
                                             : trace::OpKind::PointToPoint});
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
      EXPECT_EQ(reader->nranks(), 5);
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
  const auto expect = source->events(trace::Level::Physical);

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
  const auto sorted_expect = parse(sorted)->events(trace::Level::Physical);
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
            parse(unsorted)->events(trace::Level::Physical));

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
  EXPECT_EQ(strip_times(pull_all(*reader, 1)), parse(text)->events(trace::Level::Physical));
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
    const auto stream = source->stream_events(level);
    EXPECT_TRUE(stream->time_ordered());
    EXPECT_EQ(strip_times(drain(*stream)), source->events(level));
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
  const auto gate = verify_streamed_source(path, *source, spec,
                                           engine::EngineConfig{}, shard_counts);
  EXPECT_TRUE(gate.ok) << gate.detail;
}

}  // namespace
}  // namespace mpipred::ingest
