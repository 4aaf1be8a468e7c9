// Trace substrate: store semantics, stream extraction, and Table-1
// statistics. CSV round-tripping is ingest_test's (ingest is the reader).

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "trace/stats.hpp"
#include "trace/store.hpp"
#include "trace/stream.hpp"

namespace mpipred::trace {
namespace {

Record make(std::int32_t sender, std::int64_t bytes, OpKind kind = OpKind::PointToPoint,
            Op op = Op::Recv, std::int64_t t = 0) {
  return Record{.time = sim::SimTime{t}, .bytes = bytes, .sender = sender, .kind = kind, .op = op};
}

TEST(Store, AppendAndRead) {
  TraceStore store(2);
  store.append(0, Level::Logical, make(1, 100));
  store.append(0, Level::Logical, make(1, 200));
  store.append(0, Level::Physical, make(1, 100));
  EXPECT_EQ(store.records(0, Level::Logical).size(), 2u);
  EXPECT_EQ(store.records(0, Level::Physical).size(), 1u);
  EXPECT_EQ(store.records(1, Level::Logical).size(), 0u);
  EXPECT_EQ(store.total_records(Level::Logical), 2u);
}

TEST(Store, ResolveFillsSenderAndBytes) {
  TraceStore store(1);
  const auto idx = store.append(0, Level::Logical, make(kUnresolvedSender, 0));
  store.resolve(0, Level::Logical, idx, 3, 512);
  const auto recs = store.records(0, Level::Logical);
  EXPECT_EQ(recs[0].sender, 3);
  EXPECT_EQ(recs[0].bytes, 512);
}

TEST(Store, BoundsChecked) {
  TraceStore store(2);
  EXPECT_THROW(store.append(2, Level::Logical, make(0, 1)), UsageError);
  EXPECT_THROW(store.append(-1, Level::Logical, make(0, 1)), UsageError);
  EXPECT_THROW(store.resolve_sender(0, Level::Logical, 0, 1), UsageError);
}

TEST(Store, ClearKeepsShape) {
  TraceStore store(2);
  store.append(1, Level::Physical, make(0, 9));
  store.clear();
  EXPECT_EQ(store.total_records(Level::Physical), 0u);
  EXPECT_EQ(store.nranks(), 2);
}

TEST(Stream, ExtractsBothSeries) {
  TraceStore store(1);
  store.append(0, Level::Logical, make(1, 10));
  store.append(0, Level::Logical, make(2, 20));
  const auto streams = extract_streams(store, 0, Level::Logical);
  EXPECT_EQ(streams.senders, (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(streams.sizes, (std::vector<std::int64_t>{10, 20}));
  EXPECT_EQ(streams.length(), 2u);
}

TEST(Stream, KindFilterSeparatesTraffic) {
  TraceStore store(1);
  store.append(0, Level::Logical, make(1, 10, OpKind::PointToPoint));
  store.append(0, Level::Logical, make(2, 20, OpKind::Collective, Op::Allreduce));
  store.append(0, Level::Logical, make(3, 30, OpKind::PointToPoint));
  const auto p2p = extract_streams(store, 0, Level::Logical, {.kind = OpKind::PointToPoint});
  const auto coll = extract_streams(store, 0, Level::Logical, {.kind = OpKind::Collective});
  EXPECT_EQ(p2p.senders, (std::vector<std::int64_t>{1, 3}));
  EXPECT_EQ(coll.senders, (std::vector<std::int64_t>{2}));
}

TEST(Stream, UnresolvedDroppedByDefaultKeptOnRequest) {
  TraceStore store(1);
  store.append(0, Level::Logical, make(kUnresolvedSender, 10));
  store.append(0, Level::Logical, make(2, 20));
  EXPECT_EQ(extract_streams(store, 0, Level::Logical).length(), 1u);
  EXPECT_EQ(extract_streams(store, 0, Level::Logical, {.drop_unresolved = false}).length(), 2u);
}

TEST(Stats, CountsKindsAndDistincts) {
  TraceStore store(1);
  for (int i = 0; i < 96; ++i) {
    store.append(0, Level::Logical, make(i % 3, (i % 2) ? 100 : 200));
  }
  for (int i = 0; i < 4; ++i) {
    store.append(0, Level::Logical, make(5, 999, OpKind::Collective, Op::Bcast));
  }
  const auto s = summarize_rank(store, 0, Level::Logical);
  EXPECT_EQ(s.p2p_msgs, 96);
  EXPECT_EQ(s.coll_msgs, 4);
  EXPECT_EQ(s.distinct_senders, 4);
  EXPECT_EQ(s.distinct_sizes, 3);
  EXPECT_EQ(s.frequent_senders, 4);  // 4% of stream each, above 1%
  EXPECT_EQ(s.frequent_sizes, 3);
}

TEST(Stats, FrequentThresholdFiltersRareValues) {
  TraceStore store(1);
  for (int i = 0; i < 999; ++i) {
    store.append(0, Level::Logical, make(1, 100));
  }
  store.append(0, Level::Logical, make(2, 555));  // 0.1% of the stream
  const auto s = summarize_rank(store, 0, Level::Logical, {.frequent_threshold = 0.01});
  EXPECT_EQ(s.distinct_senders, 2);
  EXPECT_EQ(s.frequent_senders, 1);
  EXPECT_EQ(s.distinct_sizes, 2);
  EXPECT_EQ(s.frequent_sizes, 1);
}

TEST(Stats, HistogramsCount) {
  TraceStore store(1);
  store.append(0, Level::Physical, make(1, 100));
  store.append(0, Level::Physical, make(1, 100));
  store.append(0, Level::Physical, make(2, 200));
  const auto sh = sender_histogram(store, 0, Level::Physical);
  EXPECT_EQ(sh.at(1), 2);
  EXPECT_EQ(sh.at(2), 1);
  const auto zh = size_histogram(store, 0, Level::Physical);
  EXPECT_EQ(zh.at(100), 2);
}

TEST(Stats, RepresentativeRankIsMedianByCount) {
  TraceStore store(3);
  for (int i = 0; i < 1; ++i) store.append(0, Level::Logical, make(0, 1));
  for (int i = 0; i < 5; ++i) store.append(1, Level::Logical, make(0, 1));
  for (int i = 0; i < 9; ++i) store.append(2, Level::Logical, make(0, 1));
  EXPECT_EQ(representative_rank(store, Level::Logical), 1);
}

TEST(Event, ToStringCoversEnums) {
  EXPECT_EQ(to_string(Level::Logical), "logical");
  EXPECT_EQ(to_string(Level::Physical), "physical");
  EXPECT_EQ(to_string(OpKind::Collective), "coll");
  EXPECT_EQ(to_string(Op::Alltoallv), "alltoallv");
  EXPECT_EQ(to_string(Op::Barrier), "barrier");
}

}  // namespace
}  // namespace mpipred::trace
