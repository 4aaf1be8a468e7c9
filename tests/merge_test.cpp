// trace/merge edge cases, exercised directly (previously only covered
// indirectly through engine_test): empty stores, single streams, delivery
// time ties, and filter interaction with the stable global sort. Plus the
// merge oracle: the k-way merge behind merged_records and
// engine::events_from_trace against the concatenate-then-stable-sort
// merge it replaced, over seeded random stores.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "trace/merge.hpp"
#include "trace/store.hpp"
#include "trace/stream.hpp"

namespace mpipred::trace {

namespace reference {

// merged_records as it was before the k-way merge, kept verbatim as the
// oracle: every rank's filtered records concatenated in rank order, then
// one stable sort by time.
std::vector<MergedRecord> merged_records(const TraceStore& store, Level level,
                                         const StreamFilter& filter) {
  std::vector<MergedRecord> out;
  out.reserve(store.total_records(level));
  for (int rank = 0; rank < store.nranks(); ++rank) {
    for (const Record& rec : store.records(rank, level)) {
      if (!filter.passes(rec)) {
        continue;
      }
      out.push_back({.time = rec.time,
                     .receiver = rank,
                     .sender = rec.sender,
                     .bytes = rec.bytes,
                     .kind = rec.kind});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const MergedRecord& a, const MergedRecord& b) { return a.time < b.time; });
  return out;
}

// events_from_trace's event shape over the oracle's order.
std::vector<engine::Event> events_from_trace(const TraceStore& store, Level level,
                                             const StreamFilter& filter) {
  std::vector<engine::Event> out;
  for (const MergedRecord& rec : reference::merged_records(store, level, filter)) {
    out.push_back({.source = rec.sender,
                   .destination = rec.receiver,
                   .tag = static_cast<std::int32_t>(rec.kind),
                   .bytes = rec.bytes});
  }
  return out;
}

}  // namespace reference

namespace {

Record make(std::int64_t t, std::int32_t sender, std::int64_t bytes,
            OpKind kind = OpKind::PointToPoint) {
  return Record{.time = sim::SimTime{t}, .bytes = bytes, .sender = sender, .kind = kind};
}

TEST(MergedRecords, EmptyStoreYieldsEmptyMerge) {
  const TraceStore store(4);
  for (const auto level : {Level::Logical, Level::Physical}) {
    EXPECT_TRUE(merged_records(store, level).empty());
  }
}

TEST(MergedRecords, LevelsAreIndependent) {
  TraceStore store(2);
  store.append(0, Level::Logical, make(1, 1, 10));
  EXPECT_EQ(merged_records(store, Level::Logical).size(), 1u);
  EXPECT_TRUE(merged_records(store, Level::Physical).empty());
}

TEST(MergedRecords, SingleStreamIsThatRanksRecordsVerbatim) {
  TraceStore store(3);
  // Deliberately non-monotonic times: the merge sorts globally by time,
  // even within one rank.
  store.append(1, Level::Physical, make(5, 0, 100));
  store.append(1, Level::Physical, make(2, 2, 200));
  store.append(1, Level::Physical, make(9, 0, 300));

  const auto merged = merged_records(store, Level::Physical);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].time, sim::SimTime{2});
  EXPECT_EQ(merged[1].time, sim::SimTime{5});
  EXPECT_EQ(merged[2].time, sim::SimTime{9});
  for (const auto& rec : merged) {
    EXPECT_EQ(rec.receiver, 1);
  }
}

TEST(MergedRecords, TiesKeepRankThenProgramOrder) {
  TraceStore store(3);
  // All at the same delivery time: the stable sort must keep rank-major
  // append order — rank 0's records first, each rank's program order intact.
  store.append(2, Level::Logical, make(7, 20, 1));
  store.append(2, Level::Logical, make(7, 21, 2));
  store.append(0, Level::Logical, make(7, 1, 3));
  store.append(1, Level::Logical, make(7, 10, 4));
  store.append(0, Level::Logical, make(7, 2, 5));

  const auto merged = merged_records(store, Level::Logical);
  ASSERT_EQ(merged.size(), 5u);
  const std::vector<std::int32_t> receivers{0, 0, 1, 2, 2};
  const std::vector<std::int32_t> senders{1, 2, 10, 20, 21};
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].receiver, receivers[i]) << i;
    EXPECT_EQ(merged[i].sender, senders[i]) << i;
  }
}

TEST(MergedRecords, TieBetweenRanksDoesNotReorderDistinctTimes) {
  TraceStore store(2);
  store.append(0, Level::Physical, make(1, 1, 10));
  store.append(0, Level::Physical, make(3, 1, 11));
  store.append(1, Level::Physical, make(3, 2, 12));
  store.append(1, Level::Physical, make(2, 2, 13));

  const auto merged = merged_records(store, Level::Physical);
  ASSERT_EQ(merged.size(), 4u);
  // t=2 (rank 1) sorts between rank 0's t=1 and t=3; the two t=3 records
  // keep rank order: rank 0 before rank 1.
  EXPECT_EQ(merged[0].bytes, 10);
  EXPECT_EQ(merged[1].bytes, 13);
  EXPECT_EQ(merged[2].bytes, 11);
  EXPECT_EQ(merged[3].bytes, 12);
}

TEST(MergedRecords, FilterDropsKindsAndUnresolvedBeforeTheSort) {
  TraceStore store(2);
  store.append(0, Level::Logical, make(1, 3, 10, OpKind::Collective));
  store.append(0, Level::Logical, make(2, kUnresolvedSender, 20));
  store.append(1, Level::Logical, make(3, 4, 30));

  // Default filter: unresolved senders dropped, both kinds kept.
  auto merged = merged_records(store, Level::Logical);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].kind, OpKind::Collective);
  EXPECT_EQ(merged[1].sender, 4);

  // Kind filter composes with the unresolved drop.
  merged = merged_records(store, Level::Logical, {.kind = OpKind::PointToPoint});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].sender, 4);

  // Keeping unresolved records surfaces the sentinel untouched.
  merged = merged_records(store, Level::Logical, {.drop_unresolved = false});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[1].sender, kUnresolvedSender);
}

TEST(MergedRecords, AllRecordsFilteredYieldsEmpty) {
  TraceStore store(1);
  store.append(0, Level::Logical, make(1, kUnresolvedSender, 10));
  EXPECT_TRUE(merged_records(store, Level::Logical).empty());
}

/// What the oracle stores exercised, so a generator change that stops
/// covering a case fails loudly instead of silently thinning the check.
struct Coverage {
  int empty_ranks = 0;
  int empty_levels = 0;
  int time_decreases = 0;
  int unresolved = 0;
  int ties_within_rank = 0;
  int ties_across_ranks = 0;
};

/// Seeded random store: 1-17 ranks, some ranks and whole levels empty,
/// small time ranges so equal times are common within and across ranks,
/// some ranks whose times decrease (as an imported trace may have), and
/// some unresolved senders at both levels.
TraceStore oracle_store(std::uint32_t seed, Coverage& seen) {
  std::mt19937 rng(seed);
  const int nranks = 1 + static_cast<int>(rng() % 17);
  TraceStore store(nranks);
  for (const auto level : {Level::Logical, Level::Physical}) {
    if (rng() % 6 == 0) {
      ++seen.empty_levels;
      continue;
    }
    std::vector<std::int64_t> first_times;
    for (int rank = 0; rank < nranks; ++rank) {
      const int count = rng() % 5 == 0 ? 0 : static_cast<int>(rng() % 40);
      const bool decreasing = rng() % 3 == 0;
      seen.empty_ranks += count == 0 ? 1 : 0;
      std::int64_t t = static_cast<std::int64_t>(rng() % 4);
      std::optional<std::int64_t> last;
      for (int i = 0; i < count; ++i) {
        t = decreasing ? static_cast<std::int64_t>(rng() % 12) : t + rng() % 3;
        const std::int32_t sender = rng() % 9 == 0 ? kUnresolvedSender
                                                   : static_cast<std::int32_t>(rng() % nranks);
        const auto bytes = static_cast<std::int64_t>(rng() % 4096);
        const OpKind kind = rng() % 3 == 0 ? OpKind::Collective : OpKind::PointToPoint;
        store.append(rank, level,
                     {.time = sim::SimTime{t}, .bytes = bytes, .sender = sender, .kind = kind});
        seen.unresolved += sender == kUnresolvedSender ? 1 : 0;
        seen.ties_within_rank += last == t ? 1 : 0;
        seen.time_decreases += last && t < *last ? 1 : 0;
        if (i == 0) {
          seen.ties_across_ranks +=
              std::find(first_times.begin(), first_times.end(), t) != first_times.end() ? 1 : 0;
          first_times.push_back(t);
        }
        last = t;
      }
    }
  }
  return store;
}

TEST(MergeOracle, MatchesConcatenateThenStableSortOnRandomStores) {
  const StreamFilter filters[] = {
      {},
      {.kind = OpKind::PointToPoint},
      {.kind = OpKind::Collective},
      {.drop_unresolved = false},
      {.kind = OpKind::Collective, .drop_unresolved = false},
  };
  Coverage seen;
  for (std::uint32_t seed = 1; seed <= 300; ++seed) {
    const TraceStore store = oracle_store(seed, seen);
    for (const auto level : {Level::Logical, Level::Physical}) {
      for (std::size_t f = 0; f < std::size(filters); ++f) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " level=" +
                     std::string(to_string(level)) + " filter=" + std::to_string(f));
        const auto expected = reference::merged_records(store, level, filters[f]);
        ASSERT_EQ(merged_records(store, level, filters[f]), expected);
        ASSERT_EQ(engine::events_from_trace(store, level, filters[f]),
                  reference::events_from_trace(store, level, filters[f]));
      }
    }
  }
  EXPECT_GT(seen.empty_ranks, 0);
  EXPECT_GT(seen.empty_levels, 0);
  EXPECT_GT(seen.time_decreases, 0);
  EXPECT_GT(seen.unresolved, 0);
  EXPECT_GT(seen.ties_within_rank, 0);
  EXPECT_GT(seen.ties_across_ranks, 0);
}

TEST(MergeOracle, SizeCountsWhatDrainEmitsAndDrainConsumes) {
  Coverage seen;
  const TraceStore store = oracle_store(7, seen);
  RecordMerge merge(store, Level::Physical, {.kind = OpKind::PointToPoint});
  std::size_t emitted = 0;
  merge.drain([&emitted](std::int32_t, const Record&) { ++emitted; });
  EXPECT_EQ(emitted, merge.size());
  EXPECT_EQ(emitted,
            reference::merged_records(store, Level::Physical, {.kind = OpKind::PointToPoint})
                .size());
  merge.drain([&emitted](std::int32_t, const Record&) { ++emitted; });
  EXPECT_EQ(emitted, merge.size());
}

}  // namespace
}  // namespace mpipred::trace
