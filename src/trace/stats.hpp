#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "trace/store.hpp"

namespace mpipred::trace {

/// Table-1-style characterization of the message stream received by one
/// process. The paper's footnote reports "the number of the frequently
/// appearing sender and message sizes", so both the raw distinct count and
/// the frequent count (values covering at least `frequent_threshold` of the
/// stream) are computed.
struct RankSummary {
  std::int64_t p2p_msgs = 0;
  std::int64_t coll_msgs = 0;
  int distinct_sizes = 0;
  int distinct_senders = 0;
  int frequent_sizes = 0;
  int frequent_senders = 0;
  /// Frequent sizes counted at cluster granularity: sizes within 2% (or
  /// 64 bytes) of each other collapse into one cluster. Data-dependent
  /// payloads (IS's alltoallv) jitter by a few bytes per iteration; the
  /// paper's footnote counts sizes at this coarser granularity.
  int clustered_frequent_sizes = 0;
};

struct SummaryOptions {
  /// A value is "frequent" if it accounts for at least this fraction of the
  /// stream (the paper's footnote 1 motivates separating rare one-off
  /// senders/sizes from the recurring pattern).
  double frequent_threshold = 0.01;
};

[[nodiscard]] RankSummary summarize_rank(const TraceStore& store, int rank, Level level,
                                         const SummaryOptions& opts = {});

/// Value -> occurrence count histogram over sender ids or sizes.
[[nodiscard]] std::map<std::int64_t, std::int64_t> sender_histogram(const TraceStore& store,
                                                                    int rank, Level level);
[[nodiscard]] std::map<std::int64_t, std::int64_t> size_histogram(const TraceStore& store,
                                                                  int rank, Level level);

/// The rank whose received-message count is the median across all ranks —
/// the paper reports per-process numbers for a representative process.
[[nodiscard]] int representative_rank(std::span<const std::size_t> records_per_rank);

/// The same rule over the records `store` holds for each rank at `level`.
[[nodiscard]] int representative_rank(const TraceStore& store, Level level);

}  // namespace mpipred::trace
