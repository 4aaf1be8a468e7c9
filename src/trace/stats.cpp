#include "trace/stats.hpp"

#include <algorithm>

namespace mpipred::trace {

namespace {

struct Frequencies {
  std::map<std::int64_t, std::int64_t> counts;
  std::int64_t total = 0;

  void add(std::int64_t v) {
    ++counts[v];
    ++total;
  }

  [[nodiscard]] int distinct() const { return static_cast<int>(counts.size()); }

  [[nodiscard]] int frequent(double threshold) const {
    if (total == 0) {
      return 0;
    }
    int n = 0;
    for (const auto& [value, count] : counts) {
      if (static_cast<double>(count) >= threshold * static_cast<double>(total)) {
        ++n;
      }
    }
    return n;
  }
};

}  // namespace

RankSummary summarize_rank(const TraceStore& store, int rank, Level level,
                           const SummaryOptions& opts) {
  RankSummary out;
  Frequencies senders;
  Frequencies sizes;
  for (const Record& rec : store.records(rank, level)) {
    if (rec.kind == OpKind::PointToPoint) {
      ++out.p2p_msgs;
    } else {
      ++out.coll_msgs;
    }
    if (rec.sender != kUnresolvedSender) {
      senders.add(rec.sender);
    }
    sizes.add(rec.bytes);
  }
  out.distinct_senders = senders.distinct();
  out.distinct_sizes = sizes.distinct();
  out.frequent_senders = senders.frequent(opts.frequent_threshold);
  out.frequent_sizes = sizes.frequent(opts.frequent_threshold);

  // Cluster sizes: walk the sorted histogram, merging neighbours within
  // 2% (or 64 bytes); a cluster is frequent if its total share passes the
  // threshold.
  std::int64_t cluster_count = 0;
  std::int64_t cluster_end = -1;
  int clusters = 0;
  const auto flush = [&] {
    if (cluster_count > 0 &&
        static_cast<double>(cluster_count) >=
            opts.frequent_threshold * static_cast<double>(sizes.total)) {
      ++clusters;
    }
  };
  for (const auto& [value, count] : sizes.counts) {
    if (value > cluster_end) {
      flush();
      cluster_count = 0;
      cluster_end = value + std::max<std::int64_t>(64, value / 50);
    }
    cluster_count += count;
  }
  flush();
  out.clustered_frequent_sizes = clusters;
  return out;
}

std::map<std::int64_t, std::int64_t> sender_histogram(const TraceStore& store, int rank,
                                                      Level level) {
  std::map<std::int64_t, std::int64_t> h;
  for (const Record& rec : store.records(rank, level)) {
    if (rec.sender != kUnresolvedSender) {
      ++h[rec.sender];
    }
  }
  return h;
}

std::map<std::int64_t, std::int64_t> size_histogram(const TraceStore& store, int rank,
                                                    Level level) {
  std::map<std::int64_t, std::int64_t> h;
  for (const Record& rec : store.records(rank, level)) {
    ++h[rec.bytes];
  }
  return h;
}

int representative_rank(std::span<const std::size_t> records_per_rank) {
  std::vector<std::pair<std::size_t, int>> by_count;
  by_count.reserve(records_per_rank.size());
  for (std::size_t r = 0; r < records_per_rank.size(); ++r) {
    by_count.emplace_back(records_per_rank[r], static_cast<int>(r));
  }
  std::sort(by_count.begin(), by_count.end());
  return by_count[by_count.size() / 2].second;
}

int representative_rank(const TraceStore& store, Level level) {
  std::vector<std::size_t> counts;
  counts.reserve(static_cast<std::size_t>(store.nranks()));
  for (int r = 0; r < store.nranks(); ++r) {
    counts.push_back(store.records(r, level).size());
  }
  return representative_rank(counts);
}

}  // namespace mpipred::trace
