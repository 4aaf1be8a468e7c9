#include "engine/shard.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace mpipred::engine {

std::uint64_t stream_key_hash(const StreamKey& key) noexcept {
  std::uint64_t x = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.source)) << 32) |
                    static_cast<std::uint32_t>(key.destination);
  // Spread the tag across all 64 bits before folding it in: a plain shift
  // would overlap the source/destination ranges and give whole key
  // families (e.g. dst=65536,tag=0 vs dst=0,tag=1) identical pre-mixes.
  x ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.tag)) * 0xff51afd7ed558ccdULL;
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {

// Slots per table before the first growth; always a power of two.
constexpr std::size_t kInitialSlots = 16;

// The owner array of a pooled feed: each event's shard. One per feeding
// thread rather than one per shard set, so a thread that feeds several
// sets (the serve layer's sessions) keeps one array's capacity, not one
// per set; a feed blocks its thread until every shard is done with it.
thread_local std::vector<std::uint32_t> t_owners;

}  // namespace

StreamTable::StreamTable() : slots_(kInitialSlots) {}

StreamTable::~StreamTable() {
  for (const Entry& entry : entries_) {
    arena_.destroy(entry.state);
  }
}

StreamState& StreamTable::find_or_create(const StreamKey& key, std::uint64_t hash,
                                         const core::Predictor& prototype,
                                         std::size_t horizon) {
  // Grow at 3/4 load before probing, so the probe below always terminates
  // at a free slot.
  if ((entries_.size() + 1) * 4 > slots_.size() * 3) {
    grow();
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash) & mask;
  while (slots_[i].index != 0) {
    if (slots_[i].key == key) {
      return *entries_[slots_[i].index - 1].state;
    }
    i = (i + 1) & mask;
  }
  StreamState* state = arena_.create(prototype, horizon);
  try {
    entries_.push_back({key, state});
  } catch (...) {
    arena_.destroy(state);
    throw;
  }
  slots_[i] = {key, static_cast<std::uint32_t>(entries_.size())};
  return *state;
}

const StreamState* StreamTable::find(const StreamKey& key, std::uint64_t hash) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash) & mask;
  while (slots_[i].index != 0) {
    if (slots_[i].key == key) {
      return entries_[slots_[i].index - 1].state;
    }
    i = (i + 1) & mask;
  }
  return nullptr;
}

void StreamTable::grow() {
  std::vector<Slot> bigger(slots_.size() * 2);
  const std::size_t mask = bigger.size() - 1;
  for (std::size_t e = 0; e < entries_.size(); ++e) {
    std::size_t i = static_cast<std::size_t>(stream_key_hash(entries_[e].key)) & mask;
    while (bigger[i].index != 0) {
      i = (i + 1) & mask;
    }
    bigger[i] = {entries_[e].key, static_cast<std::uint32_t>(e + 1)};
  }
  slots_ = std::move(bigger);
}

void EngineShard::observe(const Event& event, const StreamKey& key, std::uint64_t hash) {
  StreamState& stream = table_.find_or_create(key, hash, *prototype_, horizon_);
  stream.sender_eval.observe(event.source);
  stream.size_eval.observe(event.bytes);
  ++stream.events;
}

void EngineShard::observe_owned(std::span<const Event> events,
                                std::span<const std::uint32_t> owners, std::uint32_t self,
                                const KeyPolicy& policy) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (owners[i] == self) {
      const StreamKey key = key_for(events[i], policy);
      observe(events[i], key, stream_key_hash(key));
    }
  }
}

ShardSet::ShardSet(std::size_t shards, const core::Predictor& prototype, std::size_t horizon,
                   KeyPolicy policy, ShardSetOptions options)
    : policy_(policy), pool_(options.pool) {
  MPIPRED_REQUIRE(shards >= 1, "engine needs at least one shard");
  MPIPRED_REQUIRE(options.pool == nullptr || options.pool->worker_count() + 1 >= shards,
                  "shared worker pool has fewer slots than shards - 1");
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.emplace_back(prototype, horizon);
  }
  telemetry::MetricsRegistry* metrics = options.metrics;
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<telemetry::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  feed_events_ = &metrics->counter("engine.feed.events", options.metric_labels);
  feed_batches_ = &metrics->counter("engine.feed.batches", options.metric_labels);
  streams_resident_ = &metrics->gauge("engine.streams.resident", options.metric_labels);
}

void ShardSet::update_resident_gauge() noexcept {
  streams_resident_->set(static_cast<std::int64_t>(stream_count()));
}

std::size_t ShardSet::shard_index(std::uint64_t hash) const noexcept {
  // Range-reduce the *high* half of the hash: the table probes use the low
  // bits, so the two picks stay independent and per-shard tables keep full
  // bucket entropy.
  return static_cast<std::size_t>(((hash >> 32) * shards_.size()) >> 32);
}

void ShardSet::route(const Event& event) {
  const StreamKey key = key_for(event, policy_);
  const std::uint64_t hash = stream_key_hash(key);
  shards_[shard_index(hash)].observe(event, key, hash);
}

void ShardSet::observe_one(const Event& event) {
  route(event);
  feed_events_->inc();
  update_resident_gauge();
}

void ShardSet::feed(std::span<const Event> events) {
  feed_batches_->inc();
  feed_events_->add(static_cast<std::int64_t>(events.size()));
  if (shards_.size() == 1 || events.size() < kMinParallelBatch) {
    for (const Event& event : events) {
      route(event);
    }
    update_resident_gauge();
    return;
  }
  if (pool_ == nullptr) {
    owned_pool_ = std::make_unique<WorkerPool>(shards_.size() - 1);
    pool_ = owned_pool_.get();
  }
  // Each event's shard, computed once: every shard then walks the span
  // and observes its own events in feed order, so workers never race on
  // a stream and no event is copied into a per-shard queue.
  t_owners.resize(events.size());
  touched_.assign(shards_.size(), 0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto shard =
        static_cast<std::uint32_t>(shard_index(stream_key_hash(key_for(events[i], policy_))));
    t_owners[i] = shard;
    touched_[shard] = 1;
  }
  // Wake only the workers whose shard owns events: a feed that routes to
  // two shards costs two condvar signals, not a broadcast.
  pending_.clear();
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    if (touched_[s] != 0) {
      pending_.push_back(s - 1);
    }
  }
  const std::span<const std::uint32_t> owners(t_owners.data(), events.size());
  pool_->run(
      pending_,
      [this, events, owners](std::size_t worker) {
        const auto self = static_cast<std::uint32_t>(worker + 1);
        shards_[self].observe_owned(events, owners, self, policy_);
      },
      [this, events, owners] {
        if (touched_[0] != 0) {
          shards_[0].observe_owned(events, owners, 0, policy_);
        }
      });
  update_resident_gauge();
}

StreamRef ShardSet::stream(const StreamKey& key) const noexcept {
  const std::uint64_t hash = stream_key_hash(key);
  return StreamRef(shards_[shard_index(hash)].table().find(key, hash));
}

std::size_t ShardSet::stream_count() const noexcept {
  std::size_t count = 0;
  for (const EngineShard& shard : shards_) {
    count += shard.table().size();
  }
  return count;
}

namespace {

void accumulate(core::AccuracyReport& total, const core::AccuracyReport& part) {
  if (total.horizons.size() < part.horizons.size()) {
    total.horizons.resize(part.horizons.size());
  }
  for (std::size_t i = 0; i < part.horizons.size(); ++i) {
    total.horizons[i].hits += part.horizons[i].hits;
    total.horizons[i].misses += part.horizons[i].misses;
    total.horizons[i].unpredicted += part.horizons[i].unpredicted;
  }
}

}  // namespace

EngineReport report_of(const ShardSet& shards) {
  EngineReport out;
  out.streams.reserve(shards.stream_count());
  shards.for_each_stream([&out](const StreamKey& key, const StreamState& state) {
    StreamReport row;
    row.key = key;
    row.events = state.events;
    row.senders = state.sender_eval.report();
    row.sizes = state.size_eval.report();
    row.footprint_bytes = state.footprint_bytes();
    out.streams.push_back(std::move(row));
  });
  // Canonical key order, then aggregate over the sorted rows: integer sums
  // are order-independent, so the report is identical for any shard count.
  std::sort(out.streams.begin(), out.streams.end(),
            [](const StreamReport& a, const StreamReport& b) { return a.key < b.key; });
  for (const StreamReport& row : out.streams) {
    out.events += row.events;
    accumulate(out.aggregate_senders, row.senders);
    accumulate(out.aggregate_sizes, row.sizes);
    out.total_footprint_bytes += row.footprint_bytes;
  }
  return out;
}

}  // namespace mpipred::engine
