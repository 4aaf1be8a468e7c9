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

// Slot marker for an erased key: probes walk through it (the key that
// hashed past it must stay reachable), inserts may recycle it.
constexpr std::uint32_t kTombstone = 0xffffffffu;

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
  // Grow at 3/4 load — counting tombstones, which lengthen probe chains
  // just like live keys — before probing, so the probe below always
  // terminates at a free slot.
  if ((entries_.size() + tombstones_ + 1) * 4 > slots_.size() * 3) {
    grow();
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash) & mask;
  std::size_t insert_at = slots_.size();  // first tombstone seen, if any
  while (slots_[i].index != 0) {
    if (slots_[i].index == kTombstone) {
      if (insert_at == slots_.size()) {
        insert_at = i;
      }
    } else if (slots_[i].key == key) {
      return *entries_[slots_[i].index - 1].state;
    }
    i = (i + 1) & mask;
  }
  if (insert_at == slots_.size()) {
    insert_at = i;
  } else {
    --tombstones_;
  }
  StreamState* state = arena_.create(prototype, horizon);
  try {
    entries_.push_back({key, state});
  } catch (...) {
    arena_.destroy(state);
    throw;
  }
  slots_[insert_at] = {key, static_cast<std::uint32_t>(entries_.size())};
  return *state;
}

const StreamState* StreamTable::find(const StreamKey& key, std::uint64_t hash) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash) & mask;
  while (slots_[i].index != 0) {
    if (slots_[i].index != kTombstone && slots_[i].key == key) {
      return entries_[slots_[i].index - 1].state;
    }
    i = (i + 1) & mask;
  }
  return nullptr;
}

bool StreamTable::erase(const StreamKey& key, std::uint64_t hash) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash) & mask;
  while (slots_[i].index != 0) {
    if (slots_[i].index != kTombstone && slots_[i].key == key) {
      const std::uint32_t index = slots_[i].index;  // 1-based entry position
      arena_.destroy(entries_[index - 1].state);
      // Swap-remove keeps entries_ dense; the moved entry's slot must then
      // point at its new position.
      if (index != entries_.size()) {
        entries_[index - 1] = entries_.back();
        const std::uint64_t moved_hash = stream_key_hash(entries_[index - 1].key);
        std::size_t j = static_cast<std::size_t>(moved_hash) & mask;
        // Entry indices are unique across slots, and the moved key's slot
        // is reachable from its hash (erase leaves tombstones, never
        // holes), so probing for the index value alone terminates at it.
        while (slots_[j].index != static_cast<std::uint32_t>(entries_.size())) {
          j = (j + 1) & mask;
        }
        slots_[j].index = index;
      }
      entries_.pop_back();
      slots_[i].index = kTombstone;
      ++tombstones_;
      return true;
    }
    i = (i + 1) & mask;
  }
  return false;
}

void StreamTable::grow() {
  // Rebuild from the dense entries (rather than rehashing slots): erased
  // keys' tombstones are dropped here, so heavy eviction churn cannot
  // ratchet the table size up forever.
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
  tombstones_ = 0;
}

void EngineShard::observe(const Event& event, const StreamKey& key, std::uint64_t hash,
                          std::uint64_t tick) {
  StreamState& stream = table_.find_or_create(key, hash, *prototype_, horizon_);
  stream.sender_eval.observe(event.source);
  stream.size_eval.observe(event.bytes);
  ++stream.events;
  stream.last_touch = tick;
}

void EngineShard::drain(const KeyPolicy& policy, std::uint64_t tick) {
  for (const Event& event : batch_) {
    const StreamKey key = key_for(event, policy);
    observe(event, key, stream_key_hash(key), tick);
  }
  batch_.clear();
}

ShardSet::ShardSet(std::size_t shards, const core::Predictor& prototype, std::size_t horizon,
                   KeyPolicy policy, ShardSetOptions options)
    : policy_(policy),
      pool_(options.pool),
      clock_(options.clock != nullptr ? options.clock : &own_clock_) {
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

std::uint64_t ShardSet::next_tick() noexcept {
  // One tick per feed call (not per event or per shard): the stamp is
  // identical no matter how the batch is partitioned, so recency ordering
  // is deterministic across shard counts and batch sizes.
  return clock_->fetch_add(1, std::memory_order_relaxed) + 1;
}

void ShardSet::observe_tick(const Event& event, std::uint64_t tick) {
  const StreamKey key = key_for(event, policy_);
  const std::uint64_t hash = stream_key_hash(key);
  shards_[shard_index(hash)].observe(event, key, hash, tick);
}

void ShardSet::observe_one(const Event& event) {
  observe_tick(event, next_tick());
  feed_events_->inc();
  update_resident_gauge();
}

void ShardSet::feed(std::span<const Event> events) {
  const std::uint64_t tick = next_tick();
  feed_batches_->inc();
  feed_events_->add(static_cast<std::int64_t>(events.size()));
  if (shards_.size() == 1 || events.size() < kMinParallelBatch) {
    for (const Event& event : events) {
      observe_tick(event, tick);
    }
    update_resident_gauge();
    return;
  }
  partition(events);
  if (pool_ == nullptr) {
    owned_pool_ = std::make_unique<WorkerPool>(shards_.size() - 1);
    pool_ = owned_pool_.get();
  }
  // Wake only the workers whose shard actually received events: a feed
  // that routes to two shards costs two condvar signals, not a broadcast.
  pending_.clear();
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    if (!shards_[s].batch().empty()) {
      pending_.push_back(s - 1);
    }
  }
  pool_->run(
      pending_, [this, tick](std::size_t worker) { shards_[worker + 1].drain(policy_, tick); },
      [this, tick] { shards_[0].drain(policy_, tick); });
  update_resident_gauge();
}

void ShardSet::partition(std::span<const Event> events) {
  // A previous feed that threw (allocation failure mid-partition or
  // mid-drain) may have left stale queued events behind; drop them rather
  // than silently replaying them into the predictors twice.
  for (EngineShard& shard : shards_) {
    shard.batch().clear();
  }
  // Partition in feed order: each stream's subsequence lands in exactly
  // one shard's queue, already ordered — workers never race on a stream.
  for (const Event& event : events) {
    shards_[shard_index(stream_key_hash(key_for(event, policy_)))].batch().push_back(event);
  }
}

std::optional<std::size_t> ShardSet::erase(const StreamKey& key) {
  const std::uint64_t hash = stream_key_hash(key);
  EngineShard& shard = shards_[shard_index(hash)];
  const StreamState* state = shard.table().find(key, hash);
  if (state == nullptr) {
    return std::nullopt;
  }
  const std::size_t bytes =
      state->sender_predictor->footprint_bytes() + state->size_predictor->footprint_bytes();
  shard.table().erase(key, hash);
  update_resident_gauge();
  return bytes;
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
    row.footprint_bytes =
        state.sender_predictor->footprint_bytes() + state.size_predictor->footprint_bytes();
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
