#include "engine/engine.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "engine/shard.hpp"

namespace mpipred::engine {

std::string to_string(const StreamKey& key) {
  const auto part = [](std::int32_t v) {
    return v == kAnyKey ? std::string("*") : std::to_string(v);
  };
  return "src=" + part(key.source) + " dst=" + part(key.destination) + " tag=" + part(key.tag);
}

std::size_t effective_shard_count(std::size_t requested) noexcept {
  if (requested != 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

StreamKey key_for(const Event& event, const KeyPolicy& policy) noexcept {
  return {.source = policy.by_source ? event.source : kAnyKey,
          .destination = policy.by_destination ? event.destination : kAnyKey,
          .tag = policy.by_tag ? event.tag : kAnyKey};
}

PredictionEngine::PredictionEngine(EngineConfig cfg)
    : cfg_(std::move(cfg)),
      prototype_(make_predictor(cfg_.predictor, cfg_.options)),
      horizon_(std::min(cfg_.options.horizon, prototype_->max_horizon())) {
  MPIPRED_REQUIRE(horizon_ >= 1, "engine horizon must be at least 1");
  shards_ = std::make_unique<ShardSet>(
      effective_shard_count(cfg_.shards), *prototype_, horizon_, cfg_.key,
      ShardSetOptions{.metrics = cfg_.metrics, .metric_labels = cfg_.metric_labels});
}

PredictionEngine::PredictionEngine(PredictionEngine&&) noexcept = default;
PredictionEngine& PredictionEngine::operator=(PredictionEngine&&) noexcept = default;
PredictionEngine::~PredictionEngine() = default;

StreamKey PredictionEngine::key_of(const Event& event) const {
  return key_for(event, cfg_.key);
}

std::size_t PredictionEngine::stream_count() const noexcept { return shards_->stream_count(); }

std::size_t PredictionEngine::shard_count() const noexcept { return shards_->shard_count(); }

void PredictionEngine::observe(const Event& event) { shards_->observe_one(event); }

void PredictionEngine::observe_all(std::span<const Event> events) { shards_->feed(events); }

void drive_batches(const BatchProducer& produce,
                   const std::function<void(std::span<const Event>)>& feed) {
  std::vector<Event> current;
  std::vector<Event> next;
  produce(current);
  while (!current.empty()) {
    // Double buffering: the producer parses batch N+1 on its own thread
    // while the consumer feeds batch N. Batches are handed over at the
    // join, so the feed order — and therefore every report — is exactly
    // the sequential one.
    std::exception_ptr producer_error;
    next.clear();
    std::thread producer([&] {
      try {
        produce(next);
      } catch (...) {
        producer_error = std::current_exception();
      }
    });
    try {
      feed(current);
    } catch (...) {
      producer.join();
      throw;
    }
    producer.join();
    if (producer_error) {
      std::rethrow_exception(producer_error);
    }
    current.swap(next);
  }
}

void PredictionEngine::observe_batches(const BatchProducer& produce) {
  drive_batches(produce, [this](std::span<const Event> batch) { shards_->feed(batch); });
}

std::optional<core::Predictor::Value> StreamRef::predict_sender(std::size_t h) const {
  return state_ == nullptr ? std::nullopt : state_->sender_predictor->predict(h);
}

std::optional<core::Predictor::Value> StreamRef::predict_size(std::size_t h) const {
  return state_ == nullptr ? std::nullopt : state_->size_predictor->predict(h);
}

StreamSnapshot StreamRef::snapshot() const {
  if (state_ == nullptr) {
    return {};
  }
  const auto plus_one = [](const core::AccuracyReport& report) {
    return report.max_horizon() == 0 ? 0.0 : report.at(1).accuracy();
  };
  return {.events = state_->events,
          .sender_accuracy = plus_one(state_->sender_eval.report()),
          .size_accuracy = plus_one(state_->size_eval.report())};
}

StreamRef PredictionEngine::stream(const StreamKey& key) const { return shards_->stream(key); }

EngineReport PredictionEngine::report() const { return report_of(*shards_); }

std::vector<Event> events_from_trace(const trace::TraceStore& store, trace::Level level,
                                     const trace::StreamFilter& filter) {
  trace::RecordMerge merge(store, level, filter);
  std::vector<Event> out;
  out.reserve(merge.size());
  merge.drain([&out](std::int32_t receiver, const trace::Record& rec) {
    out.push_back({.source = rec.sender,
                   .destination = receiver,
                   .tag = static_cast<std::int32_t>(rec.kind),
                   .bytes = rec.bytes});
  });
  return out;
}

std::vector<Event> events_from_rank(const trace::TraceStore& store, int rank,
                                    trace::Level level, const trace::StreamFilter& filter) {
  std::vector<Event> out;
  for (const trace::Record& rec : store.records(rank, level)) {
    if (!filter.passes(rec)) {
      continue;
    }
    out.push_back({.source = rec.sender,
                   .destination = rank,
                   .tag = static_cast<std::int32_t>(rec.kind),
                   .bytes = rec.bytes});
  }
  return out;
}

}  // namespace mpipred::engine
