#include "adaptive/service.hpp"

#include <algorithm>

namespace mpipred::adaptive {

namespace {

engine::EngineConfig view_config(const ServiceConfig& cfg, bool by_source) {
  engine::EngineConfig out = cfg.engine;
  out.key = {.by_source = by_source, .by_destination = true, .by_tag = false};
  // Both views share one registry (when the caller passed one); the view
  // label keeps their engine.* instruments distinct.
  out.metric_labels.set("view", by_source ? "stream" : "arrival");
  return out;
}

/// The arrival view's key: one stream per receiver.
engine::StreamKey receiver_key(std::int32_t destination) {
  return {.source = engine::kAnyKey, .destination = destination, .tag = engine::kAnyKey};
}

}  // namespace

PredictionService::PredictionService(ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      arrival_(view_config(cfg_, /*by_source=*/false)),
      stream_(view_config(cfg_, /*by_source=*/true)),
      horizon_(arrival_.horizon()) {}

void PredictionService::observe(const engine::Event& event) {
  arrival_.observe(event);
  stream_.observe(event);
  ++events_;
  auto it = std::find_if(sources_.begin(), sources_.end(), [&](const DestinationSources& d) {
    return d.destination == event.destination;
  });
  if (it == sources_.end()) {
    sources_.push_back({.destination = event.destination, .sources = {event.source}});
    return;
  }
  if (std::find(it->sources.begin(), it->sources.end(), event.source) == it->sources.end()) {
    it->sources.push_back(event.source);
  }
}

void PredictionService::observe_all(std::span<const engine::Event> events) {
  for (const engine::Event& event : events) {
    observe(event);
  }
}

namespace {

/// One horizon slot read off an already-resolved stream (no per-call
/// table lookups — this sits on the simulator's per-message path).
std::optional<Prediction> prediction_at(const engine::StreamRef& ref,
                                        const engine::StreamSnapshot& snap, std::size_t h) {
  const auto sender = ref.predict_sender(h);
  if (!sender) {
    return std::nullopt;
  }
  Prediction out;
  out.sender = static_cast<std::int32_t>(*sender);
  out.bytes = ref.predict_size(h);
  out.confidence =
      out.bytes ? std::min(snap.sender_accuracy, snap.size_accuracy) : snap.sender_accuracy;
  return out;
}

}  // namespace

std::optional<Prediction> PredictionService::predict_next(std::int32_t destination,
                                                          std::size_t h) const {
  const engine::StreamRef ref = arrival_.stream(receiver_key(destination));
  return prediction_at(ref, ref.snapshot(), h);
}

std::vector<Prediction> PredictionService::predicted_window(std::int32_t destination) const {
  const engine::StreamRef ref = arrival_.stream(receiver_key(destination));
  const engine::StreamSnapshot snap = ref.snapshot();
  std::vector<Prediction> out;
  out.reserve(horizon_);
  for (std::size_t h = 1; h <= horizon_; ++h) {
    if (auto p = prediction_at(ref, snap, h)) {
      out.push_back(*p);
    }
  }
  return out;
}

std::vector<std::int32_t> PredictionService::predicted_senders(std::int32_t destination,
                                                               double min_confidence) const {
  std::vector<std::int32_t> out;
  const engine::StreamRef ref = arrival_.stream(receiver_key(destination));
  // Gate on the sender dimension alone: a missing size prediction must not
  // block buffer pre-posting (the buffer has a fixed size anyway).
  if (ref.snapshot().sender_accuracy < min_confidence) {
    return out;
  }
  for (std::size_t h = 1; h <= horizon_; ++h) {
    const auto sender = ref.predict_sender(h);
    if (sender && std::find(out.begin(), out.end(), static_cast<std::int32_t>(*sender)) ==
                      out.end()) {
      out.push_back(static_cast<std::int32_t>(*sender));
    }
  }
  return out;
}

double PredictionService::arrival_confidence(std::int32_t destination) const {
  return arrival_.stream(receiver_key(destination)).snapshot().sender_accuracy;
}

engine::StreamRef PredictionService::stream_view(std::int32_t source,
                                                 std::int32_t destination) const {
  return stream_.stream({.source = source, .destination = destination, .tag = engine::kAnyKey});
}

std::span<const std::int32_t> PredictionService::sources_of(std::int32_t destination) const {
  const auto it = std::find_if(sources_.begin(), sources_.end(), [&](const DestinationSources& d) {
    return d.destination == destination;
  });
  return it == sources_.end() ? std::span<const std::int32_t>{}
                              : std::span<const std::int32_t>(it->sources);
}

}  // namespace mpipred::adaptive
