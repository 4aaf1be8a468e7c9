#include "adaptive/policy.hpp"

#include <algorithm>

namespace mpipred::adaptive {

namespace {

[[nodiscard]] std::int64_t round_up_to_granule(std::int64_t bytes) noexcept {
  return (bytes + kCreditGranuleBytes - 1) / kCreditGranuleBytes * kCreditGranuleBytes;
}

}  // namespace

AdaptivePolicy::AdaptivePolicy(ServiceConfig service, PolicyConfig cfg)
    : cfg_(cfg), service_(std::move(service)) {}

AdaptivePolicy::Receiver& AdaptivePolicy::receiver(std::int32_t destination) {
  const auto it = std::find_if(receivers_.begin(), receivers_.end(),
                               [&](const Receiver& r) { return r.destination == destination; });
  if (it != receivers_.end()) {
    return *it;
  }
  receivers_.push_back({.destination = destination,
                        .preposted = {},
                        .lru = {},
                        .active = !(service_.arrival_confidence(destination) < cfg_.min_confidence)});
  return receivers_.back();
}

const AdaptivePolicy::Receiver* AdaptivePolicy::find_receiver(std::int32_t destination) const {
  const auto it = std::find_if(receivers_.begin(), receivers_.end(),
                               [&](const Receiver& r) { return r.destination == destination; });
  return it == receivers_.end() ? nullptr : &*it;
}

void AdaptivePolicy::refresh_plan(Receiver& r) {
  // Confidence degrade: a receiver whose arrival stream scores below
  // min_confidence keeps no plan at all — not even the LRU tail — so its
  // behavior is exactly the static per-peer library's. (The strict `<`
  // keeps the min_confidence == 0.0 default byte-identical to the
  // pre-degrade policy: a fresh stream's 0.0 confidence still qualifies.)
  r.active = !(service_.arrival_confidence(r.destination) < cfg_.min_confidence);
  if (!r.active) {
    r.preposted.clear();
    return;
  }
  r.preposted = service_.predicted_senders(r.destination, cfg_.min_confidence);
  // Keep a small LRU of recent senders allocated as well, newest first.
  for (auto it = r.lru.rbegin(); it != r.lru.rend(); ++it) {
    if (std::find(r.preposted.begin(), r.preposted.end(), *it) == r.preposted.end()) {
      r.preposted.push_back(*it);
    }
  }
}

bool AdaptivePolicy::on_arrival(const engine::Event& event) {
  Receiver& r = receiver(event.destination);
  const bool hit =
      std::find(r.preposted.begin(), r.preposted.end(), event.source) != r.preposted.end();
  ++stats_.messages;
  if (!r.active) {
    ++stats_.degraded_arrivals;
  }
  if (hit) {
    ++stats_.prepost_hits;
  } else {
    ++stats_.prepost_misses;
  }

  // Account memory *before* adapting to this message.
  stats_.buffer_sum += static_cast<double>(r.preposted.size());
  stats_.peak_buffers =
      std::max(stats_.peak_buffers, static_cast<std::int64_t>(r.preposted.size()));

  // Learn and re-plan.
  service_.observe(event);
  r.lru.erase(std::remove(r.lru.begin(), r.lru.end(), event.source), r.lru.end());
  r.lru.push_back(event.source);
  if (r.lru.size() > cfg_.lru_keep) {
    r.lru.erase(r.lru.begin());
  }
  refresh_plan(r);
  return hit;
}

std::span<const std::int32_t> AdaptivePolicy::prepost_plan(std::int32_t destination) const {
  const Receiver* r = find_receiver(destination);
  return r == nullptr ? std::span<const std::int32_t>{}
                      : std::span<const std::int32_t>(r->preposted);
}

Protocol AdaptivePolicy::choose_protocol(const engine::Event& event) {
  if (event.bytes <= cfg_.rendezvous_threshold_bytes) {
    ++stats_.eager_sends;
    return Protocol::Eager;
  }
  // Was (sender, >= size) anticipated anywhere in the predicted window?
  // Buffers pre-allocated for the window make arrival order moot (§5.3).
  for (const Prediction& p : service_.predicted_window(event.destination)) {
    if (p.sender == event.source && p.bytes && *p.bytes >= event.bytes &&
        p.confidence >= cfg_.min_confidence) {
      ++stats_.rendezvous_elided;
      return Protocol::ElidedRendezvous;
    }
  }
  ++stats_.rendezvous_sends;
  return Protocol::Rendezvous;
}

void AdaptivePolicy::export_metrics(telemetry::MetricsRegistry& metrics) const {
  metrics.counter("adaptive.policy.messages").add(stats_.messages);
  metrics.counter("adaptive.policy.prepost_hits").add(stats_.prepost_hits);
  metrics.counter("adaptive.policy.prepost_misses").add(stats_.prepost_misses);
  metrics.counter("adaptive.policy.eager_sends").add(stats_.eager_sends);
  metrics.counter("adaptive.policy.rendezvous_sends").add(stats_.rendezvous_sends);
  metrics.counter("adaptive.policy.rendezvous_elided").add(stats_.rendezvous_elided);
  metrics.counter("adaptive.policy.degraded_arrivals").add(stats_.degraded_arrivals);
  metrics.counter("adaptive.policy.elision_saved_ns").add(stats_.elision_saved_ns);
  metrics.gauge("adaptive.policy.peak_buffers").observe_peak(stats_.peak_buffers);
}

std::vector<Credit> AdaptivePolicy::credit_plan(std::int32_t destination) const {
  std::vector<Credit> out;
  for (const std::int32_t source : service_.sources_of(destination)) {
    const engine::StreamRef flow = service_.stream_view(source, destination);
    if (flow.snapshot().size_accuracy < cfg_.min_confidence) {
      continue;
    }
    if (const auto bytes = flow.predict_size()) {
      out.push_back({.sender = source, .bytes = round_up_to_granule(*bytes)});
    }
  }
  return out;
}

}  // namespace mpipred::adaptive
