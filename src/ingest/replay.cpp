#include "ingest/replay.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

namespace mpipred::ingest {

namespace {

/// `value` as printf's "%.6f", however long that gets.
std::string fixed6(double value) {
  const int n = std::snprintf(nullptr, 0, "%.6f", value);
  std::string out(static_cast<std::size_t>(n), '\0');
  std::snprintf(out.data(), out.size() + 1, "%.6f", value);
  return out;
}

}  // namespace

std::string AdaptiveReplay::summary() const {
  return "messages=" + std::to_string(stats.messages) +
         " hits=" + std::to_string(stats.prepost_hits) +
         " misses=" + std::to_string(stats.prepost_misses) +
         " avg_buffers=" + fixed6(stats.avg_buffers()) +
         " peak_buffers=" + std::to_string(stats.peak_buffers) +
         " eager=" + std::to_string(stats.eager_sends) +
         " rendezvous=" + std::to_string(stats.rendezvous_sends) +
         " elided=" + std::to_string(stats.rendezvous_elided) +
         " credit_hits=" + std::to_string(credit_hits) +
         " credit_misses=" + std::to_string(credit_misses) +
         " peak_pledged_bytes=" + std::to_string(peak_pledged_bytes);
}

AdaptiveReplay replay_adaptive(std::span<const engine::Event> events,
                               const adaptive::RuntimeConfig& cfg,
                               telemetry::Telemetry* telemetry) {
  adaptive::ServiceConfig service_cfg = cfg.service;
  if (telemetry != nullptr) {
    service_cfg.engine.metrics = &telemetry->metrics();
  }
  adaptive::AdaptivePolicy policy(std::move(service_cfg), cfg.policy);
  telemetry::TraceEventSink* tracer = telemetry != nullptr ? telemetry->tracer() : nullptr;
  AdaptiveReplay out;
  std::int64_t ordinal = 0;
  for (const engine::Event& event : events) {
    // The sender's protocol and credit decisions at post time, then the
    // receiver's arrival path — the order the live endpoint drives the
    // policy in.
    (void)policy.choose_protocol(event);
    std::int64_t pledged = 0;
    bool covered = false;
    for (const adaptive::Credit& c : policy.credit_plan(event.destination)) {
      pledged += c.bytes;
      covered = covered || c.covers(event.source, event.bytes);
    }
    out.peak_pledged_bytes = std::max(out.peak_pledged_bytes, pledged);
    ++(covered ? out.credit_hits : out.credit_misses);
    const bool hit = policy.on_arrival(event);
    if (tracer != nullptr) {
      // An ingested stream has no clock; event ordinals stand in for it.
      tracer->instant_at(event.destination, hit ? "prepost-hit" : "prepost-miss", "replay",
                         ordinal,
                         "\"sender\":" + std::to_string(event.source) +
                             ",\"bytes\":" + std::to_string(event.bytes));
    }
    ++ordinal;
  }
  if (telemetry != nullptr) {
    policy.export_metrics(telemetry->metrics());
  }
  out.stats = policy.stats();
  return out;
}

adaptive::PolicyStats replay_lru(std::span<const engine::Event> events, std::size_t k) {
  adaptive::PolicyStats stats;
  std::map<std::int32_t, std::vector<std::int32_t>> lru_by_destination;  // newest last
  for (const engine::Event& event : events) {
    std::vector<std::int32_t>& lru = lru_by_destination[event.destination];
    const auto it = std::find(lru.begin(), lru.end(), event.source);
    ++stats.messages;
    ++(it != lru.end() ? stats.prepost_hits : stats.prepost_misses);
    stats.buffer_sum += static_cast<double>(lru.size());
    stats.peak_buffers = std::max(stats.peak_buffers, static_cast<std::int64_t>(lru.size()));
    if (it != lru.end()) {
      lru.erase(it);
    }
    lru.push_back(event.source);
    if (lru.size() > k) {
      lru.erase(lru.begin());
    }
  }
  return stats;
}

}  // namespace mpipred::ingest
