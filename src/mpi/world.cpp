#include "mpi/world.hpp"

#include <algorithm>
#include <numeric>

#include "adaptive/policy.hpp"
#include "common/assert.hpp"
#include "mpi/communicator.hpp"

namespace mpipred::mpi {

const sim::EngineConfig& World::wired_engine_config() noexcept {
  cfg_.engine.telemetry = telemetry_;
  return cfg_.engine;
}

World::World(int nranks, WorldConfig cfg)
    : cfg_(cfg),
      owned_telemetry_(cfg.telemetry == nullptr ? std::make_unique<telemetry::Telemetry>()
                                                : nullptr),
      telemetry_(cfg.telemetry != nullptr ? cfg.telemetry : owned_telemetry_.get()),
      engine_(nranks, wired_engine_config()),
      traces_(nranks) {
  MPIPRED_REQUIRE(cfg.eager_threshold_bytes >= 0, "eager threshold cannot be negative");
  if (cfg.adaptive.enabled) {
    adaptive::PolicyConfig policy_cfg = cfg.adaptive.policy;
    // One protocol cutoff: the policy elides exactly the messages the
    // library would otherwise send via rendezvous.
    policy_cfg.rendezvous_threshold_bytes = cfg.eager_threshold_bytes;
    adaptive::ServiceConfig service_cfg = cfg.adaptive.service;
    // The prediction service's engines report into this world's registry
    // (engine.feed.* under {view=arrival}/{view=stream} labels).
    service_cfg.engine.metrics = &telemetry_->metrics();
    adaptive_ = std::make_unique<adaptive::AdaptivePolicy>(std::move(service_cfg), policy_cfg);
  }
  endpoints_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    endpoints_.push_back(std::make_unique<detail::Endpoint>(*this, r));
  }
}

World::~World() = default;

detail::Endpoint& World::endpoint(int world_rank) {
  MPIPRED_REQUIRE(world_rank >= 0 && world_rank < nranks(), "endpoint rank out of range");
  return *endpoints_[static_cast<std::size_t>(world_rank)];
}

std::uint32_t World::comm_id_for(std::uint64_t key) {
  const auto [it, inserted] = comm_ids_.try_emplace(key, next_comm_id_);
  if (inserted) {
    ++next_comm_id_;
  }
  return it->second;
}

detail::EndpointCounters World::aggregate_counters() const {
  detail::EndpointCounters total;
  for (const auto& ep : endpoints_) {
    const detail::EndpointCounters c = ep->counters();
    for (const auto& field : detail::EndpointCounters::fields()) {
      total.*field.member += c.*field.member;
    }
  }
  return total;
}

detail::ProgressStats World::aggregate_progress_stats() const {
  detail::ProgressStats total;
  for (const auto& ep : endpoints_) {
    const detail::ProgressStats s = ep->progress_stats();
    total.submitted += s.submitted;
    total.executed += s.executed;
    total.drains += s.drains;
    total.max_queue_depth = std::max(total.max_queue_depth, s.max_queue_depth);
    for (int k = 0; k < detail::ProgressTask::kKinds; ++k) {
      total.by_kind[k] += s.by_kind[k];
    }
  }
  return total;
}

void World::run(const std::function<void(Communicator&)>& rank_main) {
  MPIPRED_REQUIRE(rank_main != nullptr, "rank_main must be callable");
  engine_.run([this, &rank_main](sim::Rank& rank) {
    std::vector<int> group(static_cast<std::size_t>(nranks()));
    std::iota(group.begin(), group.end(), 0);
    Communicator comm(*this, rank, /*comm_id=*/0, std::move(group), rank.id());
    rank_main(comm);
  });
  if (adaptive_ != nullptr) {
    adaptive_->export_metrics(telemetry_->metrics());
  }
}

}  // namespace mpipred::mpi
