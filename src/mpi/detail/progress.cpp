#include "mpi/detail/progress.hpp"

#include <string>

#include "common/assert.hpp"

namespace mpipred::mpi::detail {

const char* kind_name(ProgressTask::Kind kind) noexcept {
  switch (kind) {
    case ProgressTask::Kind::EagerArrival: return "eager_arrival";
    case ProgressTask::Kind::RtsArrival: return "rts_arrival";
    case ProgressTask::Kind::RendezvousData: return "rendezvous_data";
    case ProgressTask::Kind::CreditRelease: return "credit_release";
    case ProgressTask::Kind::Callback: return "callback";
  }
  return "?";
}

ProgressEngine::ProgressEngine(Handler handler, telemetry::MetricsRegistry* metrics,
                               const telemetry::LabelSet& labels)
    : handler_(std::move(handler)) {
  MPIPRED_REQUIRE(handler_ != nullptr, "progress engine needs a task handler");
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<telemetry::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  submitted_ = &metrics->counter("mpi.progress.submitted", labels);
  executed_ = &metrics->counter("mpi.progress.executed", labels);
  drains_ = &metrics->counter("mpi.progress.drains", labels);
  queue_depth_ = &metrics->gauge("mpi.progress.queue_depth", labels);
  for (int k = 0; k < ProgressTask::kKinds; ++k) {
    telemetry::LabelSet kind_labels = labels;
    kind_labels.set("kind", kind_name(static_cast<ProgressTask::Kind>(k)));
    by_kind_[k] = &metrics->counter("mpi.progress.tasks", kind_labels);
  }
}

void ProgressEngine::submit(ProgressTask t) {
  submitted_->inc();
  by_kind_[static_cast<std::size_t>(t.kind)]->inc();
  queue_.push_back(std::move(t));
  queue_depth_->add(1);
  if (!draining_) {
    drain();
  }
}

void ProgressEngine::drain() {
  struct DrainGuard {  // handlers may throw (e.g. message truncation)
    bool& flag;
    ~DrainGuard() { flag = false; }
  };
  draining_ = true;
  DrainGuard guard{draining_};
  while (!queue_.empty()) {
    // Move the task out first: the handler may submit (push_back) and a
    // reference into the deque would not survive reallocation of its map.
    ProgressTask task = std::move(queue_.front());
    queue_.pop_front();
    queue_depth_->add(-1);
    executed_->inc();
    if (tracer_ != nullptr) {
      tracer_->instant(track_, std::string("task:") + kind_name(task.kind), "progress");
      tracer_->counter(track_, "progress_queue_depth",
                       static_cast<std::int64_t>(queue_.size()));
    }
    handler_(task);
  }
  drains_->inc();
}

ProgressStats ProgressEngine::stats() const {
  ProgressStats s;
  s.submitted = submitted_->value();
  s.executed = executed_->value();
  s.drains = drains_->value();
  s.max_queue_depth = queue_depth_->peak();
  for (int k = 0; k < ProgressTask::kKinds; ++k) {
    s.by_kind[k] = by_kind_[k]->value();
  }
  return s;
}

}  // namespace mpipred::mpi::detail
