#pragma once

// The query half of the adaptive runtime: wraps the sharded
// PredictionEngine behind the online per-receiver and per-(source, destination) API
// the simulated MPI library and ingest::replay_adaptive consume. Where the
// engine answers "how accurate were we" (scoring), the service answers
// "what should the library do next" (steering): who sends to `dst` next,
// how many bytes, and how much the answer can be trusted.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "adaptive/config.hpp"
#include "engine/engine.hpp"

namespace mpipred::adaptive {

/// One answer to "what arrives at `destination` next".
struct Prediction {
  /// Predicted sender rank.
  std::int32_t sender = 0;
  /// Predicted message size; nullopt when the size dimension had no basis
  /// (a sender prediction alone still lets the library pre-post a
  /// default-sized buffer).
  std::optional<std::int64_t> bytes;
  /// Observed +1 accuracy of the answering stream so far — the sender
  /// dimension's, min-ed with the size dimension's when `bytes` is set.
  /// 0.0 until the stream has scored at least one prediction, so fresh
  /// streams never pass a positive confidence gate.
  double confidence = 0.0;
};

/// Online prediction queries over a live trace of arrivals. Internally two
/// sharded engines consume every event: the *arrival* view keys streams
/// per receiver (the paper's setup — its sender sequence answers "who is
/// next"), the *stream* view keys per (source, destination) (its
/// size sequence answers "how large is the next message of this flow",
/// the granularity credits are planned at). All answers are pure functions
/// of per-stream predictor state, so they are identical for any
/// `engine.shards` value — the closed-loop runtime built on top stays
/// deterministic across shard counts.
class PredictionService {
 public:
  explicit PredictionService(ServiceConfig cfg = {});

  /// Feeds one arrival to both views (and the per-destination source
  /// registry that credit planning enumerates).
  void observe(const engine::Event& event);
  void observe_all(std::span<const engine::Event> events);

  /// Predicted (sender, size, confidence) `h` steps ahead for the stream
  /// arriving at `destination`; nullopt while the sender dimension has no
  /// prediction.
  [[nodiscard]] std::optional<Prediction> predict_next(std::int32_t destination,
                                                       std::size_t h = 1) const;

  /// The §5.3 set view: predictions for h = 1..horizon() that have a
  /// sender, in horizon order. Buffers and credits care about membership,
  /// not arrival order.
  [[nodiscard]] std::vector<Prediction> predicted_window(std::int32_t destination) const;

  /// Distinct senders of the predicted window whose confidence reaches
  /// `min_confidence`, in first-appearance order (deterministic).
  [[nodiscard]] std::vector<std::int32_t> predicted_senders(std::int32_t destination,
                                                            double min_confidence = 0.0) const;

  /// Observed +1 sender accuracy of the arrival stream at `destination`;
  /// 0.0 for receivers that have seen nothing. This is the confidence the
  /// policy's degrade gate compares against `min_confidence`.
  [[nodiscard]] double arrival_confidence(std::int32_t destination) const;

  /// The (source -> destination) flow resolved once: its next sizes
  /// (`predict_size(h)`, nullopt without a basis) and observed +1 size
  /// accuracy (`snapshot().size_accuracy`, 0.0 for unknown flows).
  [[nodiscard]] engine::StreamRef stream_view(std::int32_t source, std::int32_t destination) const;

  /// Every source that has ever sent to `destination`, in first-seen
  /// order. The feed order is deterministic, so so is this.
  [[nodiscard]] std::span<const std::int32_t> sources_of(std::int32_t destination) const;

  [[nodiscard]] std::size_t horizon() const noexcept { return horizon_; }
  [[nodiscard]] std::int64_t events_observed() const noexcept { return events_; }

  /// The per-receiver scoring view (what predict_nas prints); identical to
  /// a PredictionEngine fed the same events with the per-receiver policy.
  [[nodiscard]] const engine::PredictionEngine& arrival_engine() const noexcept {
    return arrival_;
  }
  /// The per-(source, destination) view credits are planned from.
  [[nodiscard]] const engine::PredictionEngine& stream_engine() const noexcept { return stream_; }

  [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }

 private:
  struct DestinationSources {
    std::int32_t destination = 0;
    std::vector<std::int32_t> sources;  // first-seen order
  };

  ServiceConfig cfg_;
  engine::PredictionEngine arrival_;
  engine::PredictionEngine stream_;
  std::size_t horizon_ = 1;  // after the engines: initialized from arrival_
  std::int64_t events_ = 0;
  std::vector<DestinationSources> sources_;  // few destinations: linear scan
};

}  // namespace mpipred::adaptive
