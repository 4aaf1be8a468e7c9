#pragma once

#include <optional>
#include <vector>

#include "core/dpd.hpp"
#include "core/predictor.hpp"

namespace mpipred::core {

/// Configuration of the periodicity-based stream predictor.
struct StreamPredictorConfig {
  DpdConfig dpd{};
  /// How many future values to predict (+1 ... +horizon; the paper uses 5).
  std::size_t horizon = 5;
};

/// The paper's predictor (§4.2): detect the iterative pattern with the
/// DPD, then read future values out of the previous period. Because the
/// period is known, *several* future values come for free — the property
/// that distinguishes this scheme from next-value heuristics.
class StreamPredictor final : public Predictor {
 public:
  explicit StreamPredictor(StreamPredictorConfig cfg = {});

  void observe(Value v) override;
  [[nodiscard]] std::optional<Value> predict(std::size_t h) const override;
  [[nodiscard]] std::size_t max_horizon() const override { return cfg_.horizon; }
  [[nodiscard]] std::string_view name() const override { return "dpd"; }
  void reset() override;
  [[nodiscard]] std::unique_ptr<Predictor> clone_fresh() const override;
  [[nodiscard]] std::size_t footprint_bytes() const override;

  /// "window" and "max_period" always; "period" only while one is
  /// detected (so trait(p, "period") doubles as the detection flag).
  [[nodiscard]] std::vector<PredictorTrait> describe() const override {
    std::vector<PredictorTrait> out = {
        {"window", static_cast<std::int64_t>(cfg_.dpd.window)},
        {"max_period", static_cast<std::int64_t>(cfg_.dpd.max_period)},
    };
    if (const auto p = period()) {
      out.push_back({"period", static_cast<std::int64_t>(*p)});
    }
    return out;
  }

  /// All horizons at once: index i holds the prediction for +.(i+1).
  [[nodiscard]] std::vector<std::optional<Value>> predict_all() const;

  /// Currently detected period, if any.
  [[nodiscard]] std::optional<std::size_t> period() const { return detector_.period(); }

  [[nodiscard]] const PeriodicityDetector& detector() const noexcept { return detector_; }
  [[nodiscard]] const StreamPredictorConfig& config() const noexcept { return cfg_; }

 private:
  StreamPredictorConfig cfg_;
  PeriodicityDetector detector_;
};

}  // namespace mpipred::core
