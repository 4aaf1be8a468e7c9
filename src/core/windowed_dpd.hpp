#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/dpd.hpp"
#include "core/predictor.hpp"

namespace mpipred::core {

/// Literal implementation of the reference DPD criterion: a period m is
/// declared iff d(m) == 0 over the *entire* current window of N samples
/// (equation 1 of the paper, no hysteresis, no run shortcuts).
///
/// This is the ablation partner of PeriodicityDetector/StreamPredictor:
///  * on clean (logical) streams the two agree almost everywhere;
///  * after a single reordering, the full-window criterion stays silent
///    for up to N samples (the glitch must leave the window), while the
///    production detector's hysteresis rides through — `reproduce_paper
///    ablation` quantifies exactly this difference on real traces.
///
/// Window semantics make the incremental trick of the production detector
/// unavailable; observe() costs O(M) via mismatch bookkeeping (per lag,
/// the position of the most recent mismatch: d(m)==0 over the window iff
/// that position has scrolled out) and resolves the period once, so
/// period() and predict() are O(1).
///
/// Its state grows with the history seen, as PeriodicityDetector's does:
/// the ring holds min(samples, N) values and last_bad_ covers the
/// min(samples, M) lags compared so far, each up to exactly N (or M).
/// reset() empties both but keeps their capacity.
class WindowedDpdPredictor final : public Predictor {
 public:
  explicit WindowedDpdPredictor(DpdConfig cfg = {}, std::size_t horizon = 5);

  void observe(Value v) override;
  [[nodiscard]] std::optional<Value> predict(std::size_t h) const override;
  [[nodiscard]] std::size_t max_horizon() const override { return horizon_; }
  [[nodiscard]] std::string_view name() const override { return "dpd-window"; }
  void reset() override;
  [[nodiscard]] std::unique_ptr<Predictor> clone_fresh() const override;
  [[nodiscard]] std::size_t footprint_bytes() const override;

  /// Smallest m with d(m) == 0 over the full window (needs at least
  /// min_confirm_samples comparisons at lag m). O(1): resolved by observe().
  [[nodiscard]] std::optional<std::size_t> period() const;

  [[nodiscard]] std::int64_t samples() const noexcept { return total_; }

  /// "window", "max_period", and "samples" always; "period" only while
  /// the full-window criterion currently declares one.
  [[nodiscard]] std::vector<PredictorTrait> describe() const override {
    std::vector<PredictorTrait> out = {
        {"window", static_cast<std::int64_t>(cfg_.window)},
        {"max_period", static_cast<std::int64_t>(cfg_.max_period)},
        {"samples", total_},
    };
    if (const auto p = period()) {
      out.push_back({"period", static_cast<std::int64_t>(*p)});
    }
    return out;
  }

 private:
  [[nodiscard]] std::size_t buffered() const noexcept;
  [[nodiscard]] Value value_at_lag(std::size_t lag) const;
  /// The full-window criterion over the current state; 0 means no period.
  [[nodiscard]] std::size_t resolve_period() const noexcept;

  DpdConfig cfg_;
  std::size_t horizon_;
  // The last min(samples, window) samples: appended until full, then
  // written circularly at samples % window.
  std::vector<Value> ring_;
  // last_bad_[m-1], per compared lag m <= min(buffered, max_period): stream
  // index of the latest t with x[t] != x[t-m] (-1 if never). d(m)==0 over
  // the window iff last_bad_ scrolled out.
  std::vector<std::int64_t> last_bad_;
  std::int64_t total_ = 0;
  std::size_t period_ = 0;  // period() as of the last observe(); 0 = none
};

}  // namespace mpipred::core
