#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/predictor.hpp"

namespace mpipred::core {

/// Accuracy bookkeeping for one horizon (+h).
struct HorizonAccuracy {
  std::int64_t hits = 0;
  std::int64_t misses = 0;       // a prediction existed and was wrong
  std::int64_t unpredicted = 0;  // no prediction existed (warm-up / lost period)

  [[nodiscard]] std::int64_t total() const noexcept { return hits + misses + unpredicted; }

  /// The paper's metric: correct predictions over *all* samples, so
  /// warm-up samples count against the predictor (that is why IS.4, with a
  /// ~100-sample stream, only reaches ~80%).
  [[nodiscard]] double accuracy() const noexcept {
    const auto t = total();
    return t == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(t);
  }

  [[nodiscard]] bool operator==(const HorizonAccuracy&) const = default;
};

/// Accuracy per horizon +1 ... +H. Field-wise comparable (all counters are
/// exact integers), which is what lets the engine-equivalence tests demand
/// identical — not approximately equal — results from parallel runs.
struct AccuracyReport {
  std::vector<HorizonAccuracy> horizons;

  [[nodiscard]] std::size_t max_horizon() const noexcept { return horizons.size(); }
  [[nodiscard]] const HorizonAccuracy& at(std::size_t h) const { return horizons.at(h - 1); }

  [[nodiscard]] bool operator==(const AccuracyReport&) const = default;
};

/// Replays a stream through a predictor, scoring every prediction when its
/// target sample arrives. Usage:
///
/// ```
/// AccuracyEvaluator eval(pred, 5);
/// for (auto v : stream) eval.observe(v);
/// AccuracyReport r = eval.report();
/// ```
///
/// Every sample contributes to every horizon's denominator; samples for
/// which the predictor had nothing to say count as `unpredicted`.
class AccuracyEvaluator {
 public:
  AccuracyEvaluator(Predictor& predictor, std::size_t horizon);

  void observe(Predictor::Value v);

  [[nodiscard]] const AccuracyReport& report() const noexcept { return report_; }
  [[nodiscard]] std::int64_t samples() const noexcept { return position_; }

  /// Heap bytes held by the pending buffer and the report's horizon rows
  /// (by capacity).
  [[nodiscard]] std::size_t heap_bytes() const noexcept;

 private:
  /// Has-bit words at the start of each pending row: ceil(H/64).
  [[nodiscard]] std::size_t has_words() const noexcept { return (horizon_ + 63) / 64; }

  Predictor* predictor_;
  std::size_t horizon_;
  AccuracyReport report_;
  // H+1 rows of has_words() + H words. Row t % (H+1) holds the
  // predictions targeted at stream position t: bit h-1 of its has-bit
  // words says whether the prediction made h steps earlier existed, and
  // value word h-1 holds it (the bits of a Predictor::Value). Positions
  // t, t+1, ..., t+H use distinct rows.
  std::vector<std::uint64_t> pending_;
  std::int64_t position_ = 0;
};

/// One-call helper: fresh evaluation of `stream` with `predictor` (which is
/// reset first).
[[nodiscard]] AccuracyReport evaluate_with(Predictor& predictor,
                                           std::span<const Predictor::Value> stream,
                                           std::size_t horizon);

}  // namespace mpipred::core
