#include "core/accuracy.hpp"

#include <algorithm>
#include <span>

#include "common/assert.hpp"

namespace mpipred::core {

AccuracyEvaluator::AccuracyEvaluator(Predictor& predictor, std::size_t horizon)
    : predictor_(&predictor), horizon_(horizon) {
  MPIPRED_REQUIRE(horizon >= 1, "horizon must be at least 1");
  MPIPRED_REQUIRE(horizon <= predictor.max_horizon(),
                  "predictor does not support the requested horizon");
  report_.horizons.resize(horizon);
  pending_.assign((horizon + 1) * (has_words() + horizon), 0);
}

std::size_t AccuracyEvaluator::heap_bytes() const noexcept {
  return pending_.capacity() * sizeof(std::uint64_t) +
         report_.horizons.capacity() * sizeof(HorizonAccuracy);
}

void AccuracyEvaluator::observe(Predictor::Value v) {
  const std::size_t rows = horizon_ + 1;
  const std::size_t value_offset = has_words();  // values follow the has-bit words
  const std::size_t row_words = value_offset + horizon_;

  // 1. Score the predictions that targeted this position, then clear the
  // row's has-bits: every prediction in it targeted this position, and
  // the row is next written for position + H + 1.
  std::uint64_t* const row =
      pending_.data() + (static_cast<std::size_t>(position_) % rows) * row_words;
  const std::uint64_t* const values = row + value_offset;
  for (std::size_t h = 1; h <= horizon_; ++h) {
    auto& acc = report_.horizons[h - 1];
    if (((row[(h - 1) / 64] >> ((h - 1) % 64)) & 1U) == 0) {
      ++acc.unpredicted;
    } else if (static_cast<Predictor::Value>(values[h - 1]) == v) {
      ++acc.hits;
    } else {
      ++acc.misses;
    }
  }
  std::fill_n(row, value_offset, std::uint64_t{0});

  // 2. Feed the sample.
  predictor_->observe(v);
  ++position_;

  // 3. Snapshot the predictor's current view of the next H samples. The
  // just-observed sample sits at stream index position_-1, so horizon h
  // targets index position_-1+h, whose row follows horizon h-1's.
  std::size_t target = static_cast<std::size_t>(position_) % rows;
  for (std::size_t h = 1; h <= horizon_; ++h) {
    const auto pred = predictor_->predict(h);
    std::uint64_t* const target_row = pending_.data() + target * row_words;
    target_row[(h - 1) / 64] |= std::uint64_t{pred.has_value()} << ((h - 1) % 64);
    target_row[value_offset + h - 1] = static_cast<std::uint64_t>(pred.value_or(0));
    target = target + 1 == rows ? 0 : target + 1;
  }
}

AccuracyReport evaluate_with(Predictor& predictor, std::span<const Predictor::Value> stream,
                             std::size_t horizon) {
  predictor.reset();
  AccuracyEvaluator eval(predictor, horizon);
  for (const auto v : stream) {
    eval.observe(v);
  }
  return eval.report();
}

}  // namespace mpipred::core
