#include "core/dpd.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace mpipred::core {

PeriodicityDetector::PeriodicityDetector(DpdConfig cfg) : cfg_(cfg) {
  MPIPRED_REQUIRE(cfg_.window >= 2, "window must hold at least two samples");
  MPIPRED_REQUIRE(cfg_.max_period >= 1, "max_period must be at least 1");
  MPIPRED_REQUIRE(cfg_.max_period * 2 <= cfg_.window,
                  "window must fit two full periods (max_period*2 <= window)");
  MPIPRED_REQUIRE(cfg_.confirm_periods >= 1, "confirm_periods must be at least 1");
  MPIPRED_REQUIRE(cfg_.mismatch_penalty >= 1, "mismatch penalty must be at least 1");
  ring_.assign(cfg_.window, Value{0});
  run_.assign(cfg_.max_period, 0);
  score_.assign(cfg_.max_period, 0);
}

void PeriodicityDetector::reset() {
  std::fill(ring_.begin(), ring_.end(), Value{0});
  std::fill(run_.begin(), run_.end(), std::size_t{0});
  std::fill(score_.begin(), score_.end(), std::size_t{0});
  total_ = 0;
  lag_ = 0;
}

std::size_t PeriodicityDetector::buffered() const noexcept {
  return std::min<std::size_t>(static_cast<std::size_t>(total_), cfg_.window);
}

PeriodicityDetector::Value PeriodicityDetector::value_at_lag(std::size_t lag) const {
  MPIPRED_REQUIRE(lag < buffered(), "lag exceeds buffered history");
  const std::size_t pos =
      static_cast<std::size_t>((total_ - 1 - static_cast<std::int64_t>(lag)) %
                               static_cast<std::int64_t>(cfg_.window));
  return ring_[pos];
}

void PeriodicityDetector::observe(Value v) {
  // Update the per-lag match scores before inserting, using the existing
  // history: the comparison is x[t] vs x[t-m]. A match earns one point
  // (capped), a mismatch costs `mismatch_penalty` — hysteresis that rides
  // through isolated glitches but drains quickly on real pattern changes.
  //
  // Only the live lags m <= min(buffered, M) are visited: a lag beyond the
  // buffered history has never had an x[t-m] to compare with, so its run
  // and score are still zero. The ring is walked by index (x[t-m] sits m
  // slots behind the write slot of x[t]), in two contiguous segments split
  // where the walk wraps, and the best confirmed run and score are tracked
  // on the way so the prediction lag resolves right after the pass.
  const std::size_t window = cfg_.window;
  const std::size_t live = std::min(buffered(), cfg_.max_period);
  const auto head = static_cast<std::size_t>(total_ % static_cast<std::int64_t>(window));
  const Value* const ring = ring_.data();
  std::size_t* const runs = run_.data();
  std::size_t* const scores = score_.data();
  const std::size_t penalty = cfg_.mismatch_penalty;
  std::size_t best_run = 0;
  std::size_t best_score = 0;
  // Lags [from, to] whose x[t-m] is ring[base - m].
  const auto update = [&](std::size_t from, std::size_t to, std::size_t base) {
    for (std::size_t m = from; m <= to; ++m) {
      const bool match = ring[base - m] == v;
      const std::size_t thr = threshold(m);
      std::size_t& run = runs[m - 1];
      std::size_t& score = scores[m - 1];
      const std::size_t raised = std::min(score + 1, 2 * thr);
      const std::size_t lowered = score - std::min(score, penalty);
      run = match ? run + 1 : 0;
      score = match ? raised : lowered;
      best_run = std::max(best_run, run >= thr ? run : 0);
      best_score = std::max(best_score, score >= thr ? score : 0);
    }
  };
  const std::size_t unwrapped = std::min(live, head);
  update(1, unwrapped, head);
  update(unwrapped + 1, live, head + window);
  ring_[head] = v;
  ++total_;
  lag_ = resolve_lag(live, best_run, best_score);
}

std::size_t PeriodicityDetector::resolve_lag(std::size_t live, std::size_t best_run,
                                             std::size_t best_score) const noexcept {
  // The smallest confirmed lag whose evidence is within half of the best;
  // the best lag itself always qualifies.
  const auto smallest_within_half = [&](const std::vector<std::size_t>& evidence,
                                        std::size_t best) -> std::size_t {
    for (std::size_t m = 1; m <= live; ++m) {
      if (evidence[m - 1] >= threshold(m) && 2 * evidence[m - 1] >= best) {
        return m;
      }
    }
    return 0;
  };
  // First choice: strict evidence. Among lags whose *consecutive* match
  // run passes the threshold, take the smallest one within half of the
  // longest run — on clean streams this is the fundamental period (or a
  // harmless multiple), and the evidence weighting discards lags that only
  // hold locally.
  if (best_run > 0) {
    return smallest_within_half(run_, best_run);
  }
  // Fallback: hysteretic evidence. Right after an isolated reordering all
  // strict runs are broken; the capped scores remember which lags held
  // until a moment ago, so prediction continues instead of going silent
  // for a whole relearning interval.
  if (best_score > 0) {
    return smallest_within_half(score_, best_score);
  }
  return 0;
}

std::size_t PeriodicityDetector::threshold(std::size_t m) const noexcept {
  return std::max(cfg_.confirm_periods * m, cfg_.min_confirm_samples);
}

std::optional<std::size_t> PeriodicityDetector::period() const {
  for (std::size_t m = 1; m <= cfg_.max_period; ++m) {
    if (run_[m - 1] < threshold(m)) {
      continue;
    }
    // Exact verification over a recent window of ~3 periods (at least the
    // confirmation floor): the window must be m-periodic sample for
    // sample, which score drift cannot fake.
    const std::size_t span =
        std::min(buffered(), std::max(3 * m, 2 * cfg_.min_confirm_samples));
    if (span <= m) {
      continue;
    }
    bool exact = true;
    for (std::size_t i = 0; i + m < span && exact; ++i) {
      exact = value_at_lag(i) == value_at_lag(i + m);
    }
    if (exact) {
      return m;
    }
  }
  return std::nullopt;
}

std::optional<std::size_t> PeriodicityDetector::prediction_lag() const {
  if (lag_ == 0) {
    return std::nullopt;
  }
  return lag_;
}

int PeriodicityDetector::distance(std::size_t m) const {
  MPIPRED_REQUIRE(m >= 1 && m <= cfg_.max_period, "delay out of range");
  const std::size_t n = buffered();
  if (n <= m) {
    return 1;  // nothing comparable: treat as "not periodic at m"
  }
  for (std::size_t i = 0; i + m < n; ++i) {
    // Compare x[t-i] with x[t-i-m] over the window.
    if (value_at_lag(i) != value_at_lag(i + m)) {
      return 1;
    }
  }
  return 0;
}

}  // namespace mpipred::core
