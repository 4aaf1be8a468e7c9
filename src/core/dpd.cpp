#include "core/dpd.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"

namespace mpipred::core {

PeriodicityDetector::PeriodicityDetector(DpdConfig cfg) : cfg_(cfg) {
  MPIPRED_REQUIRE(cfg_.window >= 2, "window must hold at least two samples");
  MPIPRED_REQUIRE(cfg_.max_period >= 1, "max_period must be at least 1");
  MPIPRED_REQUIRE(cfg_.max_period * 2 <= cfg_.window,
                  "window must fit two full periods (max_period*2 <= window)");
  MPIPRED_REQUIRE(cfg_.confirm_periods >= 1, "confirm_periods must be at least 1");
  MPIPRED_REQUIRE(cfg_.mismatch_penalty >= 1, "mismatch penalty must be at least 1");
  // Scores are capped at twice the largest threshold and held in 32 bits.
  constexpr std::size_t kMaxThreshold = std::numeric_limits<std::uint32_t>::max() / 2;
  MPIPRED_REQUIRE(cfg_.confirm_periods <= kMaxThreshold / cfg_.max_period &&
                      cfg_.min_confirm_samples <= kMaxThreshold,
                  "twice the confirmation threshold must fit in 32 bits");
}

void PeriodicityDetector::reset() {
  ring_lo_.clear();
  ring_hi_.clear();
  run_.clear();
  score_.clear();
  total_ = 0;
  lag_ = 0;
}

std::size_t PeriodicityDetector::heap_bytes() const noexcept {
  return (ring_lo_.capacity() + ring_hi_.capacity() + run_.capacity() + score_.capacity()) *
         sizeof(std::uint32_t);
}

std::size_t PeriodicityDetector::buffered() const noexcept {
  return std::min<std::size_t>(static_cast<std::size_t>(total_), cfg_.window);
}

PeriodicityDetector::Value PeriodicityDetector::value_at_lag(std::size_t lag) const {
  MPIPRED_REQUIRE(lag < buffered(), "lag exceeds buffered history");
  const std::size_t pos =
      static_cast<std::size_t>((total_ - 1 - static_cast<std::int64_t>(lag)) %
                               static_cast<std::int64_t>(cfg_.window));
  return static_cast<Value>(std::uint64_t{ring_hi_[pos]} << 32 | ring_lo_[pos]);
}

void PeriodicityDetector::observe(Value v) {
  // Update the per-lag match scores before inserting, using the existing
  // history: the comparison is x[t] vs x[t-m]. A match earns one point
  // (capped), a mismatch costs `mismatch_penalty` — hysteresis that rides
  // through isolated glitches but drains quickly on real pattern changes.
  //
  // Only the live lags m <= min(buffered, M) are visited: a lag beyond the
  // buffered history has never had an x[t-m] to compare with, so it has
  // no run or score yet. Live grows by at most one lag per sample, and the
  // new lag starts from zero. The ring is walked by index (x[t-m] sits m
  // slots behind the write slot of x[t]), in two contiguous segments split
  // where the walk wraps, and the best confirmed run and score are tracked
  // on the way so the prediction lag resolves right after the pass.
  const std::size_t window = cfg_.window;
  const std::size_t live = std::min(buffered(), cfg_.max_period);
  if (run_.size() < live) {
    detail::append_bounded(run_, std::uint32_t{0}, cfg_.max_period);
    detail::append_bounded(score_, std::uint32_t{0}, cfg_.max_period);
  }
  const auto head = static_cast<std::size_t>(total_ % static_cast<std::int64_t>(window));
  const auto vlo = static_cast<std::uint32_t>(static_cast<std::uint64_t>(v));
  const auto vhi = static_cast<std::uint32_t>(static_cast<std::uint64_t>(v) >> 32);
  const std::uint32_t* const ring_lo = ring_lo_.data();
  const std::uint32_t* const ring_hi = ring_hi_.data();
  std::uint32_t* const runs = run_.data();
  std::uint32_t* const scores = score_.data();
  // A score never exceeds 2 * threshold <= UINT32_MAX - 1 (constructor),
  // so clamping the penalty to 32 bits lowers it exactly as the full
  // penalty would.
  const auto penalty = static_cast<std::uint32_t>(
      std::min<std::size_t>(cfg_.mismatch_penalty, std::numeric_limits<std::uint32_t>::max()));
  std::uint32_t best_run = 0;
  std::uint32_t best_score = 0;
  // Lags [from, to] whose x[t-m] is ring[base - m]. Every lane is 32 bits
  // wide, selects by mask instead of by branch, and the maxima reduce in
  // locals: that is the form GCC vectorizes at the baseline x86-64 ISA,
  // which has no unsigned 32-bit min/max, so the pass avoids them where an
  // invariant allows. threshold(m) carries confirm_periods * m as an
  // induction; a score never exceeds 2 * threshold, so a match raises it
  // unless it sits at that cap; a mismatch floors it at 0.
  const auto all_ones_if = [](bool b) { return 0U - static_cast<std::uint32_t>(b); };
  const auto confirm = static_cast<std::uint32_t>(cfg_.confirm_periods);
  const auto min_samples = static_cast<std::uint32_t>(cfg_.min_confirm_samples);
  const auto update = [&](std::size_t from, std::size_t to, std::size_t base) {
    std::uint32_t top_run = best_run;
    std::uint32_t top_score = best_score;
    std::uint32_t scaled = confirm * static_cast<std::uint32_t>(from);
    for (std::size_t m = from; m <= to; ++m, scaled += confirm) {
      const std::uint32_t match =
          all_ones_if((ring_lo[base - m] == vlo) & (ring_hi[base - m] == vhi));
      const std::uint32_t thr = std::max(scaled, min_samples);
      const std::uint32_t run = runs[m - 1];
      const std::uint32_t score = scores[m - 1];
      const std::uint32_t extended = run + (run != std::numeric_limits<std::uint32_t>::max());
      const std::uint32_t raised = score + (score != 2 * thr);
      const std::uint32_t lowered = (score - penalty) & all_ones_if(score >= penalty);
      const std::uint32_t new_run = extended & match;
      const std::uint32_t new_score = (raised & match) | (lowered & ~match);
      runs[m - 1] = new_run;
      scores[m - 1] = new_score;
      top_run = std::max(top_run, new_run & all_ones_if(new_run >= thr));
      top_score = std::max(top_score, new_score & all_ones_if(new_score >= thr));
    }
    best_run = top_run;
    best_score = top_score;
  };
  const std::size_t unwrapped = std::min(live, head);
  update(1, unwrapped, head);
  update(unwrapped + 1, live, head + window);
  if (ring_lo_.size() < window) {
    // head == ring size until the ring fills
    detail::append_bounded(ring_lo_, vlo, window);
    detail::append_bounded(ring_hi_, vhi, window);
  } else {
    ring_lo_[head] = vlo;
    ring_hi_[head] = vhi;
  }
  ++total_;
  lag_ = resolve_lag(live, best_run, best_score);
}

std::size_t PeriodicityDetector::resolve_lag(std::size_t live, std::uint32_t best_run,
                                             std::uint32_t best_score) const noexcept {
  // The smallest confirmed lag whose evidence is within half of the best;
  // the best lag itself always qualifies. Doubled in 64 bits: a saturated
  // run would overflow 32.
  const auto smallest_within_half = [&](const std::vector<std::uint32_t>& evidence,
                                        std::uint32_t best) -> std::size_t {
    for (std::size_t m = 1; m <= live; ++m) {
      const std::uint64_t e = evidence[m - 1];
      if (e >= threshold(static_cast<std::uint32_t>(m)) && 2 * e >= best) {
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

std::uint32_t PeriodicityDetector::threshold(std::uint32_t m) const noexcept {
  // Fits: the constructor bounds both terms for every m <= max_period.
  return std::max(static_cast<std::uint32_t>(cfg_.confirm_periods) * m,
                  static_cast<std::uint32_t>(cfg_.min_confirm_samples));
}

std::optional<std::size_t> PeriodicityDetector::period() const {
  // Lags past run_.size() were never compared, so none is confirmed.
  for (std::size_t m = 1; m <= run_.size(); ++m) {
    if (run_[m - 1] < threshold(static_cast<std::uint32_t>(m))) {
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
