#include "core/windowed_dpd.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace mpipred::core {

WindowedDpdPredictor::WindowedDpdPredictor(DpdConfig cfg, std::size_t horizon)
    : cfg_(cfg), horizon_(horizon) {
  MPIPRED_REQUIRE(cfg_.window >= 2, "window must hold at least two samples");
  MPIPRED_REQUIRE(cfg_.max_period >= 1 && cfg_.max_period * 2 <= cfg_.window,
                  "window must fit two full periods");
  MPIPRED_REQUIRE(horizon >= 1 && horizon <= cfg_.window - cfg_.max_period,
                  "horizon must leave a full period of lookback");
}

void WindowedDpdPredictor::reset() {
  ring_.clear();
  last_bad_.clear();
  total_ = 0;
  period_ = 0;
}

std::size_t WindowedDpdPredictor::buffered() const noexcept {
  return std::min<std::size_t>(static_cast<std::size_t>(total_), cfg_.window);
}

Predictor::Value WindowedDpdPredictor::value_at_lag(std::size_t lag) const {
  MPIPRED_REQUIRE(lag < buffered(), "lag exceeds buffered history");
  return ring_[static_cast<std::size_t>((total_ - 1 - static_cast<std::int64_t>(lag)) %
                                        static_cast<std::int64_t>(cfg_.window))];
}

void WindowedDpdPredictor::observe(Value v) {
  // Only lags with an x[t-m] in history compare; x[t-m] sits m slots
  // behind the write slot of x[t], walked in two segments split where the
  // ring wraps. Live grows by at most one lag per sample, and the new lag
  // starts with no mismatch.
  const std::size_t window = cfg_.window;
  const std::size_t live = std::min(buffered(), cfg_.max_period);
  if (last_bad_.size() < live) {
    detail::append_bounded(last_bad_, std::int64_t{-1}, cfg_.max_period);
  }
  const auto head = static_cast<std::size_t>(total_ % static_cast<std::int64_t>(window));
  const Value* const ring = ring_.data();
  std::int64_t* const last_bad = last_bad_.data();
  const auto update = [&](std::size_t from, std::size_t to, std::size_t base) {
    for (std::size_t m = from; m <= to; ++m) {
      last_bad[m - 1] = ring[base - m] != v ? total_ : last_bad[m - 1];
    }
  };
  const std::size_t unwrapped = std::min(live, head);
  update(1, unwrapped, head);
  update(unwrapped + 1, live, head + window);
  if (ring_.size() < window) {
    detail::append_bounded(ring_, v, window);  // head == ring_.size() until the ring fills
  } else {
    ring_[head] = v;
  }
  ++total_;
  period_ = resolve_period();
}

std::size_t WindowedDpdPredictor::resolve_period() const noexcept {
  // A lag past last_bad_.size() has had no comparison yet, so it has no
  // clean samples to count.
  const auto window_start = total_ - static_cast<std::int64_t>(buffered());
  for (std::size_t m = 1; m <= last_bad_.size(); ++m) {
    // d(m) == 0 over the window: the latest mismatch predates the window.
    if (last_bad_[m - 1] >= window_start) {
      continue;
    }
    // Require enough *comparable* clean samples (learning, as in the
    // paper): comparisons exist from index m on, and only those after the
    // last mismatch count.
    const std::int64_t clean = std::min(total_ - static_cast<std::int64_t>(m),
                                        total_ - last_bad_[m - 1] - 1);
    if (clean >= static_cast<std::int64_t>(
                     std::max(cfg_.confirm_periods * m, cfg_.min_confirm_samples))) {
      return m;
    }
  }
  return 0;
}

std::optional<std::size_t> WindowedDpdPredictor::period() const {
  if (period_ == 0) {
    return std::nullopt;
  }
  return period_;
}

std::optional<Predictor::Value> WindowedDpdPredictor::predict(std::size_t h) const {
  MPIPRED_REQUIRE(h >= 1 && h <= horizon_, "horizon out of range");
  const auto period = this->period();
  if (!period) {
    return std::nullopt;
  }
  const std::size_t m = *period;
  const std::size_t k = (h + m - 1) / m;
  const std::size_t lag = k * m - h;
  if (lag >= buffered()) {
    return std::nullopt;
  }
  return value_at_lag(lag);
}

std::unique_ptr<Predictor> WindowedDpdPredictor::clone_fresh() const {
  return std::make_unique<WindowedDpdPredictor>(cfg_, horizon_);
}

std::size_t WindowedDpdPredictor::footprint_bytes() const {
  return sizeof(*this) + ring_.capacity() * sizeof(Value) +
         last_bad_.capacity() * sizeof(std::int64_t);
}

}  // namespace mpipred::core
