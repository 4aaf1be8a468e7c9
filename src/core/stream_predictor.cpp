#include "core/stream_predictor.hpp"

#include "common/assert.hpp"

namespace mpipred::core {

StreamPredictor::StreamPredictor(StreamPredictorConfig cfg) : cfg_(cfg), detector_(cfg.dpd) {
  MPIPRED_REQUIRE(cfg_.horizon >= 1, "horizon must be at least 1");
  MPIPRED_REQUIRE(cfg_.horizon <= cfg_.dpd.window - cfg_.dpd.max_period,
                  "window must retain a full period of history beyond the horizon");
}

void StreamPredictor::observe(Value v) { detector_.observe(v); }

std::optional<Predictor::Value> StreamPredictor::predict(std::size_t h) const {
  MPIPRED_REQUIRE(h >= 1 && h <= cfg_.horizon, "horizon out of range");
  // Read history through the smallest confirmed lag whose evidence is at
  // least half the strongest: on clean periodic streams it is the
  // fundamental period (or a multiple, with identical predictions), and it
  // skips small lags that only held locally — see
  // PeriodicityDetector::prediction_lag(). The lag is resolved once per
  // sample, so this is a lookup.
  const auto period = detector_.prediction_lag();
  if (!period) {
    return std::nullopt;  // the paper counts warm-up samples as misses (Figure 3)
  }
  // x̂(t+h) = x(t+h - k*m) for the smallest k that reaches into history.
  const std::size_t m = *period;
  const std::size_t k = (h + m - 1) / m;  // ceil(h / m)
  const std::size_t lag = k * m - h;      // in [0, m)
  if (lag >= detector_.buffered()) {
    return std::nullopt;  // cannot happen after confirmation, but stay safe
  }
  return detector_.value_at_lag(lag);
}

std::vector<std::optional<Predictor::Value>> StreamPredictor::predict_all() const {
  std::vector<std::optional<Value>> out(cfg_.horizon);
  for (std::size_t h = 1; h <= cfg_.horizon; ++h) {
    out[h - 1] = predict(h);
  }
  return out;
}

void StreamPredictor::reset() { detector_.reset(); }

std::unique_ptr<Predictor> StreamPredictor::clone_fresh() const {
  return std::make_unique<StreamPredictor>(cfg_);
}

std::size_t StreamPredictor::footprint_bytes() const {
  // Detector state: the split sample ring plus per-lag run and score
  // counters, all 32-bit words, as allocated so far (full size,
  // 8 * (window + max_period) bytes, once the stream has filled the
  // window).
  return sizeof(*this) + detector_.heap_bytes();
}

}  // namespace mpipred::core
