// The multi-horizon stream predictor built on the DPD: prediction values
// at +1..+5, fallback behavior, and the property that once the period is
// learned every horizon within the window predicts exactly.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/error.hpp"
#include "core/stream_predictor.hpp"

namespace mpipred::core {
namespace {

std::vector<std::int64_t> cycle(std::initializer_list<std::int64_t> pattern, std::size_t n) {
  std::vector<std::int64_t> p(pattern);
  std::vector<std::int64_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(p[i % p.size()]);
  }
  return out;
}

TEST(StreamPredictor, RejectsBadConfig) {
  EXPECT_THROW(StreamPredictor({.horizon = 0}), UsageError);
  StreamPredictorConfig cfg;
  cfg.dpd.window = 16;
  cfg.dpd.max_period = 8;
  cfg.horizon = 9;  // window - max_period == 8 < 9: no room for lookback
  EXPECT_THROW(StreamPredictor{cfg}, UsageError);
}

TEST(StreamPredictor, NoPredictionBeforeLearning) {
  StreamPredictor p;
  EXPECT_FALSE(p.predict(1).has_value());
  p.observe(1);
  p.observe(2);
  EXPECT_FALSE(p.predict(1).has_value());
  EXPECT_FALSE(p.period().has_value());
}

TEST(StreamPredictor, PredictsAllHorizonsOncePeriodic) {
  StreamPredictor p;
  for (const auto v : cycle({10, 20, 30}, 30)) {
    p.observe(v);
  }
  ASSERT_TRUE(p.period().has_value());
  EXPECT_EQ(*p.period(), 3u);
  // Last observed value is cycle[29 % 3] == cycle[2] == 30.
  EXPECT_EQ(p.predict(1), 10);
  EXPECT_EQ(p.predict(2), 20);
  EXPECT_EQ(p.predict(3), 30);
  EXPECT_EQ(p.predict(4), 10);  // horizons beyond one period wrap
  EXPECT_EQ(p.predict(5), 20);
}

TEST(StreamPredictor, PredictAllMatchesPredict) {
  StreamPredictor p;
  for (const auto v : cycle({4, 5}, 20)) {
    p.observe(v);
  }
  const auto all = p.predict_all();
  ASSERT_EQ(all.size(), 5u);
  for (std::size_t h = 1; h <= 5; ++h) {
    EXPECT_EQ(all[h - 1], p.predict(h));
  }
}

TEST(StreamPredictor, HorizonOutOfRangeThrows) {
  StreamPredictor p;
  EXPECT_THROW((void)p.predict(0), UsageError);
  EXPECT_THROW((void)p.predict(6), UsageError);
}

TEST(StreamPredictor, ExactPredictionPropertyOverWholeCycle) {
  // Property: after warm-up, prediction at every horizon equals the true
  // future for an exactly periodic stream.
  for (const std::size_t period : {2u, 5u, 18u}) {
    StreamPredictorConfig cfg;
    cfg.dpd.window = 64;
    cfg.dpd.max_period = 32;
    StreamPredictor p(cfg);
    std::vector<std::int64_t> stream;
    for (std::size_t i = 0; i < 200; ++i) {
      stream.push_back(static_cast<std::int64_t>((i % period) * 7 + 1));
    }
    for (std::size_t t = 0; t < stream.size(); ++t) {
      p.observe(stream[t]);
      // Detection completes at t == period + max(period, 8).
      if (t >= 2 * period + 9 && t + 5 < stream.size()) {
        for (std::size_t h = 1; h <= 5; ++h) {
          ASSERT_EQ(p.predict(h), stream[t + h]) << "period " << period << " t " << t << " h " << h;
        }
      }
    }
  }
}

TEST(StreamPredictor, ResetClearsState) {
  StreamPredictor p;
  for (const auto v : cycle({1, 2}, 20)) {
    p.observe(v);
  }
  ASSERT_TRUE(p.period().has_value());
  p.reset();
  EXPECT_FALSE(p.period().has_value());
  EXPECT_FALSE(p.predict(1).has_value());
}

TEST(StreamPredictor, ImplementsPredictorInterface) {
  StreamPredictor p;
  Predictor& iface = p;
  EXPECT_EQ(iface.name(), "dpd");
  EXPECT_EQ(iface.max_horizon(), 5u);
  iface.observe(1);
  iface.reset();
  EXPECT_FALSE(iface.predict(1).has_value());
}

}  // namespace
}  // namespace mpipred::core
