// The dynamic periodicity detector: detection of planted periods, the
// paper's d(m) distance, window semantics, robustness properties
// (parameterized sweeps over period lengths and alphabets), and a
// differential oracle pinning the fused fast path to the straightforward
// per-lag reference formulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/dpd.hpp"
#include "core/stream_predictor.hpp"
#include "core/windowed_dpd.hpp"

namespace mpipred::core {
namespace {

std::vector<std::int64_t> repeat_pattern(std::span<const std::int64_t> pattern, std::size_t n) {
  std::vector<std::int64_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(pattern[i % pattern.size()]);
  }
  return out;
}

TEST(Dpd, RejectsBadConfig) {
  EXPECT_THROW(PeriodicityDetector({.window = 1}), UsageError);
  EXPECT_THROW(PeriodicityDetector({.window = 8, .max_period = 5}), UsageError);
  EXPECT_THROW(PeriodicityDetector({.window = 8, .max_period = 4, .confirm_periods = 0}),
               UsageError);
  // Scores are 32-bit and capped at 2 * max(confirm_periods * max_period,
  // min_confirm_samples): a cap of 2^32 does not fit, 2^32 - 2 does.
  constexpr std::size_t kHalf = std::size_t{1} << 31;
  EXPECT_THROW(PeriodicityDetector({.window = 8, .max_period = 4, .min_confirm_samples = kHalf}),
               UsageError);
  EXPECT_THROW(PeriodicityDetector({.window = 8, .max_period = 4, .confirm_periods = kHalf / 4}),
               UsageError);
  EXPECT_THROW(PeriodicityDetector(
                   {.window = 8, .max_period = 4, .confirm_periods = std::size_t{1} << 62}),
               UsageError);
  EXPECT_NO_THROW(
      PeriodicityDetector({.window = 8, .max_period = 4, .min_confirm_samples = kHalf - 1}));
  EXPECT_NO_THROW(
      PeriodicityDetector({.window = 8, .max_period = 4, .confirm_periods = (kHalf - 1) / 4}));
}

TEST(Dpd, NoPeriodOnEmptyOrShortStream) {
  PeriodicityDetector d;
  EXPECT_FALSE(d.period().has_value());
  d.observe(1);
  d.observe(2);
  EXPECT_FALSE(d.period().has_value());
}

TEST(Dpd, DetectsConstantStreamAsPeriodOne) {
  PeriodicityDetector d;
  for (int i = 0; i < 10; ++i) {
    d.observe(7);
  }
  ASSERT_TRUE(d.period().has_value());
  EXPECT_EQ(*d.period(), 1u);
}

TEST(Dpd, DetectsAlternationAsPeriodTwo) {
  PeriodicityDetector d;
  for (int i = 0; i < 20; ++i) {
    d.observe(i % 2);
  }
  ASSERT_TRUE(d.period().has_value());
  EXPECT_EQ(*d.period(), 2u);
}

TEST(Dpd, ReportsSmallestPeriod) {
  // Pattern "1 2 1 2" has fundamental period 2; 4 also matches but the
  // detector must return 2.
  PeriodicityDetector d;
  const std::vector<std::int64_t> pattern = {1, 2};
  for (const auto v : repeat_pattern(pattern, 40)) {
    d.observe(v);
  }
  EXPECT_EQ(*d.period(), 2u);
}

TEST(Dpd, DetectionNeedsConfirmationRunPlusFloor) {
  // Period 6 pattern: the run at lag 6 must reach max(6, 8) == 8 matches,
  // i.e. detection after observing sample index 13 (14 samples: the first
  // comparable position is index 6).
  PeriodicityDetector d;
  const std::vector<std::int64_t> pattern = {3, 1, 4, 1, 5, 9};
  std::size_t detected_at = 0;
  for (std::size_t i = 0; i < 36; ++i) {
    d.observe(pattern[i % 6]);
    if (!detected_at && d.period()) {
      detected_at = i + 1;
    }
  }
  ASSERT_TRUE(d.period().has_value());
  EXPECT_EQ(*d.period(), 6u);
  EXPECT_EQ(detected_at, 14u);
}

TEST(Dpd, PatternChangeDropsDetectionThenRelearns) {
  PeriodicityDetector d;
  for (const auto v : repeat_pattern(std::vector<std::int64_t>{1, 2, 3}, 30)) {
    d.observe(v);
  }
  ASSERT_TRUE(d.period().has_value());
  // Break the pattern: the reported period drops immediately (the exact
  // verification window sees the break).
  d.observe(99);
  EXPECT_FALSE(d.period().has_value());
  // A new pattern is learned after two fresh periods.
  for (const auto v : repeat_pattern(std::vector<std::int64_t>{5, 6}, 20)) {
    d.observe(v);
  }
  ASSERT_TRUE(d.period().has_value());
  EXPECT_EQ(*d.period(), 2u);
}

TEST(Dpd, SingleOutlierOnlyBreaksAffectedLags) {
  // After a one-sample glitch in a period-2 stream, detection must come
  // back once the run of matches rebuilds.
  PeriodicityDetector d({.window = 64, .max_period = 16});
  for (int i = 0; i < 20; ++i) {
    d.observe(i % 2);
  }
  d.observe(5);  // glitch replaces a "0"
  EXPECT_FALSE(d.period().has_value());
  EXPECT_TRUE(d.prediction_lag().has_value());  // hysteresis holds the lock
  int relearn = 0;
  while (!d.period() && relearn < 20) {
    d.observe((21 + relearn) % 2);
    ++relearn;
  }
  ASSERT_TRUE(d.period().has_value());
  EXPECT_EQ(*d.period(), 2u);
  EXPECT_LE(relearn, 18);  // glitch must age out of the verification window
}

TEST(Dpd, DistanceMatchesDefinition) {
  // d(m) == 0 iff the window is m-periodic (equation 1 of the paper).
  PeriodicityDetector d({.window = 16, .max_period = 8});
  for (const auto v : repeat_pattern(std::vector<std::int64_t>{4, 7, 4}, 16)) {
    d.observe(v);
  }
  EXPECT_EQ(d.distance(3), 0);
  EXPECT_EQ(d.distance(6), 0);  // multiples of the period also match
  EXPECT_EQ(d.distance(1), 1);
  EXPECT_EQ(d.distance(2), 1);
  EXPECT_THROW((void)d.distance(0), UsageError);
  EXPECT_THROW((void)d.distance(9), UsageError);
}

TEST(Dpd, ValueAtLagWalksBackwards) {
  PeriodicityDetector d;
  for (std::int64_t v = 0; v < 10; ++v) {
    d.observe(v * 10);
  }
  EXPECT_EQ(d.value_at_lag(0), 90);
  EXPECT_EQ(d.value_at_lag(4), 50);
  EXPECT_EQ(d.value_at_lag(9), 0);
  EXPECT_THROW((void)d.value_at_lag(10), UsageError);
}

TEST(Dpd, RingBufferWrapsCorrectly) {
  PeriodicityDetector d({.window = 8, .max_period = 4});
  for (std::int64_t v = 0; v < 100; ++v) {
    d.observe(v);
  }
  EXPECT_EQ(d.buffered(), 8u);
  EXPECT_EQ(d.value_at_lag(0), 99);
  EXPECT_EQ(d.value_at_lag(7), 92);
}

TEST(Dpd, ResetForgetsEverything) {
  PeriodicityDetector d;
  for (int i = 0; i < 20; ++i) {
    d.observe(1);
  }
  ASSERT_TRUE(d.period().has_value());
  d.reset();
  EXPECT_FALSE(d.period().has_value());
  EXPECT_EQ(d.samples(), 0);
  EXPECT_EQ(d.buffered(), 0u);
}

TEST(Dpd, LongRunStaysStable) {
  // A long stream with a long period: detection holds for the whole run.
  PeriodicityDetector d({.window = 256, .max_period = 64});
  // 18 distinct values: no lag below 18 can ever match, so the detector
  // must hold the exact fundamental period for the whole stream.
  std::vector<std::int64_t> pattern(18);
  for (std::size_t i = 0; i < 18; ++i) {
    pattern[i] = static_cast<std::int64_t>(i);
  }
  std::size_t detections = 0;
  for (const auto v : repeat_pattern(pattern, 10000)) {
    d.observe(v);
    if (d.period() && *d.period() == 18u) {
      ++detections;
    }
  }
  EXPECT_GT(detections, 9900u);
}

// ------------------- parameterized sweep over planted periods -----------

struct PlantedCase {
  int period;
  int alphabet;
};

// Builds a pattern of exact fundamental period `m` over `a` symbols whose
// internal structure cannot trigger a false lock at any smaller lag: the
// generator retries salts until, within three concatenated periods, every
// lag m' < m has all match-runs shorter than the detector's threshold
// max(m', 8). (Small alphabets with long periods inevitably contain locally
// periodic stretches — those cases are excluded below, because *every*
// bounded-window online detector locks onto them by design.)
std::vector<std::int64_t> planted_pattern(int m, int a) {
  for (std::uint64_t salt = 1; salt < 2000; ++salt) {
    std::vector<std::int64_t> pat(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      std::uint64_t x =
          salt * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(i) * 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 31;
      x *= 0x94d049bb133111ebULL;
      x ^= x >> 29;
      pat[static_cast<std::size_t>(i)] =
          static_cast<std::int64_t>(x % static_cast<std::uint64_t>(a));
    }
    if (m > 1) {
      pat[0] = a;  // sentinel breaks the period-m boundary for smaller lags
    }
    const auto stream = repeat_pattern(pat, static_cast<std::size_t>(3 * m));
    bool ok = true;
    for (int lag = 1; lag < m && ok; ++lag) {
      const std::size_t threshold = std::max<std::size_t>(static_cast<std::size_t>(lag), 8);
      std::size_t run = 0;
      for (std::size_t t = static_cast<std::size_t>(lag); t < stream.size(); ++t) {
        run = (stream[t] == stream[t - static_cast<std::size_t>(lag)]) ? run + 1 : 0;
        if (run >= threshold) {
          ok = false;
          break;
        }
      }
    }
    if (ok) {
      return pat;
    }
  }
  ADD_FAILURE() << "no safe pattern for period " << m << " alphabet " << a;
  return {1};
}

class DpdPeriodSweep : public ::testing::TestWithParam<PlantedCase> {};

INSTANTIATE_TEST_SUITE_P(
    Planted, DpdPeriodSweep,
    ::testing::Values(PlantedCase{1, 2}, PlantedCase{2, 2}, PlantedCase{3, 2}, PlantedCase{5, 2},
                      PlantedCase{3, 3}, PlantedCase{8, 3}, PlantedCase{13, 3},
                      PlantedCase{18, 5}, PlantedCase{31, 8}, PlantedCase{18, 10},
                      PlantedCase{31, 10}, PlantedCase{64, 10}, PlantedCase{64, 16}),
    [](const ::testing::TestParamInfo<PlantedCase>& info) {
      return "m" + std::to_string(info.param.period) + "_a" + std::to_string(info.param.alphabet);
    });

TEST_P(DpdPeriodSweep, DetectsPlantedPeriodExactly) {
  const auto [period, alphabet] = GetParam();
  const auto pattern = planted_pattern(period, alphabet);
  ASSERT_EQ(pattern.size(), static_cast<std::size_t>(period));
  PeriodicityDetector d({.window = 256, .max_period = 64});
  for (const auto v : repeat_pattern(pattern, 600)) {
    d.observe(v);
  }
  ASSERT_TRUE(d.period().has_value());
  EXPECT_EQ(*d.period(), static_cast<std::size_t>(period));
  EXPECT_EQ(d.distance(static_cast<std::size_t>(period)), 0);
}

// ------------------- differential oracle: fast path == reference -------

// The detector as first written: every lag is updated through the guarded
// value_at_lag(), and prediction_lag() rescans all lags on each call. Kept
// here verbatim as the specification the fused single-pass observe() and
// its cached lag must reproduce sample for sample.
class ReferenceDetector {
 public:
  using Value = std::int64_t;

  explicit ReferenceDetector(DpdConfig cfg) : cfg_(cfg) {
    ring_.assign(cfg_.window, Value{0});
    run_.assign(cfg_.max_period, 0);
    score_.assign(cfg_.max_period, 0);
  }

  void reset() {
    std::fill(ring_.begin(), ring_.end(), Value{0});
    std::fill(run_.begin(), run_.end(), std::size_t{0});
    std::fill(score_.begin(), score_.end(), std::size_t{0});
    total_ = 0;
  }

  [[nodiscard]] std::size_t buffered() const {
    return std::min<std::size_t>(static_cast<std::size_t>(total_), cfg_.window);
  }

  [[nodiscard]] Value value_at_lag(std::size_t lag) const {
    EXPECT_LT(lag, buffered());
    const std::size_t pos =
        static_cast<std::size_t>((total_ - 1 - static_cast<std::int64_t>(lag)) %
                                 static_cast<std::int64_t>(cfg_.window));
    return ring_[pos];
  }

  void observe(Value v) {
    const auto have = static_cast<std::size_t>(std::min<std::int64_t>(
        total_, static_cast<std::int64_t>(cfg_.window)));
    for (std::size_t m = 1; m <= cfg_.max_period; ++m) {
      auto& run = run_[m - 1];
      auto& score = score_[m - 1];
      if (m > have) {
        run = 0;
        score = 0;
        continue;
      }
      if (value_at_lag(m - 1) == v) {
        ++run;
        score = std::min(score + 1, 2 * threshold(m));
      } else {
        run = 0;
        score -= std::min(score, cfg_.mismatch_penalty);
      }
    }
    ring_[static_cast<std::size_t>(total_ % static_cast<std::int64_t>(cfg_.window))] = v;
    ++total_;
  }

  [[nodiscard]] std::optional<std::size_t> period() const {
    for (std::size_t m = 1; m <= cfg_.max_period; ++m) {
      if (run_[m - 1] < threshold(m)) {
        continue;
      }
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

  [[nodiscard]] std::optional<std::size_t> prediction_lag() const {
    std::size_t best_run = 0;
    for (std::size_t m = 1; m <= cfg_.max_period; ++m) {
      if (run_[m - 1] >= threshold(m)) {
        best_run = std::max(best_run, run_[m - 1]);
      }
    }
    if (best_run > 0) {
      for (std::size_t m = 1; m <= cfg_.max_period; ++m) {
        if (run_[m - 1] >= threshold(m) && 2 * run_[m - 1] >= best_run) {
          return m;
        }
      }
    }
    std::size_t best_score = 0;
    for (std::size_t m = 1; m <= cfg_.max_period; ++m) {
      if (score_[m - 1] >= threshold(m)) {
        best_score = std::max(best_score, score_[m - 1]);
      }
    }
    if (best_score == 0) {
      return std::nullopt;
    }
    for (std::size_t m = 1; m <= cfg_.max_period; ++m) {
      if (score_[m - 1] >= threshold(m) && 2 * score_[m - 1] >= best_score) {
        return m;
      }
    }
    return std::nullopt;
  }

  /// StreamPredictor::predict(h) over this detector, without fallback.
  [[nodiscard]] std::optional<Value> predict(std::size_t h) const {
    const auto period = prediction_lag();
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

 private:
  [[nodiscard]] std::size_t threshold(std::size_t m) const {
    return std::max(cfg_.confirm_periods * m, cfg_.min_confirm_samples);
  }

  DpdConfig cfg_;
  std::vector<Value> ring_;
  std::vector<std::size_t> run_;
  std::vector<std::size_t> score_;
  std::int64_t total_ = 0;
};

// The full-window dpd-window criterion as first written: mismatch
// bookkeeping through the guarded value_at_lag(), the period rescanned on
// every query.
class ReferenceWindowed {
 public:
  using Value = std::int64_t;

  explicit ReferenceWindowed(DpdConfig cfg) : cfg_(cfg) {
    ring_.assign(cfg_.window, Value{0});
    last_bad_.assign(cfg_.max_period, -1);
  }

  void reset() {
    std::fill(ring_.begin(), ring_.end(), Value{0});
    std::fill(last_bad_.begin(), last_bad_.end(), std::int64_t{-1});
    total_ = 0;
  }

  void observe(Value v) {
    const std::size_t have = buffered();
    for (std::size_t m = 1; m <= cfg_.max_period; ++m) {
      if (m > have) {
        continue;
      }
      if (value_at_lag(m - 1) != v) {
        last_bad_[m - 1] = total_;
      }
    }
    ring_[static_cast<std::size_t>(total_ % static_cast<std::int64_t>(cfg_.window))] = v;
    ++total_;
  }

  [[nodiscard]] std::optional<std::size_t> period() const {
    const auto window_start = total_ - static_cast<std::int64_t>(buffered());
    for (std::size_t m = 1; m <= cfg_.max_period; ++m) {
      if (last_bad_[m - 1] >= window_start) {
        continue;
      }
      const std::int64_t clean = std::min(total_ - static_cast<std::int64_t>(m),
                                          total_ - last_bad_[m - 1] - 1);
      if (clean >= static_cast<std::int64_t>(
                       std::max(cfg_.confirm_periods * m, cfg_.min_confirm_samples))) {
        return m;
      }
    }
    return std::nullopt;
  }

  [[nodiscard]] std::optional<Value> predict(std::size_t h) const {
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

 private:
  [[nodiscard]] std::size_t buffered() const {
    return std::min<std::size_t>(static_cast<std::size_t>(total_), cfg_.window);
  }

  [[nodiscard]] Value value_at_lag(std::size_t lag) const {
    return ring_[static_cast<std::size_t>((total_ - 1 - static_cast<std::int64_t>(lag)) %
                                          static_cast<std::int64_t>(cfg_.window))];
  }

  DpdConfig cfg_;
  std::vector<Value> ring_;
  std::vector<std::int64_t> last_bad_;
  std::int64_t total_ = 0;
};

// splitmix64: a self-contained, seedable generator for the oracle streams.
class TestRng {
 public:
  explicit TestRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [lo, hi].
  std::size_t between(std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(next() % (hi - lo + 1));
  }

  bool chance(std::size_t percent) { return between(1, 100) <= percent; }

 private:
  std::uint64_t state_;
};

// How a segment spells its symbols s in 0..64. Besides the plain symbols:
// values that share their low 32 bits and differ only in the high half
// (the detector compares both halves of its split ring), negatives, and
// the int64 limits among values that share a half with them.
enum class Spelling { kPlain, kHighHalf, kNegative, kExtreme };

std::int64_t spell(std::size_t s, Spelling spelling) {
  const auto k = static_cast<std::int64_t>(s);
  switch (spelling) {
    case Spelling::kPlain: return k;
    case Spelling::kHighHalf: return (k << 32) | 5;
    case Spelling::kNegative: return -1 - (k << 32) - k % 3;
    case Spelling::kExtreme:
      switch (s % 4) {
        case 0: return std::numeric_limits<std::int64_t>::min();
        case 1: return std::numeric_limits<std::int64_t>::max();
        case 2: return (k << 32) | 0xffffffff;  // INT64_MAX's low half
        default: return std::numeric_limits<std::int64_t>::min() | (k << 32);  // INT64_MIN's
      }
  }
  return k;
}

// A stream of periodic segments: each segment draws a period in
// 1..max_period, an alphabet in 1..64 and a spelling (plain half the
// time), then repeats its pattern with occasional glitches (one foreign
// symbol) and phase shifts (a jump inside the pattern). One segment in
// six is aperiodic noise.
std::vector<std::int64_t> oracle_stream(TestRng& rng, std::size_t max_period, std::size_t n) {
  std::vector<std::int64_t> out;
  out.reserve(n);
  while (out.size() < n) {
    const std::size_t alphabet = rng.between(1, 64);
    const std::size_t length = rng.between(1, 6 * max_period + 16);
    const auto spelling =
        rng.chance(50) ? Spelling::kPlain : static_cast<Spelling>(rng.between(1, 3));
    if (rng.chance(16)) {
      for (std::size_t i = 0; i < length && out.size() < n; ++i) {
        out.push_back(spell(rng.between(0, alphabet - 1), spelling));
      }
      continue;
    }
    std::vector<std::int64_t> pattern(rng.between(1, max_period));
    for (auto& symbol : pattern) {
      symbol = spell(rng.between(0, alphabet - 1), spelling);
    }
    std::size_t phase = 0;
    for (std::size_t i = 0; i < length && out.size() < n; ++i) {
      if (rng.chance(2)) {
        out.push_back(spell(rng.between(0, 64), spelling));  // glitch
        continue;
      }
      if (rng.chance(1)) {
        phase += rng.between(1, pattern.size());  // phase shift
      }
      out.push_back(pattern[(i + phase) % pattern.size()]);
    }
  }
  return out;
}

// d(m) by its definition over the reference's eager window.
int reference_distance(const ReferenceDetector& ref, std::size_t m) {
  const std::size_t n = ref.buffered();
  if (n <= m) {
    return 1;
  }
  for (std::size_t i = 0; i + m < n; ++i) {
    if (ref.value_at_lag(i) != ref.value_at_lag(i + m)) {
      return 1;
    }
  }
  return 0;
}

// Feeds `stream` to the production detector, StreamPredictor, dpd-window,
// and their references side by side — resetting all of them before each
// sample index in `resets` — and requires identical lag, period, and
// predictions at every horizon after every sample and right after each
// reset. While the ring is still filling, d(m) must match too, on a
// spread of lags that includes the first and the last.
void expect_matches_reference(const DpdConfig& cfg, std::span<const std::int64_t> stream,
                              std::initializer_list<std::size_t> resets) {
  const std::size_t horizon = std::min<std::size_t>(5, cfg.window - cfg.max_period);
  PeriodicityDetector fast(cfg);
  StreamPredictor predictor({.dpd = cfg, .horizon = horizon});
  WindowedDpdPredictor windowed(cfg, horizon);
  ReferenceDetector ref(cfg);
  ReferenceWindowed ref_windowed(cfg);
  const auto expect_same_view = [&] {
    ASSERT_EQ(fast.prediction_lag(), ref.prediction_lag());
    ASSERT_EQ(fast.period(), ref.period());
    ASSERT_EQ(predictor.detector().prediction_lag(), ref.prediction_lag());
    ASSERT_EQ(windowed.period(), ref_windowed.period());
    for (std::size_t h = 1; h <= horizon; ++h) {
      ASSERT_EQ(predictor.predict(h), ref.predict(h)) << "dpd horizon +" << h;
      ASSERT_EQ(windowed.predict(h), ref_windowed.predict(h)) << "dpd-window horizon +" << h;
    }
    if (ref.buffered() < cfg.window) {
      const std::size_t stride = std::max<std::size_t>(1, cfg.max_period / 16);
      for (std::size_t m = 1; m <= cfg.max_period; m += stride) {
        ASSERT_EQ(fast.distance(m), reference_distance(ref, m)) << "d(" << m << ")";
      }
      ASSERT_EQ(fast.distance(cfg.max_period), reference_distance(ref, cfg.max_period));
    }
  };
  for (std::size_t i = 0; i < stream.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    if (std::find(resets.begin(), resets.end(), i) != resets.end()) {
      fast.reset();
      predictor.reset();
      windowed.reset();
      ref.reset();
      ref_windowed.reset();
      expect_same_view();
    }
    fast.observe(stream[i]);
    predictor.observe(stream[i]);
    windowed.observe(stream[i]);
    ref.observe(stream[i]);
    ref_windowed.observe(stream[i]);
    expect_same_view();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(DpdOracle, FusedPassMatchesReferenceAcrossConfigs) {
  // Small windows wrap the ring many times per stream and keep the
  // warm-up (buffered < max_period) a large share of every reset.
  struct Shape {
    std::size_t window;
    std::size_t max_period;
  };
  const Shape shapes[] = {{2, 1}, {7, 3}, {8, 4}, {19, 9}, {40, 16}, {64, 32}};
  std::uint64_t seed = 1;
  for (const Shape& shape : shapes) {
    for (const std::size_t min_confirm : {0, 1, 8}) {
      for (std::size_t confirm = 1; confirm <= 3; ++confirm) {
        for (std::size_t penalty = 1; penalty <= 4; ++penalty) {
          const DpdConfig cfg{.window = shape.window,
                              .max_period = shape.max_period,
                              .confirm_periods = confirm,
                              .min_confirm_samples = min_confirm,
                              .mismatch_penalty = penalty};
          TestRng rng(seed++);
          const auto stream = oracle_stream(rng, shape.max_period, 600);
          const std::size_t reset_at = rng.between(1, stream.size() - 1);
          SCOPED_TRACE("window " + std::to_string(shape.window) + " max_period " +
                       std::to_string(shape.max_period) + " min_confirm " +
                       std::to_string(min_confirm) + " confirm " + std::to_string(confirm) +
                       " penalty " + std::to_string(penalty));
          expect_matches_reference(cfg, stream, {reset_at});
          if (HasFatalFailure()) {
            return;
          }
        }
      }
    }
  }
}

TEST(DpdOracle, FusedPassMatchesReferenceAtDefaultConfig) {
  // The production shape (window 512, M 256): periods up to 256, several
  // full ring wraps, and a reset well after warm-up.
  for (std::uint64_t seed = 100; seed < 103; ++seed) {
    TestRng rng(seed);
    const DpdConfig cfg{};
    const auto stream = oracle_stream(rng, cfg.max_period, 3000);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_matches_reference(cfg, stream, {1700});
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(DpdOracle, LazyHistoryMatchesReferenceAcrossResets) {
  // The history arrays grow with the stream and reset() keeps their
  // capacity. At the production shape: a reset while only some lags have
  // been compared (sample 130), a second one after all lags but before the
  // ring fills (400), so the kept capacity is refilled, and a third after
  // the ring has filled and wrapped (1000).
  for (std::uint64_t seed = 200; seed < 203; ++seed) {
    TestRng rng(seed);
    const DpdConfig cfg{};
    const auto stream = oracle_stream(rng, cfg.max_period, 1600);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_matches_reference(cfg, stream, {130, 400, 1000});
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(DpdOracle, LazyHistoryMatchesReferenceOnShortStreams) {
  // 32-sample streams, far shorter than max_period (the serve workload's
  // shape), with periods short enough to confirm inside 32 samples; each
  // stream is fed twice through one predictor with a reset in between.
  for (std::uint64_t seed = 300; seed < 340; ++seed) {
    TestRng rng(seed);
    const DpdConfig cfg{};
    const auto stream = oracle_stream(rng, 12, 64);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_matches_reference(cfg, stream, {32});
    if (HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace mpipred::core
