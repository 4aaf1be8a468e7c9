// Accuracy accounting (the paper's §5 metric) and the §5.3 set-prediction
// scoring: exact bookkeeping on hand-computable streams, the warm-up
// effect that explains the IS.4 ≈80% bars, and a differential check of
// the flat pending buffer against the nested-vector evaluator it replaced.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "core/accuracy.hpp"
#include "core/baselines/last_value.hpp"
#include "core/set_prediction.hpp"
#include "core/stream_predictor.hpp"
#include "trace/stream.hpp"

namespace mpipred::core {

namespace reference {

// The evaluator as first written, one heap row of {has, value} slots per
// pending position. Kept verbatim as the specification the flat
// has-bit/value buffer must reproduce report for report.
class AccuracyEvaluator {
 public:
  AccuracyEvaluator(Predictor& predictor, std::size_t horizon)
      : predictor_(&predictor), horizon_(horizon) {
    report_.horizons.resize(horizon);
    pending_.assign(horizon + 1, std::vector<Pending>(horizon));
  }

  void observe(Predictor::Value v) {
    auto& slot = pending_[static_cast<std::size_t>(position_) % (horizon_ + 1)];
    for (std::size_t h = 1; h <= horizon_; ++h) {
      Pending& p = slot[h - 1];
      auto& acc = report_.horizons[h - 1];
      if (!p.has) {
        ++acc.unpredicted;
      } else if (p.value == v) {
        ++acc.hits;
      } else {
        ++acc.misses;
      }
      p.has = false;
    }
    predictor_->observe(v);
    ++position_;
    for (std::size_t h = 1; h <= horizon_; ++h) {
      const auto pred = predictor_->predict(h);
      auto& target =
          pending_[static_cast<std::size_t>(position_ - 1 + static_cast<std::int64_t>(h)) %
                   (horizon_ + 1)][h - 1];
      target.has = pred.has_value();
      target.value = pred.value_or(0);
    }
  }

  [[nodiscard]] const AccuracyReport& report() const noexcept { return report_; }

 private:
  struct Pending {
    bool has = false;
    Predictor::Value value = 0;
  };

  Predictor* predictor_;
  std::size_t horizon_;
  AccuracyReport report_;
  std::vector<std::vector<Pending>> pending_;
  std::int64_t position_ = 0;
};

}  // namespace reference

namespace {

std::vector<std::int64_t> cycle(std::initializer_list<std::int64_t> pattern, std::size_t n) {
  std::vector<std::int64_t> p(pattern);
  std::vector<std::int64_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(p[i % p.size()]);
  }
  return out;
}

/// A fresh paper predictor (DPD, horizon 5) scored over `stream`.
AccuracyReport evaluate_dpd(std::span<const std::int64_t> stream) {
  StreamPredictor predictor;
  return evaluate_with(predictor, stream, StreamPredictorConfig{}.horizon);
}

TEST(Accuracy, PerfectStreamApproachesOne) {
  const auto stream = cycle({1, 2, 3}, 3000);
  const auto report = evaluate_dpd(stream);
  for (std::size_t h = 1; h <= 5; ++h) {
    EXPECT_GT(report.at(h).accuracy(), 0.99) << "+h " << h;
  }
}

TEST(Accuracy, WarmupCountsAgainstThePredictor) {
  // Short stream: the learning prefix drags accuracy down — the paper's
  // IS.4 effect (~100 samples -> ~80%).
  const auto stream = cycle({0, 1, 2, 3, 4, 5, 6, 7}, 100);
  const auto report = evaluate_dpd(stream);
  const auto& h1 = report.at(1);
  EXPECT_GT(h1.unpredicted, 10);  // two periods of warm-up
  EXPECT_LT(h1.accuracy(), 0.92);
  EXPECT_GT(h1.accuracy(), 0.70);
}

TEST(Accuracy, ExactBookkeepingOnTinyStream) {
  // Constant stream of 10 samples, horizon 1, and an explicit confirmation
  // floor of 4 matches. Trace by hand: the run at lag 1 after observing
  // index t is t, so the first prediction exists after observing index 4,
  // targeting index 5. Samples 0..4 count as unpredicted at +1; samples
  // 5..9 hit.
  StreamPredictorConfig cfg;
  cfg.dpd.min_confirm_samples = 4;
  StreamPredictor pred(cfg);
  AccuracyEvaluator eval(pred, 1);
  for (int i = 0; i < 10; ++i) {
    eval.observe(7);
  }
  const auto& h1 = eval.report().at(1);
  EXPECT_EQ(h1.total(), 10);
  EXPECT_EQ(h1.hits, 5);
  EXPECT_EQ(h1.misses, 0);
  EXPECT_EQ(h1.unpredicted, 5);
}

TEST(Accuracy, MissesCountedOnPatternBreak) {
  StreamPredictor pred;
  AccuracyEvaluator eval(pred, 1);
  for (int i = 0; i < 20; ++i) {
    eval.observe(i % 2);
  }
  const auto before = eval.report().at(1);
  EXPECT_EQ(before.misses, 0);
  eval.observe(99);  // break
  const auto after = eval.report().at(1);
  EXPECT_EQ(after.misses, before.misses + 1);
}

TEST(Accuracy, HigherHorizonsNeverExceedTotalBookkeeping) {
  const auto stream = cycle({5, 9, 5, 2}, 500);
  const auto report = evaluate_dpd(stream);
  for (std::size_t h = 1; h <= 5; ++h) {
    const auto& acc = report.at(h);
    EXPECT_EQ(acc.total(), 500);
    EXPECT_EQ(acc.hits + acc.misses + acc.unpredicted, acc.total());
  }
}

TEST(Accuracy, EmptyStreamYieldsZeroTotals) {
  StreamPredictor pred;
  AccuracyEvaluator eval(pred, 5);
  const auto& report = eval.report();
  for (std::size_t h = 1; h <= 5; ++h) {
    EXPECT_EQ(report.at(h).total(), 0);
    EXPECT_EQ(report.at(h).accuracy(), 0.0);
  }
}

TEST(Accuracy, HorizonBeyondPredictorThrows) {
  LastValuePredictor pred(3);
  EXPECT_THROW(AccuracyEvaluator(pred, 4), UsageError);
}

TEST(Accuracy, EvaluateWithResetsPredictorFirst) {
  StreamPredictor pred;
  for (const auto v : cycle({1, 2, 3}, 30)) {
    pred.observe(v);
  }
  // Re-evaluating a *different* stream must not inherit the old period.
  const auto stream = cycle({7, 8}, 200);
  const auto report = evaluate_with(pred, stream, 5);
  EXPECT_GT(report.at(1).accuracy(), 0.9);
}

TEST(Accuracy, EvaluateStreamsCoversBothStreams) {
  trace::Streams streams;
  streams.senders = cycle({1, 2}, 400);
  streams.sizes = cycle({100, 200, 300}, 400);
  EXPECT_GT(evaluate_dpd(streams.senders).at(1).accuracy(), 0.95);
  EXPECT_GT(evaluate_dpd(streams.sizes).at(1).accuracy(), 0.95);
}

// --------------- differential: flat pending buffer == reference -----------

// splitmix64 finalizer: the scripted predictor's answers and the streams.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Symbols whose equality the evaluator must decide on all 64 bits: 0 (the
// value a missing prediction is stored as), values that share their low
// half and differ only in the high one, negatives and the int64 limits.
constexpr std::int64_t kSymbols[] = {
    0,
    1,
    std::int64_t{1} << 32,
    (std::int64_t{1} << 32) | 1,
    (std::int64_t{2} << 32) | 1,
    -1,
    std::int64_t{0x7fffffff} | (std::int64_t{-2} << 32),
    std::numeric_limits<std::int64_t>::min(),
    std::numeric_limits<std::int64_t>::max(),
};

std::int64_t symbol(std::uint64_t bits) {
  return kSymbols[bits % std::size(kSymbols)];
}

// Answers every predict(h) from a hash of (seed, samples seen, h): one in
// four is nullopt, the rest a symbol. Two instances with the same seed
// answer alike, so each evaluator can own one.
class ScriptedPredictor final : public Predictor {
 public:
  ScriptedPredictor(std::uint64_t seed, std::size_t horizon) : seed_(seed), horizon_(horizon) {}

  void observe(Value) override { ++seen_; }
  [[nodiscard]] std::optional<Value> predict(std::size_t h) const override {
    const std::uint64_t bits = mix(seed_ ^ mix(seen_ * 1031 + h));
    if (bits % 4 == 0) {
      return std::nullopt;
    }
    return symbol(bits >> 2);
  }
  [[nodiscard]] std::size_t max_horizon() const override { return horizon_; }
  [[nodiscard]] std::string_view name() const override { return "scripted"; }
  void reset() override { seen_ = 0; }
  [[nodiscard]] std::unique_ptr<Predictor> clone_fresh() const override {
    return std::make_unique<ScriptedPredictor>(seed_, horizon_);
  }
  [[nodiscard]] std::size_t footprint_bytes() const override { return sizeof(*this); }

 private:
  std::uint64_t seed_;
  std::size_t horizon_;
  std::uint64_t seen_ = 0;
};

TEST(AccuracyOracle, FlatPendingBufferMatchesReference) {
  // Horizons on both sides of each has-bit word boundary (63/64/65) and
  // one spanning three words (130); streams long enough to wrap every
  // pending buffer at least twice.
  for (const std::size_t horizon : {1, 2, 5, 63, 64, 65, 130}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("horizon " + std::to_string(horizon) + " seed " + std::to_string(seed));
      ScriptedPredictor flat_predictor(seed, horizon);
      ScriptedPredictor reference_predictor(seed, horizon);
      AccuracyEvaluator flat(flat_predictor, horizon);
      reference::AccuracyEvaluator ref(reference_predictor, horizon);
      const std::size_t n = 2 * (horizon + 1) + 300;
      for (std::size_t i = 0; i < n; ++i) {
        // Samples repeat the predictions' symbols, so hits, misses that
        // differ only in the high half, and 0 against a missing
        // prediction all occur.
        const std::int64_t v = symbol(mix(seed * 7919 + i) >> 3);
        flat.observe(v);
        ref.observe(v);
        ASSERT_EQ(flat.report(), ref.report()) << "after sample " << i;
      }
      ASSERT_EQ(flat.samples(), static_cast<std::int64_t>(n));
      for (std::size_t h = 1; h <= horizon; ++h) {
        EXPECT_GT(flat.report().at(h).hits, 0) << "+" << h;
        EXPECT_GT(flat.report().at(h).misses, 0) << "+" << h;
      }
    }
  }
}

TEST(AccuracyOracle, HeapBytesCountsPendingRowsAndHorizons) {
  // One buffer of H+1 rows, each ceil(H/64) has-bit words plus H values,
  // and the report's H horizon rows.
  for (const std::size_t horizon : {1, 5, 64, 65}) {
    ScriptedPredictor predictor(1, horizon);
    const AccuracyEvaluator eval(predictor, horizon);
    const std::size_t row_words = (horizon + 63) / 64 + horizon;
    EXPECT_EQ(eval.heap_bytes(),
              (horizon + 1) * row_words * 8 + horizon * sizeof(HorizonAccuracy))
        << "+" << horizon;
  }
}

// ------------------------------- set prediction (§5.3) -------------------

TEST(SetPrediction, PerfectPeriodicStreamFullyCovered) {
  StreamPredictor pred;
  const auto stream = cycle({1, 2, 3}, 1000);
  const auto report = evaluate_set_prediction(pred, stream, 5);
  EXPECT_GT(report.mean_overlap, 0.98);
  EXPECT_GT(report.full_cover_rate, 0.98);
  EXPECT_EQ(report.positions, 995);
}

TEST(SetPrediction, LocallyShuffledStreamStillCoveredAsSet) {
  // Swap adjacent pairs of a periodic stream: in-order accuracy suffers,
  // but the *set* of upcoming values stays predictable — the §5.3
  // argument for buffer pre-allocation.
  auto stream = cycle({1, 2, 3, 4}, 2000);
  for (std::size_t i = 0; i + 1 < stream.size(); i += 4) {
    std::swap(stream[i], stream[i + 1]);  // periodic *pairs*, scrambled order
  }
  StreamPredictor in_order;
  const auto ordered = evaluate_with(in_order, stream, 1);

  StreamPredictor for_sets;
  const auto sets = evaluate_set_prediction(for_sets, stream, 4);
  // The swapped stream is still periodic (period 4 with swapped layout),
  // so both should be high; the set view must be at least as good.
  EXPECT_GE(sets.mean_overlap, ordered.at(1).accuracy() - 0.01);
}

TEST(SetPrediction, ShortStreamScoresNoPositions) {
  StreamPredictor pred;
  const std::vector<std::int64_t> stream = {1, 2, 3};
  const auto report = evaluate_set_prediction(pred, stream, 5);
  EXPECT_EQ(report.positions, 0);
  EXPECT_EQ(report.mean_overlap, 0.0);
}

TEST(SetPrediction, UnpredictablePositionsScoreZero) {
  // Random-ish aperiodic stream: no period, no predictions, zero overlap.
  StreamPredictor pred;
  std::vector<std::int64_t> stream;
  for (std::int64_t i = 0; i < 100; ++i) {
    stream.push_back(i * i % 101);
  }
  const auto report = evaluate_set_prediction(pred, stream, 5);
  EXPECT_LT(report.mean_overlap, 0.2);
}

TEST(SetPrediction, MultisetSemanticsCountDuplicates) {
  // Stream period 2: {7, 7, 9, 9, ...}? Use {7,7,9}: predicted window of
  // five contains duplicates; the multiset intersection must respect
  // counts (not collapse duplicates into one).
  StreamPredictor pred;
  const auto stream = cycle({7, 7, 9}, 600);
  const auto report = evaluate_set_prediction(pred, stream, 5);
  EXPECT_GT(report.mean_overlap, 0.98);
}

}  // namespace
}  // namespace mpipred::core
