#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace mpipred::core {

/// Configuration of the dynamic periodicity detector.
struct DpdConfig {
  /// N: how many recent samples are kept (bounds the memory of the
  /// detector and the maximum lookback for predictions).
  std::size_t window = 512;
  /// M: largest candidate period examined. Must satisfy max_period*2 <=
  /// window so a full confirmation fits in the buffer. 256 covers the
  /// longest super-periods of the paper's workloads (e.g. CG's full outer
  /// cycle: up to ~254 receives at 32 processes).
  std::size_t max_period = 256;
  /// A period m is declared once the stream has matched itself at lag m
  /// for `confirm_periods` consecutive full periods (1 == "the pattern has
  /// been seen twice", the paper's learning requirement)...
  std::size_t confirm_periods = 1;
  /// ...and for at least this many consecutive samples. This floor guards
  /// small lags against locking onto short locally-constant bursts (e.g.
  /// six equal-sized face exchanges in a row must not read as period 1).
  std::size_t min_confirm_samples = 8;
  /// Each mismatch subtracts this many points from the lag's match score
  /// (a match adds one, capped at twice the confirmation threshold).
  /// Values > 1 give hysteresis: an isolated reordering costs a few
  /// mispredictions — the paper's "each random change of the message
  /// pattern leads to a failure" — without silencing the predictor for a
  /// whole relearning interval. A genuine pattern change still drains the
  /// score within a few samples.
  std::size_t mismatch_penalty = 2;
};

/// Dynamic periodicity detector (DPD) after Freitag, Corbalan & Labarta
/// (IPDPS 2001), as modified for prediction in the IPDPS 2003 paper this
/// repository reproduces.
///
/// The reference formulation slides a window of N samples and computes, for
/// every candidate delay m,
///
///   d(m) = sign( sum_{i=0}^{N-1} |x[i] - x[i-m]| )            (eq. 1)
///
/// declaring periodicity m when d(m) == 0 (the window matches itself
/// shifted by m). Recomputing d(m) per sample costs O(N*M); this
/// implementation is incremental: for each lag m it tracks the length of
/// the current run of samples satisfying x[t] == x[t-m], which gives the
/// same "has matched for long enough" signal in O(N + M) space — small
/// enough to run inside an MPI library (the §4.2 overhead requirement; see
/// bench_predictor_overhead).
///
/// Costs: observe(), the only mutator, is O(min(samples, M)) — one pass
/// over the live lags that updates the runs and scores and also resolves
/// the prediction lag, which it caches. prediction_lag() is then O(1), so
/// a predictor reading several horizons per sample pays for the lag once.
/// period() is O(M + window) and is meant for reports.
///
/// Values are opaque integers: sender ranks or message sizes here, but any
/// symbol stream works.
class PeriodicityDetector {
 public:
  using Value = std::int64_t;

  explicit PeriodicityDetector(DpdConfig cfg = {});

  /// Feeds the next sample of the stream and resolves prediction_lag().
  void observe(Value v);

  /// The smallest confirmed period, if any — the *fundamental* period in
  /// the paper's sense: the smallest lag that is score-confirmed AND has
  /// d(m) == 0 over a recent window of ~3 periods (the exact check keeps
  /// high-match-density sub-lags, whose hysteretic score can drift over
  /// the threshold, out of the report). O(M + window); meant for reports
  /// and analysis — prediction uses prediction_lag().
  [[nodiscard]] std::optional<std::size_t> period() const;

  /// The lag prediction should read history through: the smallest
  /// *confirmed* lag whose match-run is at least half of the longest
  /// confirmed run. On an exactly m-periodic stream this is the
  /// fundamental period. Weighting by run length (evidence) discards lags
  /// that only hold locally — a constant stretch inside a longer pattern
  /// (which would fake a tiny period) or a lag that happens to align
  /// across a recent phase shift (which would fake a huge one) — both of
  /// which mispredict the rest of the pattern. If no run is confirmed, the
  /// same rule applies to the hysteretic scores. O(1): resolved by
  /// observe().
  [[nodiscard]] std::optional<std::size_t> prediction_lag() const;

  /// The paper's d(m) evaluated over the *current* window contents:
  /// 1 if any comparison mismatches, 0 if the window is m-periodic.
  /// O(window); intended for analysis and tests, not the hot path.
  [[nodiscard]] int distance(std::size_t m) const;

  /// Total samples observed so far.
  [[nodiscard]] std::int64_t samples() const noexcept { return total_; }

  /// The sample observed `lag` steps ago (lag 0 = most recent). lag must
  /// be < min(samples(), window).
  [[nodiscard]] Value value_at_lag(std::size_t lag) const;

  /// Number of buffered samples: min(samples(), window).
  [[nodiscard]] std::size_t buffered() const noexcept;

  [[nodiscard]] const DpdConfig& config() const noexcept { return cfg_; }

  /// Forgets everything (stream restart).
  void reset();

 private:
  [[nodiscard]] std::size_t threshold(std::size_t m) const noexcept;
  /// The prediction-lag rule over lags 1..live, given the best confirmed
  /// run and score (0 if none); 0 means no lag.
  [[nodiscard]] std::size_t resolve_lag(std::size_t live, std::size_t best_run,
                                        std::size_t best_score) const noexcept;

  DpdConfig cfg_;
  std::vector<Value> ring_;         // circular buffer of the last `window` samples
  std::vector<std::size_t> run_;    // run_[m-1]: strict consecutive matches at lag m
  std::vector<std::size_t> score_;  // score_[m-1]: hysteretic match score at lag m
  std::int64_t total_ = 0;
  std::size_t lag_ = 0;  // prediction_lag() as of the last observe(); 0 = none
};

}  // namespace mpipred::core
