// Every artifact of the paper from one command: Table 1, Figures 1–4, the
// §2 what-ifs (buffer memory, credit flow control, rendezvous elision),
// the §5.3 set view, the §6 predictor comparison and the detector
// ablation. Each section runs its kernels at Class A under the paper noise
// profile (seed 2003) and prints its table; the output is deterministic.
//
//   $ ./reproduce_paper                          (every section, paper order)
//   $ ./reproduce_paper figure3 figure4 --predictor cycle
//   $ ./reproduce_paper --list-predictors
//
// kSections is the one place a section is declared: --help, the argument
// checks and the dispatch all read it.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/dpd.hpp"
#include "core/set_prediction.hpp"
#include "ingest/replay.hpp"

namespace {

using namespace mpipred;

/// One (application, process count) cell of a section's grid.
struct Case {
  const char* app;
  int procs;
};

/// The "app.procs" label every table prints in its first column.
std::string label(std::string_view app, int procs) {
  return std::string(app) + "." + std::to_string(procs);
}

/// The sender and size streams of the representative receiver at `level`.
trace::Streams representative_streams(const mpi::World& world, trace::Level level) {
  const int rep = trace::representative_rank(world.traces(), level);
  return trace::extract_streams(world.traces(), rep, level);
}

/// The representative receiver's physical arrivals in record order: the
/// stream every §2 what-if replays through ingest::replay_adaptive.
std::vector<engine::Event> representative_arrivals(const trace::TraceStore& store,
                                                   const trace::StreamFilter& filter = {}) {
  const int rep = trace::representative_rank(store, trace::Level::Physical);
  return engine::events_from_rank(store, rep, trace::Level::Physical, filter);
}

// ------------------------------------------------------------ §2 what-ifs

// §2.1 — memory reduction. "Just imagine that each process allocates a
// 16KB buffer for each other process ... 10000 nodes ... 160MB of memory
// per process." With sender prediction the receiver only keeps buffers for
// the peers about to send; mispredictions fall back to the slow
// ask-permission path. Compares the adaptive layer's pre-post residency
// against all-pairs pre-allocation and extrapolates the per-process memory
// to large machines.
void memory(const std::string& /*predictor*/) {
  std::printf("§2.1 — buffer memory: all-pairs vs prediction-driven (physical traces)\n\n");
  std::printf("%-12s %10s %10s %10s %12s %12s %10s\n", "config", "hit-rate%", "buffers",
              "peak-buf", "mem-bytes", "allpairs-B", "latencyx");

  // RuntimeConfig's horizon 8: the predicted *set* must cover all frequent
  // senders of a window (BT has up to 6). The LRU tail is 3 (the live loop
  // keeps 6).
  adaptive::RuntimeConfig rt;
  rt.policy.lru_keep = 3;
  const bench::LatencyModel model;
  const std::int64_t mean_bytes = 4096;

  for (const auto& [app, procs] : {Case{"bt", 16}, Case{"bt", 25}, Case{"lu", 32},
                                   Case{"cg", 32}, Case{"sweep3d", 32}}) {
    auto run = bench::run_traced(app, procs);
    const auto arrivals =
        representative_arrivals(run.world->traces(), {.kind = trace::OpKind::PointToPoint});
    const adaptive::PolicyStats predicted = ingest::replay_adaptive(arrivals, rt).stats;
    // A hit goes direct, a miss pays the handshake; all-pairs always hits.
    const double predicted_ns =
        (static_cast<double>(predicted.prepost_hits) * model.direct_ns(mean_bytes) +
         static_cast<double>(predicted.prepost_misses) * model.handshake_ns(mean_bytes)) /
        static_cast<double>(predicted.messages);
    std::printf("%-12s %10.1f %10.1f %10lld %12.0f %12lld %10.2f\n", label(app, procs).c_str(),
                bench::pct(predicted.hit_rate()), predicted.avg_buffers(),
                static_cast<long long>(predicted.peak_buffers),
                predicted.avg_buffers() * static_cast<double>(adaptive::kBufferBytes),
                static_cast<long long>((procs - 1) * adaptive::kBufferBytes),
                predicted_ns / model.direct_ns(mean_bytes));
    std::fflush(stdout);
  }

  std::printf("\nExtrapolation of §2.1's example (16 KiB per peer buffer):\n");
  for (const long long nodes : {100LL, 1000LL, 10000LL}) {
    const long long all_pairs = (nodes - 1) * 16 * 1024;
    // Prediction keeps roughly (frequent senders + LRU) buffers resident;
    // use 8 as the observed ceiling across our traces.
    const long long predicted = 8 * 16 * 1024;
    std::printf("  %6lld nodes: all-pairs %8.1f MiB/process -> predicted %5.2f MiB/process\n",
                nodes, static_cast<double>(all_pairs) / (1024.0 * 1024.0),
                static_cast<double>(predicted) / (1024.0 * 1024.0));
  }
}

// §2.2 — control flow for short messages. Eager-everything is fast but the
// receiver's memory exposure is unbounded (it must buffer any burst);
// always-ask bounds memory but triples the latency of every message. The
// paper's proposal: grant credits for *predicted* (sender, size) pairs —
// eager speed with bounded, receiver-controlled memory. The adaptive
// replay scores every arrival against its receiver's per-stream credit
// plan; both baselines are priced from the same arrivals.
void print_row(const std::string& config, const char* policy, double hit_rate,
               std::int64_t peak_pledged_bytes, double total_ns, std::size_t messages) {
  std::printf("%-12s %-18s %10.1f %14lld %14.2f\n", config.c_str(), policy,
              mpipred::bench::pct(hit_rate), static_cast<long long>(peak_pledged_bytes),
              total_ns / static_cast<double>(messages) / 1000.0);
}

void flow_control(const std::string& /*predictor*/) {
  std::printf("§2.2 — credit-based flow control on physical traces\n\n");
  std::printf("%-12s %-18s %10s %14s %14s\n", "config", "policy", "hit-rate%", "peak-pledged-B",
              "mean-lat-us");

  // Credits are planned per stream at the engine's default horizon.
  adaptive::RuntimeConfig rt;
  rt.service.engine = engine::EngineConfig{};
  constexpr std::int64_t granule = adaptive::kCreditGranuleBytes;
  const bench::LatencyModel model;

  for (const auto& [app, procs] :
       {Case{"lu", 8}, Case{"bt", 9}, Case{"cg", 16}, Case{"sweep3d", 16}, Case{"is", 16}}) {
    auto run = bench::run_traced(app, procs);
    const auto arrivals = representative_arrivals(run.world->traces());
    const ingest::AdaptiveReplay replay = ingest::replay_adaptive(arrivals, rt);

    // Eager everything: every message direct, and nothing bounds the
    // receiver's exposure — §2.2's warning — so its pledge is the whole
    // stream. Always ask: one message's slot at a time, every message
    // pays the handshake.
    double eager_ns = 0.0;
    double ask_ns = 0.0;
    std::int64_t eager_pledged = 0;
    std::int64_t ask_pledged = 0;
    for (const engine::Event& event : arrivals) {
      eager_ns += model.direct_ns(event.bytes);
      ask_ns += model.handshake_ns(event.bytes);
      const std::int64_t slot = (event.bytes + granule - 1) / granule * granule;
      eager_pledged += slot;
      ask_pledged = std::max(ask_pledged, slot);
    }
    // Predicted credits: a covered arrival goes direct, a miss pays the
    // handshake's two extra latencies.
    const double credits_ns = eager_ns + static_cast<double>(replay.credit_misses) *
                                             (model.handshake_ns(0) - model.direct_ns(0));

    const std::string config = label(app, procs);
    const std::size_t n = arrivals.size();
    print_row(config, "eager-everything", 1.0, eager_pledged, eager_ns, n);
    print_row(config, "always-ask", 0.0, ask_pledged, ask_ns, n);
    print_row(config, "predicted-credits", replay.credit_hit_rate(), replay.peak_pledged_bytes,
              credits_ns, n);
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("(expected: predicted-credits ~eager latency with ~always-ask memory bounds\n"
              " on periodic apps; IS degrades towards always-ask)\n");
}

// §2.3 — long messages without rendezvous. A large message normally pays a
// three-leg handshake; a receiver that *predicts* the (sender, size) can
// allocate the buffer and pre-grant the transfer, making the long message
// travel like a short one. Reports the adaptive replay's elision rate and
// the modeled latency improvement for rendezvous-sized messages.
void rendezvous(const std::string& /*predictor*/) {
  std::printf("§2.3 — rendezvous elision for long messages (physical traces)\n\n");
  std::printf("%-12s %10s %10s %14s %10s\n", "config", "long-msgs", "elided%", "lat-saved-us",
              "speedup");

  // The receiver's predicted window is the engine's default horizon.
  constexpr std::int64_t kThreshold = 16 * 1024;
  adaptive::RuntimeConfig rt;
  rt.service.engine = engine::EngineConfig{};
  rt.policy.rendezvous_threshold_bytes = kThreshold;
  const bench::LatencyModel model;

  for (const auto& [app, procs] : {Case{"lu", 4}, Case{"lu", 16}, Case{"bt", 9}, Case{"bt", 25},
                                   Case{"cg", 8}, Case{"is", 8}}) {
    auto run = bench::run_traced(app, procs);
    const auto arrivals = representative_arrivals(run.world->traces());
    const adaptive::PolicyStats stats = ingest::replay_adaptive(arrivals, rt).stats;

    // Every long message pays the handshake today; an elided one goes
    // direct, saving the handshake's two extra latencies.
    double baseline_ns = 0.0;
    for (const engine::Event& event : arrivals) {
      if (event.bytes > kThreshold) {
        baseline_ns += model.handshake_ns(event.bytes);
      }
    }
    const double predicted_ns = baseline_ns - static_cast<double>(stats.rendezvous_elided) *
                                                  (model.handshake_ns(0) - model.direct_ns(0));
    std::printf("%-12s %10lld %10.1f %14.2f %10.3f\n", label(app, procs).c_str(),
                static_cast<long long>(stats.rendezvous_sends + stats.rendezvous_elided),
                bench::pct(stats.elision_rate()), (baseline_ns - predicted_ns) / 1000.0,
                predicted_ns == 0.0 ? 1.0 : baseline_ns / predicted_ns);
    std::fflush(stdout);
  }
  std::printf("\n(expected: periodic large transfers — LU faces, BT faces — mostly elided;\n"
              " IS's data-dependent alltoallv sizes resist elision)\n");
}

// ------------------------------------------------------------- Table 1

// Table 1 — "MPI applications used for this study": per application and
// process count, the number of point-to-point and collective messages
// received by a (representative) process, and the number of frequently
// appearing message sizes and senders. Absolute counts depend on iteration
// structure; the *shape* (magnitudes, p2p/collective split, locality
// counts) is the claim.
struct PaperRow {
  long p2p;
  long coll;
  int sizes;
  int senders;
};

// Table 1 of the paper, keyed by "app.procs".
const std::map<std::string, PaperRow> kPaper = {
    {"bt.4", {2416, 9, 3, 3}},      {"bt.9", {3651, 9, 3, 7}},
    {"bt.16", {4826, 9, 3, 7}},     {"bt.25", {6030, 9, 3, 7}},
    {"cg.4", {1679, 0, 2, 2}},      {"cg.8", {2942, 0, 2, 2}},
    {"cg.16", {2942, 0, 2, 2}},     {"cg.32", {4204, 0, 2, 2}},
    {"lu.4", {31472, 18, 2, 2}},    {"lu.8", {31474, 18, 4, 2}},
    {"lu.16", {31474, 18, 2, 2}},   {"lu.32", {47211, 18, 4, 2}},
    {"is.4", {11, 89, 3, 4}},       {"is.8", {11, 177, 3, 8}},
    {"is.16", {11, 353, 3, 16}},    {"is.32", {11, 705, 3, 32}},
    {"sweep3d.6", {1438, 36, 2, 3}}, {"sweep3d.16", {949, 36, 2, 2}},
    {"sweep3d.32", {949, 36, 2, 2}},
};

void table1(const std::string& /*predictor*/) {
  std::printf("Table 1 — application characteristics (Class A, representative rank)\n");
  std::printf("%-12s | %9s %9s %6s %8s | %9s %9s %6s %8s\n", "app.procs", "p2p", "coll",
              "sizes", "senders", "p2p*", "coll*", "sizes*", "senders*");
  std::printf("%-12s | %38s | %38s\n", "", "measured", "paper");
  std::printf("--------------------------------------------------------------------------------"
              "-------------\n");

  for (const auto& info : apps::all_apps()) {
    for (const int procs : info.paper_proc_counts) {
      auto run = bench::run_traced(std::string(info.name), procs);
      const int rep = trace::representative_rank(run.world->traces(), trace::Level::Logical);
      const auto s = trace::summarize_rank(run.world->traces(), rep, trace::Level::Logical);
      const std::string key = label(info.name, procs);
      const auto it = kPaper.find(key);
      std::printf("%-12s | %9lld %9lld %6d %8d |", key.c_str(),
                  static_cast<long long>(s.p2p_msgs), static_cast<long long>(s.coll_msgs),
                  s.clustered_frequent_sizes, s.frequent_senders);
      if (it != kPaper.end()) {
        std::printf(" %9ld %9ld %6d %8d", it->second.p2p, it->second.coll, it->second.sizes,
                    it->second.senders);
      }
      std::printf("  %s\n", run.outcome.verified ? "" : "[UNVERIFIED]");
      std::fflush(stdout);
    }
  }
  std::printf("\n(* paper values; our counts come from the simulator's Class A runs —\n"
              " magnitudes and locality structure are the reproduction target)\n");
}

// ------------------------------------------------------------ Figures

// Figure 1 — the iterative pattern in the message streams of NAS BT with 9
// processes, observed at process 3: the sender stream and the message-size
// stream both repeat with period 18. Prints the first four periods of both
// streams and the period the DPD detects.
void figure1(const std::string& /*predictor*/) {
  auto run = bench::run_traced("bt", 9);
  const auto streams = trace::extract_streams(run.world->traces(), 3, trace::Level::Logical,
                                              {.kind = trace::OpKind::PointToPoint});

  std::printf("Figure 1 — BT, 9 processes, streams received by process 3 (logical)\n\n");
  std::printf("a) senders (first 4 periods):\n");
  for (int period = 0; period < 4; ++period) {
    std::printf("   ");
    for (int i = 0; i < 18; ++i) {
      std::printf("%2lld ", static_cast<long long>(
                                streams.senders[static_cast<std::size_t>(period * 18 + i)]));
    }
    std::printf("\n");
  }
  std::printf("\nb) message sizes in bytes (first 4 periods):\n");
  for (int period = 0; period < 4; ++period) {
    std::printf("   ");
    for (int i = 0; i < 18; ++i) {
      std::printf("%6lld ", static_cast<long long>(
                                streams.sizes[static_cast<std::size_t>(period * 18 + i)]));
    }
    std::printf("\n");
  }

  core::PeriodicityDetector sender_dpd;
  core::PeriodicityDetector size_dpd;
  for (std::size_t i = 0; i < streams.length(); ++i) {
    sender_dpd.observe(streams.senders[i]);
    size_dpd.observe(streams.sizes[i]);
  }
  std::printf("\nDPD-detected period: senders = %zu, sizes = %zu  (paper: 18 for both)\n",
              sender_dpd.period().value_or(0), size_dpd.period().value_or(0));
  std::printf("distinct senders seen: {");
  const auto hist = trace::sender_histogram(run.world->traces(), 3, trace::Level::Logical);
  bool first = true;
  for (const auto& [sender, count] : hist) {
    if (sender >= 0) {
      std::printf("%s%lld", first ? "" : ", ", static_cast<long long>(sender));
      first = false;
    }
  }
  std::printf("}  (paper: processes 1, 2, 5, 7, 9 — five senders at 9 procs)\n");
}

// Figure 2 — logical vs physical sender streams of BT at 4 processes,
// process 3: the logical stream shows the program-order pattern; the
// physical stream shows the same pattern with occasional random swaps
// (circled in the paper's figure). Prints both streams side by side and
// marks the positions where they differ.
void figure2(const std::string& /*predictor*/) {
  auto run = bench::run_traced("bt", 4);
  const auto logical = trace::extract_streams(run.world->traces(), 3, trace::Level::Logical,
                                              {.kind = trace::OpKind::PointToPoint});
  const auto physical = trace::extract_streams(run.world->traces(), 3, trace::Level::Physical,
                                               {.kind = trace::OpKind::PointToPoint});

  std::printf("Figure 2 — BT, 4 processes, sender stream at process 3\n");
  std::printf("(logical = program order; physical = arrival order; '*' marks swaps)\n\n");

  const std::size_t shown = std::min<std::size_t>(logical.length(), 96);
  std::size_t diffs_total = 0;
  for (std::size_t i = 0; i < physical.length(); ++i) {
    if (i < logical.length() && logical.senders[i] != physical.senders[i]) {
      ++diffs_total;
    }
  }
  for (std::size_t base = 0; base < shown; base += 24) {
    std::printf("logical : ");
    for (std::size_t i = base; i < std::min(base + 24, shown); ++i) {
      std::printf("%lld ", static_cast<long long>(logical.senders[i]));
    }
    std::printf("\nphysical: ");
    for (std::size_t i = base; i < std::min(base + 24, shown); ++i) {
      std::printf("%lld ", static_cast<long long>(physical.senders[i]));
    }
    std::printf("\n          ");
    for (std::size_t i = base; i < std::min(base + 24, shown); ++i) {
      std::printf("%s ", logical.senders[i] != physical.senders[i] ? "*" : " ");
    }
    std::printf("\n\n");
  }
  std::printf("positions where physical order differs from logical: %zu of %zu (%.1f%%)\n",
              diffs_total, physical.length(),
              100.0 * static_cast<double>(diffs_total) / static_cast<double>(physical.length()));
}

/// The representative receiver's stream at `level`, scored by an engine
/// pass (identical to a hand-wired per-rank evaluation; feeding only that
/// receiver's events keeps the cost at the single-rank level).
engine::StreamReport evaluate_level(const mpi::World& world, trace::Level level,
                                    const std::string& predictor) {
  const int rep = trace::representative_rank(world.traces(), level);
  engine::PredictionEngine eng(engine::EngineConfig{.predictor = predictor});
  eng.observe_all(engine::events_from_rank(world.traces(), rep, level));
  for (const auto& stream : eng.report().streams) {
    if (stream.key.destination == rep) {
      return stream;
    }
  }
  // Empty stream (nothing received at this level): zeroed rows, printable
  // like any other report.
  engine::StreamReport zero;
  zero.senders.horizons.resize(engine::PredictorOptions{}.horizon);
  zero.sizes.horizons.resize(engine::PredictorOptions{}.horizon);
  return zero;
}

void print_accuracy_row(const std::string& config, const char* stream,
                        const core::AccuracyReport& report) {
  std::printf("%-10s %-8s", config.c_str(), stream);
  for (std::size_t h = 1; h <= 5; ++h) {
    std::printf(" %5.1f", bench::pct(report.at(h).accuracy()));
  }
  std::printf("\n");
}

// Figures 3 and 4 — +1..+5 prediction accuracy of the senders and sizes
// over the Table 1 grid, at the logical level (Figure 3: above 90%
// everywhere, IS.4 around 80% from its ~100-sample stream) or the
// physical level (Figure 4: lower under the machine's noise; LU and
// Sweep3D stay high, BT degrades, IS is hardest).
void accuracy_grid(const std::string& predictor, trace::Level level, int figure,
                   const char* footer) {
  std::printf("Figure %d — %s-level prediction accuracy (%% correct, Class A, %s)\n\n", figure,
              std::string(to_string(level)).c_str(), predictor.c_str());
  std::printf("%-10s %-8s", "config", "stream");
  for (int h = 1; h <= 5; ++h) {
    std::printf("   +%d ", h);
  }
  std::printf("\n");
  for (const auto& info : apps::all_apps()) {
    for (const int procs : info.paper_proc_counts) {
      auto run = bench::run_traced(std::string(info.name), procs);
      const auto eval = evaluate_level(*run.world, level, predictor);
      const std::string config = label(info.name, procs);
      print_accuracy_row(config, "senders", eval.senders);
      print_accuracy_row(config, "sizes", eval.sizes);
      std::fflush(stdout);
    }
  }
  std::printf("\n%s\n", footer);
}

void figure3(const std::string& predictor) {
  accuracy_grid(predictor, trace::Level::Logical, 3,
                "(paper: >90% everywhere, mostly ~100%; is.4 ~80% from its short stream)");
}

void figure4(const std::string& predictor) {
  accuracy_grid(predictor, trace::Level::Physical, 4,
                "(paper: below logical; lu/sweep3d high, bt lower, is lowest)");
}

// ------------------------------------------------------ §5.3, §6, ablation

// §5.3 — order-insensitive prediction. For uses like buffer pre-allocation
// the *set* of upcoming senders/sizes is what matters, and it stays
// predictable on the physical level even where the exact order does not.
// Compares the in-order +5 accuracy with the next-5 multiset overlap.
void set_prediction(const std::string& predictor) {
  std::printf("§5.3 — physical level: in-order accuracy vs set (next-5 multiset) overlap\n");
  std::printf("predictor: %s\n\n", predictor.c_str());
  std::printf("%-12s %10s %10s %10s %12s\n", "config", "order+1%", "order+5%", "set-mean%",
              "full-cover%");
  // Representative subset of the Table-1 grid (the §5.3 discussion uses BT
  // as its example; IS is where the set view matters most).
  for (const auto& [name, procs] :
       {Case{"bt", 9}, Case{"bt", 25}, Case{"cg", 8}, Case{"lu", 8}, Case{"is", 8},
        Case{"is", 32}, Case{"sweep3d", 16}}) {
    auto run = bench::run_traced(name, procs);
    const auto streams = representative_streams(*run.world, trace::Level::Physical);
    const auto in_order = engine::make_predictor(predictor);
    const auto ordered = core::evaluate_with(*in_order, streams.senders, 5);
    const auto for_sets = engine::make_predictor(predictor);
    const auto sets = core::evaluate_set_prediction(*for_sets, streams.senders, 5);
    std::printf("%-12s %10.1f %10.1f %10.1f %12.1f\n", label(name, procs).c_str(),
                bench::pct(ordered.at(1).accuracy()), bench::pct(ordered.at(5).accuracy()),
                bench::pct(sets.mean_overlap), bench::pct(sets.full_cover_rate));
    std::fflush(stdout);
  }
  std::printf("\n(the set view should recover much of what ordering noise destroys)\n");
}

// §6 — comparison with related work: the DPD-based predictor vs next-value
// heuristics (cycle heuristic in the spirit of Afsahi & Dimopoulos) and a
// statistical Markov model. Periodicity detection learns fast and, once
// the period is known, predicts *several* future values; heuristics
// predict only the next value well, Markov models need more training and
// compound errors over the horizon.
void baselines(const std::string& /*predictor*/) {
  std::printf("§6 — predictor comparison on logical sender streams (%% correct)\n\n");
  std::printf("%-12s %-10s", "config", "predictor");
  for (int h = 1; h <= 5; ++h) {
    std::printf("    +%d", h);
  }
  std::printf("\n");

  for (const auto& [app, procs] :
       {Case{"bt", 9}, Case{"cg", 8}, Case{"lu", 8}, Case{"is", 16}, Case{"sweep3d", 16}}) {
    auto run = bench::run_traced(app, procs);
    const auto streams = representative_streams(*run.world, trace::Level::Logical);
    for (const char* name : {"dpd", "last-value", "cycle", "markov-1", "markov-2"}) {
      const auto predictor = engine::make_predictor(name);
      const auto report = core::evaluate_with(*predictor, streams.senders, 5);
      std::printf("%-12s %-10s", label(app, procs).c_str(), std::string(predictor->name()).c_str());
      for (std::size_t h = 1; h <= 5; ++h) {
        std::printf(" %5.1f", bench::pct(report.at(h).accuracy()));
      }
      std::printf("\n");
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("(expected: dpd flat and high across +1..+5; heuristics fall off with horizon)\n");
}

// Ablation — detector criterion variants on real traces. The production
// detector confirms a lag from its *match run* with score hysteresis,
// while the reference checks d(m) == 0 over the full window. On clean
// logical streams the two are nearly identical; on physical streams the
// full-window criterion goes silent for a whole window after every random
// swap. Also isolates the hysteresis fallback (mismatch_penalty high
// enough that scores never help) next to the swept predictor.
core::AccuracyReport eval_family(const std::string& name, const engine::PredictorOptions& options,
                                 std::span<const std::int64_t> stream) {
  const auto predictor = engine::make_predictor(name, options);
  return core::evaluate_with(*predictor, stream, 5);
}

void ablation(const std::string& predictor) {
  // Effectively disable the hysteresis fallback: one mismatch drains any
  // score, leaving only the strict run criterion.
  engine::PredictorOptions strict_options;
  strict_options.dpd.mismatch_penalty = 1u << 20;

  std::printf("Ablation — detector criterion on real traces (+1 / +5 %% accuracy)\n\n");
  std::printf("%-14s %-9s  %-13s %-13s %-13s\n", "config", "level", predictor.c_str(),
              "strict-run", "full-window");

  for (const auto& [app, procs] : {Case{"bt", 9}, Case{"lu", 8}, Case{"sweep3d", 16},
                                   Case{"cg", 16}}) {
    auto run = bench::run_traced(app, procs);
    for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
      const auto streams = representative_streams(*run.world, level);
      const auto swept = eval_family(predictor, {}, streams.senders);
      const auto strict = eval_family("dpd", strict_options, streams.senders);
      const auto window = eval_family("dpd-window", {}, streams.senders);
      std::printf("%-14s %-9s  %5.1f /%5.1f  %5.1f /%5.1f  %5.1f /%5.1f\n",
                  label(app, procs).c_str(), std::string(to_string(level)).c_str(),
                  bench::pct(swept.at(1).accuracy()), bench::pct(swept.at(5).accuracy()),
                  bench::pct(strict.at(1).accuracy()), bench::pct(strict.at(5).accuracy()),
                  bench::pct(window.at(1).accuracy()), bench::pct(window.at(5).accuracy()));
      std::fflush(stdout);
    }
  }
  std::printf("\n(expected with the default dpd column: all three agree on logical streams;\n"
              " on physical streams hysteretic production > strict runs > full-window d(m))\n");
}

// ------------------------------------------------------------- dispatch

struct Section {
  std::string_view name;
  const char* usage;
  bool takes_predictor;
  void (*run)(const std::string& predictor);
};

// In paper order: the order a run without section names prints them in.
constexpr std::array kSections{
    Section{"memory", "§2.1 buffer memory: all-pairs vs predicted pre-posting", false, memory},
    Section{"flow-control", "§2.2 predicted credits vs eager and always-ask", false, flow_control},
    Section{"rendezvous", "§2.3 rendezvous elision for long messages", false, rendezvous},
    Section{"table1", "Table 1: application characteristics next to the paper's", false, table1},
    Section{"figure1", "Figure 1: bt.9 sender and size streams at process 3", false, figure1},
    Section{"figure2", "Figure 2: bt.4 logical vs physical senders at process 3", false, figure2},
    Section{"figure3", "Figure 3: logical-level +1..+5 accuracy, Table 1 grid", true, figure3},
    Section{"figure4", "Figure 4: physical-level +1..+5 accuracy, Table 1 grid", true, figure4},
    Section{"set-prediction", "§5.3 physical in-order vs next-5 set overlap", true, set_prediction},
    Section{"baselines", "§6 dpd vs last-value, cycle, markov-1 and markov-2", false, baselines},
    Section{"ablation", "DPD criterion: swept vs strict-run and full-window", true, ablation},
};

std::string usage() {
  std::string text =
      "usage: reproduce_paper [section...] [--predictor <name>] [--list-predictors]\n"
      "Prints the named sections of the paper's results in the given order, or\n"
      "every section in paper order. --predictor (default dpd) swaps the predictor\n"
      "of the sections marked *, and only those may be named with it.\n\nsections:\n";
  for (const Section& s : kSections) {
    text += "  " + std::string(s.name) + std::string(16 - s.name.size(), ' ') +
            (s.takes_predictor ? "* " : "  ") + s.usage + "\n";
  }
  return text;
}

int run(int argc, char** argv) {
  const engine::PredictorArg arg = bench::predictor_arg(argc, argv);
  std::vector<const Section*> selected;
  for (const std::string& name : arg.rest) {
    const auto* it = std::ranges::find(kSections, std::string_view(name), &Section::name);
    if (it == kSections.end()) {
      throw UsageError("unknown section or flag '" + name + "' (try --help)");
    }
    selected.push_back(it);
  }
  if (selected.empty()) {
    for (const Section& s : kSections) {
      selected.push_back(&s);
    }
  }
  const auto is_predictor_flag = [](std::string_view a) {
    return a == "--predictor" || a.starts_with("--predictor=");
  };
  const auto takes_predictor = [](const Section* s) { return s->takes_predictor; };
  if (std::any_of(argv + 1, argv + argc, is_predictor_flag) &&
      !std::ranges::all_of(selected, takes_predictor)) {
    std::string takers;
    for (const Section& s : kSections) {
      if (s.takes_predictor) {
        takers += (takers.empty() ? "" : ", ") + std::string(s.name);
      }
    }
    throw UsageError("--predictor needs named sections that all take it: " + takers);
  }
  if (bench::list_predictors(arg)) {
    return 0;
  }
  for (const Section* s : selected) {
    s->run(arg.name);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::cli_main(argc, argv, usage().c_str(), run);
}
