// §2.2 — control flow for short messages. Eager-everything is fast but the
// receiver's memory exposure is unbounded (it must buffer any burst);
// always-ask bounds memory but triples the latency of every message. The
// paper's proposal: grant credits for *predicted* (sender, size) pairs —
// eager speed with bounded, receiver-controlled memory. Replays physical
// traces through the adaptive decision layer (ingest::replay_adaptive
// scores every arrival against its receiver's per-stream credit plan) and
// prices both baselines from the same arrivals.
//
//   $ ./bench_flow_control

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "ingest/replay.hpp"

namespace {

constexpr const char* kUsage =
    "usage: bench_flow_control\n"
    "Replays the physical traces of lu.8, bt.9, cg.16, sweep3d.16 and\n"
    "is.16 and prints the §2.2 credit flow-control table. No options.\n";

void print_row(const std::string& config, const char* policy, double hit_rate,
               std::int64_t peak_pledged_bytes, double total_ns, std::size_t messages) {
  std::printf("%-12s %-18s %10.1f %14lld %14.2f\n", config.c_str(), policy,
              mpipred::bench::pct(hit_rate), static_cast<long long>(peak_pledged_bytes),
              total_ns / static_cast<double>(messages) / 1000.0);
}

int run() {
  using namespace mpipred;
  std::printf("§2.2 — credit-based flow control on physical traces\n\n");
  std::printf("%-12s %-18s %10s %14s %14s\n", "config", "policy", "hit-rate%", "peak-pledged-B",
              "mean-lat-us");

  // Credits are planned per stream at the engine's default horizon.
  adaptive::RuntimeConfig rt;
  rt.service.engine = engine::EngineConfig{};
  const std::int64_t granule = rt.policy.credit_granule_bytes;
  const bench::LatencyModel model;

  struct Case {
    const char* app;
    int procs;
  };
  for (const auto& [app, procs] :
       {Case{"lu", 8}, Case{"bt", 9}, Case{"cg", 16}, Case{"sweep3d", 16}, Case{"is", 16}}) {
    auto run = bench::run_traced(app, procs);
    const auto arrivals = bench::representative_arrivals(run.world->traces());
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

    const std::string config = std::string(app) + "." + std::to_string(procs);
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
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(argc, argv, kUsage, run);
}
