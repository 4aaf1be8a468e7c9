// §2.3 — long messages without rendezvous. A large message normally pays a
// three-leg handshake; a receiver that *predicts* the (sender, size) can
// allocate the buffer and pre-grant the transfer, making the long message
// travel like a short one. Replays physical traces through the adaptive
// decision layer (ingest::replay_adaptive's protocol choice) and reports
// the elision rate and modeled latency improvement for rendezvous-sized
// messages.
//
//   $ ./bench_rendezvous

#include <cstdio>

#include "bench/bench_util.hpp"
#include "ingest/replay.hpp"

namespace {

constexpr const char* kUsage =
    "usage: bench_rendezvous\n"
    "Replays the physical traces of lu.4, lu.16, bt.9, bt.25, cg.8 and\n"
    "is.8 and prints the §2.3 rendezvous-elision table. No options.\n";

int run() {
  using namespace mpipred;
  std::printf("§2.3 — rendezvous elision for long messages (physical traces)\n\n");
  std::printf("%-12s %10s %10s %14s %10s\n", "config", "long-msgs", "elided%", "lat-saved-us",
              "speedup");

  // The receiver's predicted window is the engine's default horizon.
  adaptive::RuntimeConfig rt;
  rt.service.engine = engine::EngineConfig{};
  const bench::LatencyModel model;

  struct Case {
    const char* app;
    int procs;
    std::int64_t threshold;
  };
  for (const auto& [app, procs, threshold] :
       {Case{"lu", 4, 16 * 1024}, Case{"lu", 16, 16 * 1024}, Case{"bt", 9, 16 * 1024},
        Case{"bt", 25, 16 * 1024}, Case{"cg", 8, 16 * 1024}, Case{"is", 8, 16 * 1024}}) {
    auto run = bench::run_traced(app, procs);
    const auto arrivals = bench::representative_arrivals(run.world->traces());
    rt.policy.rendezvous_threshold_bytes = threshold;
    const adaptive::PolicyStats stats = ingest::replay_adaptive(arrivals, rt).stats;

    // Every long message pays the handshake today; an elided one goes
    // direct, saving the handshake's two extra latencies.
    double baseline_ns = 0.0;
    for (const engine::Event& event : arrivals) {
      if (event.bytes > threshold) {
        baseline_ns += model.handshake_ns(event.bytes);
      }
    }
    const double predicted_ns = baseline_ns - static_cast<double>(stats.rendezvous_elided) *
                                                  (model.handshake_ns(0) - model.direct_ns(0));
    std::printf("%-12s %10lld %10.1f %14.2f %10.3f\n",
                (std::string(app) + "." + std::to_string(procs)).c_str(),
                static_cast<long long>(stats.rendezvous_sends + stats.rendezvous_elided),
                bench::pct(stats.elision_rate()), (baseline_ns - predicted_ns) / 1000.0,
                predicted_ns == 0.0 ? 1.0 : baseline_ns / predicted_ns);
    std::fflush(stdout);
  }
  std::printf("\n(expected: periodic large transfers — LU faces, BT faces — mostly elided;\n"
              " IS's data-dependent alltoallv sizes resist elision)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(argc, argv, kUsage, run);
}
