// §2.1 — memory reduction. "Just imagine that each process allocates a
// 16KB buffer for each other process ... 10000 nodes ... 160MB of memory
// per process." With sender prediction the receiver only keeps buffers for
// the peers about to send; mispredictions fall back to the slow
// ask-permission path. Replays real physical traces through the adaptive
// decision layer (ingest::replay_adaptive), compares its pre-post
// residency against all-pairs pre-allocation, and extrapolates the
// per-process memory to large machines.
//
//   $ ./bench_memory_reduction

#include <cstdio>

#include "bench/bench_util.hpp"
#include "ingest/replay.hpp"

namespace {

constexpr const char* kUsage =
    "usage: bench_memory_reduction\n"
    "Replays the physical traces of bt.16, bt.25, lu.32, cg.32 and\n"
    "sweep3d.32 and prints the §2.1 buffer-memory table. No options.\n";

int run() {
  using namespace mpipred;
  std::printf("§2.1 — buffer memory: all-pairs vs prediction-driven (physical traces)\n\n");
  std::printf("%-12s %10s %10s %10s %12s %12s %10s\n", "config", "hit-rate%", "buffers",
              "peak-buf", "mem-bytes", "allpairs-B", "latencyx");

  // RuntimeConfig's horizon 8: the predicted *set* must cover all frequent
  // senders of a window (BT has up to 6). The LRU tail is 3 (the live loop
  // keeps 6).
  adaptive::RuntimeConfig rt;
  rt.policy.lru_keep = 3;
  const std::int64_t buffer_bytes = rt.policy.buffer_bytes;
  const bench::LatencyModel model;
  const std::int64_t mean_bytes = 4096;

  struct Case {
    const char* app;
    int procs;
  };
  for (const auto& [app, procs] : {Case{"bt", 16}, Case{"bt", 25}, Case{"lu", 32},
                                   Case{"cg", 32}, Case{"sweep3d", 32}}) {
    auto run = bench::run_traced(app, procs);
    const auto arrivals = bench::representative_arrivals(run.world->traces(),
                                                         {.kind = trace::OpKind::PointToPoint});
    const adaptive::PolicyStats predicted = ingest::replay_adaptive(arrivals, rt).stats;
    // A hit goes direct, a miss pays the handshake; all-pairs always hits.
    const double predicted_ns =
        (static_cast<double>(predicted.prepost_hits) * model.direct_ns(mean_bytes) +
         static_cast<double>(predicted.prepost_misses) * model.handshake_ns(mean_bytes)) /
        static_cast<double>(predicted.messages);
    std::printf("%-12s %10.1f %10.1f %10lld %12.0f %12lld %10.2f\n",
                (std::string(app) + "." + std::to_string(procs)).c_str(),
                bench::pct(predicted.hit_rate()), predicted.avg_buffers(),
                static_cast<long long>(predicted.peak_buffers),
                predicted.avg_buffers() * static_cast<double>(buffer_bytes),
                static_cast<long long>((procs - 1) * buffer_bytes),
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
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(argc, argv, kUsage, run);
}
