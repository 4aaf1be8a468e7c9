// Figure 1 — the iterative pattern in the message streams of NAS BT with 9
// processes, observed at process 3: the sender stream and the message-size
// stream both repeat with period 18. This bench prints the first four
// periods of both streams and the period the DPD detects.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "core/dpd.hpp"

namespace {

constexpr const char* kUsage =
    "usage: bench_figure1\n"
    "Runs bt.9 and prints Figure 1: the sender and size streams received by\n"
    "process 3 and the periods the DPD detects in them. No options.\n";

int run() {
  using namespace mpipred;
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
  const auto sp = sender_dpd.period();
  const auto zp = size_dpd.period();
  std::printf("\nDPD-detected period: senders = %zu, sizes = %zu  (paper: 18 for both)\n",
              sp.value_or(0), zp.value_or(0));
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
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(argc, argv, kUsage, run);
}
