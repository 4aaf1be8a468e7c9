// Figure 2 — logical vs physical sender streams of BT at 4 processes,
// process 3: the logical stream shows the program-order pattern; the
// physical stream shows the same pattern with occasional random swaps
// (circled in the paper's figure). This bench prints both streams side by
// side and marks the positions where they differ.

#include <cstdio>

#include "bench/bench_util.hpp"

namespace {

constexpr const char* kUsage =
    "usage: bench_figure2\n"
    "Runs bt.4 and prints Figure 2: the logical vs physical sender streams\n"
    "at process 3. No options.\n";

int run() {
  using namespace mpipred;
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
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(argc, argv, kUsage, run);
}
