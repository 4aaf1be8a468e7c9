// Figure 4 — prediction accuracy of the *physical* MPI communication: the
// same grid as Figure 3, but on arrival-order streams under the simulated
// machine's noise (jitter, load imbalance, route skew). Paper expectation:
// lower than logical; LU and Sweep3D stay high (few distinct elements),
// BT degrades (more senders racing), IS is hardest (collective incast).
//
//   $ ./bench_figure4 [--predictor <name>] [--list-predictors]

#include <cstdio>

#include "bench/bench_util.hpp"

namespace {

constexpr const char* kUsage =
    "usage: bench_figure4 [--predictor <name>] [--list-predictors]\n"
    "Prints Figure 4: physical-level +1..+5 accuracy over the Table 1 grid\n"
    "(default predictor: dpd).\n";

int run(int argc, char** argv) {
  using namespace mpipred;
  const std::string predictor = bench::predictor_flag(argc, argv);
  std::printf("Figure 4 — physical-level prediction accuracy (%% correct, Class A, %s)\n\n",
              predictor.c_str());
  bench::print_accuracy_grid_header("stream");
  for (const auto& info : apps::all_apps()) {
    for (const int procs : info.paper_proc_counts) {
      auto run = bench::run_traced(std::string(info.name), procs);
      const auto eval = bench::evaluate_level(*run.world, trace::Level::Physical, predictor);
      const std::string config = std::string(info.name) + "." + std::to_string(procs);
      bench::print_accuracy_row(config, "senders", eval.senders);
      bench::print_accuracy_row(config, "sizes", eval.sizes);
      std::fflush(stdout);
    }
  }
  std::printf("\n(paper: below logical; lu/sweep3d high, bt lower, is lowest)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(argc, argv, kUsage, run);
}
