// Figure 3 — prediction accuracy of the *logical* MPI communication: for
// every application and process count of Table 1, the accuracy of
// predicting the next five senders and the next five message sizes at the
// top of the MPI library. Paper expectation: above 90% everywhere, mostly
// close to 100%; IS.4 around 80% because its stream is only ~100 samples.
//
//   $ ./bench_figure3 [--predictor <name>] [--list-predictors]
//
// The default predictor is the paper's DPD; any registered family can be
// swept over the same grid instead.

#include <cstdio>

#include "bench/bench_util.hpp"

namespace {

constexpr const char* kUsage =
    "usage: bench_figure3 [--predictor <name>] [--list-predictors]\n"
    "Prints Figure 3: logical-level +1..+5 accuracy over the Table 1 grid\n"
    "(default predictor: dpd).\n";

int run(int argc, char** argv) {
  using namespace mpipred;
  const std::string predictor = bench::predictor_flag(argc, argv);
  std::printf("Figure 3 — logical-level prediction accuracy (%% correct, Class A, %s)\n\n",
              predictor.c_str());
  bench::print_accuracy_grid_header("stream");
  for (const auto& info : apps::all_apps()) {
    for (const int procs : info.paper_proc_counts) {
      auto run = bench::run_traced(std::string(info.name), procs);
      const auto eval = bench::evaluate_level(*run.world, trace::Level::Logical, predictor);
      const std::string config = std::string(info.name) + "." + std::to_string(procs);
      bench::print_accuracy_row(config, "senders", eval.senders);
      bench::print_accuracy_row(config, "sizes", eval.sizes);
      std::fflush(stdout);
    }
  }
  std::printf("\n(paper: >90%% everywhere, mostly ~100%%; is.4 ~80%% from its short stream)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(argc, argv, kUsage, run);
}
