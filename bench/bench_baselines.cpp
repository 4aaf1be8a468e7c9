// §6 — comparison with related work: the DPD-based predictor vs next-value
// heuristics (cycle heuristic in the spirit of Afsahi & Dimopoulos) and a
// statistical Markov model. The paper's claims: periodicity detection
// learns fast and, once the period is known, predicts *several* future
// values; heuristics predict only the next value well, Markov models need
// more training and compound errors over the horizon.
//
// Every family comes out of the PredictorRegistry; add a name there and it
// shows up in this table.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"

namespace {

constexpr const char* kUsage =
    "usage: bench_baselines\n"
    "Runs bt.9, cg.8, lu.8, is.16 and sweep3d.16 and prints the §6 predictor\n"
    "comparison (dpd, last-value, cycle, markov-1, markov-2). No options.\n";

int run() {
  using namespace mpipred;
  std::printf("§6 — predictor comparison on logical sender streams (%% correct)\n\n");
  std::printf("%-12s %-10s", "config", "predictor");
  for (int h = 1; h <= 5; ++h) {
    std::printf("    +%d", h);
  }
  std::printf("\n");

  const std::vector<std::string> names = {"dpd", "last-value", "cycle", "markov-1", "markov-2"};

  struct Case {
    const char* app;
    int procs;
  };
  for (const auto& [app, procs] :
       {Case{"bt", 9}, Case{"cg", 8}, Case{"lu", 8}, Case{"is", 16}, Case{"sweep3d", 16}}) {
    auto run = bench::run_traced(app, procs);
    const int rep = trace::representative_rank(run.world->traces(), trace::Level::Logical);
    const auto streams = trace::extract_streams(run.world->traces(), rep, trace::Level::Logical);

    for (const auto& name : names) {
      const auto predictor = engine::make_predictor(name);
      const auto report = core::evaluate_with(*predictor, streams.senders, 5);
      std::printf("%-12s %-10s", (std::string(app) + "." + std::to_string(procs)).c_str(),
                  std::string(predictor->name()).c_str());
      for (std::size_t h = 1; h <= 5; ++h) {
        std::printf(" %5.1f", bench::pct(report.at(h).accuracy()));
      }
      std::printf("\n");
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("(expected: dpd flat and high across +1..+5; heuristics fall off with horizon)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(argc, argv, kUsage, run);
}
