// Quickstart: a predictor on its own. Feed a message stream (here: a
// synthetic sender pattern like the ones MPI processes see), watch the DPD
// find the period, and ask for the next five values. Any registered
// predictor family can be swapped in by name.
//
//   $ ./examples/quickstart [predictor]      (default: dpd)

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/error.hpp"
#include "core/predictor.hpp"
#include "engine/registry.hpp"

namespace {

constexpr const char* kUsage =
    "usage: quickstart [predictor]\n"
    "Feeds a synthetic periodic sender stream to one registered predictor\n"
    "(default: dpd) and prints its next five predictions.\n";

int run(int argc, char** argv) {
  using namespace mpipred;
  if (argc > 2) {
    throw UsageError("unexpected argument '" + std::string(argv[2]) + "' (try --help)");
  }
  const std::string name = argc > 1 ? argv[1] : "dpd";

  // A process that receives from peers 3, 1, 4, 1, 5 over and over — the
  // kind of iterative pattern Figure 1 of the paper shows for NAS BT.
  const std::vector<std::int64_t> pattern = {3, 1, 4, 1, 5};

  // Defaults: horizon 5. An unknown name throws UsageError (exit 1).
  const std::unique_ptr<core::Predictor> predictor = engine::make_predictor(name);
  std::printf("predictor: %s\n", std::string(predictor->name()).c_str());

  std::printf("observing the stream...\n");
  // Periodicity-based families expose the detected period as a trait;
  // show the moment it locks on (families without the trait stay quiet).
  bool announced = false;
  for (int i = 0; i < 50; ++i) {
    predictor->observe(pattern[static_cast<std::size_t>(i) % pattern.size()]);
    if (!announced) {
      if (const auto period = core::trait(*predictor, "period")) {
        std::printf("  after %2d samples: period %lld detected\n", i + 1,
                    static_cast<long long>(*period));
        announced = true;
      }
    }
  }

  std::printf("\npredictions for the next five messages:\n");
  for (std::size_t h = 1; h <= 5; ++h) {
    const auto value = predictor->predict(h);
    const std::int64_t actual = pattern[(50 + h - 1) % pattern.size()];
    std::printf("  +%zu: predicted %2lld   (actual will be %2lld)  %s\n", h,
                static_cast<long long>(value.value_or(-1)), static_cast<long long>(actual),
                value == actual ? "hit" : "miss");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(argc, argv, kUsage, run);
}
