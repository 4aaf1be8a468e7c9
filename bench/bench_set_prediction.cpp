// §5.3 — order-insensitive prediction. The paper argues that for uses like
// buffer pre-allocation the *set* of upcoming senders/sizes is what
// matters, and that this set stays predictable on the physical level even
// where the exact order does not. This bench compares, per configuration,
// the in-order +5 accuracy with the next-5 multiset overlap on physical
// streams.
//
//   $ ./bench/bench_set_prediction [--predictor <name>]      (default: dpd)
//   $ ./bench/bench_set_prediction --list-predictors

#include <cstdio>
#include <string>

#include "bench/bench_util.hpp"
#include "core/set_prediction.hpp"

namespace {

constexpr const char* kUsage =
    "usage: bench_set_prediction [--predictor <name>] [--list-predictors]\n"
    "Compares in-order and next-5 set accuracy on physical sender streams\n"
    "(default predictor: dpd).\n";

int run(int argc, char** argv) {
  using namespace mpipred;
  const std::string predictor = bench::predictor_flag(argc, argv);
  std::printf("§5.3 — physical level: in-order accuracy vs set (next-5 multiset) overlap\n");
  std::printf("predictor: %s\n\n", predictor.c_str());
  std::printf("%-12s %10s %10s %10s %12s\n", "config", "order+1%", "order+5%", "set-mean%",
              "full-cover%");
  struct Case {
    const char* app;
    int procs;
  };
  // Representative subset of the Table-1 grid (the §5.3 discussion uses BT
  // as its example; IS is where the set view matters most).
  for (const auto& [name, procs] :
       {Case{"bt", 9}, Case{"bt", 25}, Case{"cg", 8}, Case{"lu", 8}, Case{"is", 8},
        Case{"is", 32}, Case{"sweep3d", 16}}) {
    {
      const auto& info = apps::find_app(name);
      auto run = bench::run_traced(std::string(info.name), procs);
      const int rep = trace::representative_rank(run.world->traces(), trace::Level::Physical);
      const auto streams =
          trace::extract_streams(run.world->traces(), rep, trace::Level::Physical);

      const auto in_order = engine::make_predictor(predictor);
      const auto ordered = core::evaluate_with(*in_order, streams.senders, 5);
      const auto for_sets = engine::make_predictor(predictor);
      const auto sets = core::evaluate_set_prediction(*for_sets, streams.senders, 5);

      std::printf("%-12s %10.1f %10.1f %10.1f %12.1f\n",
                  (std::string(info.name) + "." + std::to_string(procs)).c_str(),
                  bench::pct(ordered.at(1).accuracy()), bench::pct(ordered.at(5).accuracy()),
                  bench::pct(sets.mean_overlap), bench::pct(sets.full_cover_rate));
      std::fflush(stdout);
    }
  }
  std::printf("\n(the set view should recover much of what ordering noise destroys)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(argc, argv, kUsage, run);
}
