// §2.1 scenario: plan receive buffers from predictions. Runs BT on 16
// simulated processes, takes one process's *physical* sender stream, and
// replays it through the adaptive decision layer (ingest::replay_adaptive),
// comparing the memory footprint and slow-path rate of its pre-post plan
// against all-pairs pre-allocation and no pre-allocation.
//
// `--help` prints the usage and exits 0; anything that is not a square
// process count gets one line on stderr and exit 1.
//
//   $ ./examples/buffer_planner [procs]    (default 16, must be a square)

#include <charconv>
#include <cstdio>
#include <string>
#include <string_view>

#include "apps/app.hpp"
#include "bench/bench_util.hpp"
#include "ingest/replay.hpp"
#include "mpi/world.hpp"

namespace {

using namespace mpipred;

constexpr const char* kUsage =
    "usage: buffer_planner [procs]\n"
    "Runs BT (class A) on procs simulated processes (default 16, must be a\n"
    "square) and plans one process's receive buffers from its physical trace.\n";

/// The process count from argv (default 16); anything unusable throws
/// UsageError for cli_main to report.
int procs_arg(int argc, char** argv) {
  if (argc < 2) {
    return 16;
  }
  const std::string_view arg = argv[1];
  if (argc > 2) {
    throw UsageError("buffer_planner: unexpected argument '" + std::string(argv[2]) +
                     "' (try --help)");
  }
  int procs = 0;
  const auto [end, ec] = std::from_chars(arg.data(), arg.data() + arg.size(), procs);
  if (ec != std::errc{} || end != arg.data() + arg.size() || procs < 1) {
    throw UsageError("buffer_planner: procs must be a positive integer, got '" +
                     std::string(arg) + "'");
  }
  if (!apps::bt_supports(procs)) {
    throw UsageError("buffer_planner: BT needs a square process count (got " +
                     std::to_string(procs) + ")");
  }
  return procs;
}

int run(int argc, char** argv) {
  const int procs = procs_arg(argc, argv);

  std::printf("running bt.%d and planning buffers from its physical trace...\n\n", procs);
  mpi::World world(procs, apps::paper_world_config(7));
  (void)apps::run_bt(world, apps::AppConfig{.problem_class = apps::ProblemClass::A});

  const int rank = trace::representative_rank(world.traces(), trace::Level::Physical);
  const auto arrivals = engine::events_from_rank(world.traces(), rank, trace::Level::Physical,
                                                 {.kind = trace::OpKind::PointToPoint});
  // RuntimeConfig's horizon 8 so the predicted set covers BT's six
  // frequent senders, with an LRU tail of 3 (the live loop keeps 6).
  adaptive::RuntimeConfig rt;
  rt.policy.lru_keep = 3;
  const adaptive::PolicyStats predicted = ingest::replay_adaptive(arrivals, rt).stats;

  const auto buffer_bytes = static_cast<double>(adaptive::kBufferBytes);
  const auto print = [buffer_bytes](const char* policy, double hit_rate, double avg_buffers,
                                    std::int64_t peak_buffers) {
    std::printf("  %-12s hit-rate %5.1f%%  avg buffers %5.1f  peak %3lld  avg memory %8.0f B\n",
                policy, 100.0 * hit_rate, avg_buffers, static_cast<long long>(peak_buffers),
                avg_buffers * buffer_bytes);
  };
  // All-pairs holds one buffer per peer and always hits; no
  // pre-allocation holds none and always asks.
  const auto all_pairs_buffers = static_cast<double>(procs - 1);
  std::printf("process %d received %zu point-to-point messages\n", rank, arrivals.size());
  print("all-pairs", 1.0, all_pairs_buffers, procs - 1);
  print("predicted", predicted.hit_rate(), predicted.avg_buffers(), predicted.peak_buffers);
  print("none", 0.0, 0.0, 0);

  std::printf("\nmemory saved by prediction: %.1f%% (at %d processes; the gap widens\n"
              "linearly with machine size — that is §2.1's argument)\n",
              100.0 * (1.0 - predicted.avg_buffers() * buffer_bytes /
                                 (all_pairs_buffers * buffer_bytes)),
              procs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::cli_main(argc, argv, kUsage, run);
}
