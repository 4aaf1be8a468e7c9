// Offline workflow: run a kernel once, export the full two-level trace to
// CSV, reload it, and analyze periodicity without re-running the
// simulation — the workflow a tools team would use on recorded traces.
//
// `--help` prints the usage below and exits 0; a flag, a second path or an
// unwritable path prints one line to stderr and exits 1.
//
//   $ ./examples/trace_export [path]   (default: ./is8_trace.csv)

#include <cstdio>
#include <string>

#include "apps/app.hpp"
#include "bench/bench_util.hpp"
#include "core/periodogram.hpp"
#include "ingest/source.hpp"
#include "mpi/world.hpp"
#include "trace/csv.hpp"
#include "trace/stats.hpp"
#include "trace/stream.hpp"

namespace {

using namespace mpipred;

constexpr const char* kUsage =
    "usage: trace_export [path]   (default: ./is8_trace.csv)\n"
    "Runs is.8 (Class S), exports its two-level trace to path as CSV, reloads\n"
    "it, and prints per-rank sender periodicity.\n";

int run(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '-' || i > 1) {
      throw UsageError("unexpected argument '" + std::string(argv[i]) + "' (try --help)");
    }
  }
  const std::string path = argc > 1 ? argv[1] : "is8_trace.csv";
  constexpr int kProcs = 8;

  std::printf("running is.%d (Class S) and exporting traces to %s ...\n", kProcs, path.c_str());
  {
    mpi::World world(kProcs, apps::paper_world_config(5));
    (void)apps::run_is(world, apps::AppConfig{.problem_class = apps::ProblemClass::S});
    trace::write_csv_file(path, world.traces());
  }

  // A different process (or a later analysis session) reloads the CSV
  // through the ingest boundary, the same reader `--trace` uses.
  const ingest::CsvTraceSource source = ingest::open_trace(path);
  const trace::TraceStore& store = source.store();
  std::printf("reloaded %zu logical + %zu physical records\n\n",
              store.total_records(trace::Level::Logical),
              store.total_records(trace::Level::Physical));

  for (int rank = 0; rank < kProcs; rank += 3) {
    const auto streams = trace::extract_streams(store, rank, trace::Level::Logical);
    const auto pg = core::compute_periodogram(streams.senders, 64);
    const auto fundamental = pg.fundamental_period();
    const auto near = pg.near_period(0.05);
    std::printf("rank %d: %4zu msgs, sender-period exact=%zu near(5%%)=%zu",
                rank, streams.length(), fundamental.value_or(0), near.value_or(0));
    if (near) {
      std::printf("  coverage=%.1f%%", 100.0 * core::period_coverage(streams.senders, *near));
    }
    std::printf("\n");
  }
  std::printf("\n(delete %s when done)\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::cli_main(argc, argv, kUsage, run);
}
