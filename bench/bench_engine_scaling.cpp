// Throughput of the sharded PredictionEngine on a synthetic many-stream
// trace, swept over shard counts. That every shard count reports exactly
// what the sequential run does is pinned in the tier-1 suite
// (engine_parallel_test), not re-checked here.
//
// `--help` prints the usage below and exits 0; a bad argument prints one
// line to stderr and exits 1.
//
//   $ ./bench_engine_scaling [--predictor <name>] [--events <n>]
//                            [--streams <n>] [--shards <n>]
//
// Defaults: 1M events over 100k per-receiver streams; sweep shards
// {1, 2, 4, 8, hw}. `--shards <n>` measures that count against 1 shard.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "engine/engine.hpp"

namespace {

using namespace mpipred;
using engine::Event;

constexpr const char* kUsage =
    "usage: bench_engine_scaling [--predictor <name>] [--events <n>] [--streams <n>]\n"
    "                            [--shards <n>]\n";

/// Periodic traffic over `streams` receivers: stream s sees sender
/// (s + round) % 1024 and sizes cycling over five powers of two — signal
/// the predictors genuinely chew on, unlike white noise.
std::vector<Event> synthetic_trace(std::size_t events, std::size_t streams) {
  std::vector<Event> out;
  out.reserve(events);
  for (std::size_t i = 0; i < events; ++i) {
    const std::size_t stream = i % streams;
    const std::size_t round = i / streams;
    out.push_back({.source = static_cast<std::int32_t>((stream + round) % 1024),
                   .destination = static_cast<std::int32_t>(stream),
                   .tag = 0,
                   .bytes = std::int64_t{64} << (round % 5)});
  }
  return out;
}

int run(int argc, char** argv) {
  auto arg = engine::predictor_arg_or_exit(argc, argv);
  const std::size_t events_n = bench::size_flag(arg.rest, "--events", 1'000'000);
  const std::size_t streams_n = bench::size_flag(arg.rest, "--streams", 100'000);
  const std::size_t fixed_shards = bench::shards_flag(arg.rest, 0);
  if (!arg.rest.empty()) {
    std::fprintf(stderr, "unexpected argument '%s'\n", arg.rest.front().c_str());
    return 1;
  }
  if (events_n == 0 || streams_n == 0) {
    std::fprintf(stderr, "--events and --streams must be at least 1\n");
    return 1;
  }

  const std::size_t hw = engine::effective_shard_count(0);
  std::vector<std::size_t> counts;
  if (fixed_shards != 0) {
    counts = {1, engine::effective_shard_count(fixed_shards)};
  } else {
    counts = {1, 2, 4, 8, hw};
  }
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  std::printf("engine scaling: %zu events, %zu streams, predictor %s, %zu hardware threads\n\n",
              events_n, streams_n, arg.name.c_str(), hw);
  const auto events = synthetic_trace(events_n, streams_n);

  std::printf("%8s %10s %12s %9s\n", "shards", "seconds", "events/s", "speedup");
  engine::EngineReport report;
  double baseline_seconds = 0.0;
  for (const std::size_t shards : counts) {
    engine::PredictionEngine eng(
        engine::EngineConfig{.predictor = arg.name, .shards = shards});
    // mpipred-lint: allow(wall-clock) -- this bench times the real feed path on the host
    const auto start = std::chrono::steady_clock::now();
    eng.observe_all(events);
    // mpipred-lint: allow(wall-clock) -- same measurement, closing timestamp
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;

    const double seconds = elapsed.count();
    if (shards == 1) {
      report = eng.report();
      baseline_seconds = seconds;
    }
    std::printf("%8zu %10.3f %12.0f %8.2fx\n", shards, seconds,
                static_cast<double>(events_n) / seconds, baseline_seconds / seconds);
  }

  std::printf("\n%zu streams, %.1f MiB predictor state\n", report.streams.size(),
              static_cast<double>(report.total_footprint_bytes) / (1024.0 * 1024.0));
  if (hw == 1) {
    std::printf("(single hardware thread: speedups need a multi-core host)\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::cli_main(argc, argv, kUsage, run);
}
