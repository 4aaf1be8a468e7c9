// Throughput of the sharded PredictionEngine on a synthetic many-stream
// trace, swept over shard counts. That every shard count reports exactly
// what the sequential run does is pinned in the tier-1 suite
// (engine_parallel_test), not re-checked here.
//
// `--help` prints the usage below and exits 0; a bad argument prints one
// line to stderr and exits 1.
//
//   $ ./bench_engine_scaling [--predictor <name>] [--events <n>]
//                            [--streams <n>] [--shards <n>] [--json <file>]
//
// Defaults: 1M events over 100k per-receiver streams, 10 per stream;
// sweep shards {1, 2, 4, 8, hw}, each timed five times on a fresh engine
// and reported as the median with the fastest and slowest run (Hunold &
// Carpen-Amarie: repetitions and spread, never one run). `--shards <n>`
// measures that count against 1 shard.
// `--json <file>` also writes the table and the stream state with the
// host block (BENCH_engine_scaling.json is that file, committed).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/json_writer.hpp"
#include "engine/engine.hpp"

namespace {

using namespace mpipred;
using engine::Event;

constexpr const char* kUsage =
    "usage: bench_engine_scaling [--predictor <name>] [--events <n>] [--streams <n>]\n"
    "                            [--shards <n>] [--json <file>]\n";

constexpr std::size_t kRepeats = 5;  // timed runs per shard count
static_assert(kRepeats % 2 == 1, "the median is the middle run");

/// One shard count's timings over the repeats, in seconds.
struct Row {
  std::size_t shards = 0;
  double median_s = 0.0;
  double min_s = 0.0;
  double max_s = 0.0;
};

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
  auto arg = bench::predictor_arg(argc, argv);
  const std::size_t events_n = bench::size_flag(arg.rest, "--events", 1'000'000);
  const std::size_t streams_n = bench::size_flag(arg.rest, "--streams", 100'000);
  const std::size_t fixed_shards = bench::shards_flag(arg.rest, 0);
  const std::string json_path = bench::string_flag(arg.rest, "--json");
  bench::reject_unexpected(arg.rest);
  if (events_n == 0 || streams_n == 0) {
    throw UsageError("--events and --streams must be at least 1");
  }
  if (bench::list_predictors(arg)) {
    return 0;
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

  std::printf("engine scaling: %zu events, %zu streams, predictor %s, %zu hardware threads, "
              "median of %zu runs\n\n",
              events_n, streams_n, arg.name.c_str(), hw, kRepeats);
  const auto events = synthetic_trace(events_n, streams_n);

  std::printf("%8s %10s %12s %9s %21s\n", "shards", "seconds", "events/s", "speedup",
              "fastest..slowest s");
  engine::EngineReport report;
  std::vector<Row> rows;
  for (const std::size_t shards : counts) {
    std::vector<double> seconds;
    for (std::size_t rep = 0; rep < kRepeats; ++rep) {
      engine::PredictionEngine eng(
          engine::EngineConfig{.predictor = arg.name, .shards = shards});
      // mpipred-lint: allow(wall-clock) -- this bench times the real feed path on the host
      const auto start = std::chrono::steady_clock::now();
      eng.observe_all(events);
      // mpipred-lint: allow(wall-clock) -- same measurement, closing timestamp
      const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
      seconds.push_back(elapsed.count());
      if (shards == 1 && rep == 0) {
        report = eng.report();
      }
    }
    std::sort(seconds.begin(), seconds.end());
    const double median = seconds[kRepeats / 2];
    rows.push_back({shards, median, seconds.front(), seconds.back()});
    std::printf("%8zu %10.3f %12.0f %8.2fx %10.3f..%-10.3f\n", shards, median,
                static_cast<double>(events_n) / median, rows.front().median_s / median,
                seconds.front(), seconds.back());
  }

  const double state_mib =
      static_cast<double>(report.total_footprint_bytes) / (1024.0 * 1024.0);
  std::printf("\n%zu streams, %.1f MiB stream state\n", report.streams.size(), state_mib);
  if (hw == 1) {
    std::printf("(single hardware thread: speedups need a multi-core host)\n");
  }
  if (json_path.empty()) {
    return 0;
  }

  bench::JsonWriter json;
  json.begin_object();
  json.key("bench").value("engine_scaling");
  bench::write_host_block(json, {});  // the synthetic trace draws no seed
  json.key("config").begin_object();
  json.key("predictor").value(arg.name);
  json.key("events").value(static_cast<std::uint64_t>(events_n));
  json.key("streams").value(static_cast<std::uint64_t>(streams_n));
  json.key("repeats").value(static_cast<std::uint64_t>(kRepeats));
  json.key("hardware_threads").value(static_cast<std::uint64_t>(hw));
  json.end_object();
  json.key("shards").begin_array();
  for (const Row& row : rows) {
    json.begin_object();
    json.key("shards").value(static_cast<std::uint64_t>(row.shards));
    json.key("median_s").value(row.median_s);
    json.key("min_s").value(row.min_s);
    json.key("max_s").value(row.max_s);
    json.key("events_per_s").value(static_cast<double>(events_n) / row.median_s);
    json.key("speedup").value(rows.front().median_s / row.median_s);
    json.end_object();
  }
  json.end_array();
  json.key("stream_state_bytes").value(static_cast<std::uint64_t>(report.total_footprint_bytes));
  json.key("stream_state_mib").value(state_mib);
  json.end_object();
  bench::write_file(json_path, json.str() + "\n");
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::cli_main(argc, argv, kUsage, run);
}
