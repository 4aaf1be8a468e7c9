// Latency benchmark of the prediction service on its production path:
// per-event observe latency of the resident engine, measured end to end
// at the call boundary a consumer actually pays — one observe_all() per
// arriving message for the online path, batched feeds for replay, and
// multi-tenant sessions through a PredictionServer.
//
// Feeds below engine::kMinParallelBatch (512) events run inline on the
// caller's thread; larger ones are partitioned and drained by the resident
// worker pool. The single-event row measures the first, the batch sweep
// brackets the floor (rows at a quarter, half, one and two times it) and
// the multi-tenant phase interleaves 512-event sessions over one shared
// pool. The floor is the measured crossover: p50 per feed at 4 shards,
// inline vs pooled (builds with the floor forced past every feed and down
// to 1; Release, GCC 12.2, 4-vCPU AMD EPYC), dpd 16 events 8.1 vs 11.7 µs
// and 32 events 16.0 vs 13.9 µs; last-value 256 events 20.4 vs 20.8 µs
// and 512 events 40.7 vs 31.4 µs. Run both predictors (`--predictor
// last-value`) after any change to the feed path: at and above the floor
// no row may drain slower pooled than inline.
//
// Every row is timed five times, each on a fresh engine (fresh sessions
// for the multi-tenant row), and each figure is the median of the five
// runs, with the fastest and slowest run of the row's headline figure
// beside it (Hunold & Carpen-Amarie: repetitions and spread, never one
// run). That every batch size produces the single-event run's report is
// pinned in the tier-1 suite (engine_parallel_test), not re-checked here.
//
// `--help` prints the usage below and exits 0; a bad argument prints one
// line to stderr and exits 1.
//
//   $ ./bench/bench_engine_latency [--predictor <name>] [--shards <n>]
//       [--events <n>] [--tenants <n>] [--out <file>]
//
// Writes BENCH_engine_latency.json with the host block (no timestamps —
// diffable modulo the host and the measured nanosecond values themselves).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/json_writer.hpp"
#include "serve/server.hpp"

namespace {

using namespace mpipred;
// mpipred-lint: allow(wall-clock) -- benches measure real host latency, not simulated time
using Clock = std::chrono::steady_clock;

constexpr const char* kUsage =
    "usage: bench_engine_latency [--predictor <name>] [--shards <n>] [--events <n>]\n"
    "                            [--tenants <n>] [--out <file>]\n";

constexpr std::size_t kRepeats = 5;  // timed runs per row, each on a fresh engine
static_assert(kRepeats % 2 == 1, "the median is the middle run");

std::vector<engine::Event> synthetic_trace(std::size_t nevents, std::int32_t ndestinations) {
  std::vector<engine::Event> events;
  events.reserve(nevents);
  for (std::size_t i = 0; i < nevents; ++i) {
    engine::Event event;
    event.destination = static_cast<std::int32_t>(i) % ndestinations;
    event.source = (static_cast<std::int32_t>(i) / ndestinations) % 7;
    event.tag = 0;
    event.bytes = std::int64_t{64} << ((i / static_cast<std::size_t>(ndestinations)) % 4);
    events.push_back(event);
  }
  return events;
}

struct Percentiles {
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double mean_ns = 0.0;
};

Percentiles percentiles(std::vector<double>& samples) {
  Percentiles out;
  if (samples.empty()) {
    return out;
  }
  std::sort(samples.begin(), samples.end());
  const auto at = [&](double q) {
    const auto rank = static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1) + 0.5);
    return samples[rank];
  };
  out.p50_ns = at(0.50);
  out.p99_ns = at(0.99);
  double sum = 0.0;
  for (const double s : samples) {
    sum += s;
  }
  out.mean_ns = sum / static_cast<double>(samples.size());
  return out;
}

/// One figure of a row over its kRepeats runs.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread spread(std::vector<double> runs) {
  std::sort(runs.begin(), runs.end());
  return {.median = runs[runs.size() / 2], .min = runs.front(), .max = runs.back()};
}

/// A percentile row over the runs: each figure's median, and the spread of
/// p50 (its headline figure).
struct RepeatedPercentiles {
  Spread p50_ns;
  double p99_ns = 0.0;
  double mean_ns = 0.0;
};

RepeatedPercentiles over_runs(const std::vector<Percentiles>& runs) {
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> mean;
  for (const Percentiles& run : runs) {
    p50.push_back(run.p50_ns);
    p99.push_back(run.p99_ns);
    mean.push_back(run.mean_ns);
  }
  return {.p50_ns = spread(p50), .p99_ns = spread(p99).median, .mean_ns = spread(mean).median};
}

double elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// Feeds `events` one observe_all() call per `batch` events (0 = one
/// call), recording the wall time of each call.
template <typename Target>
std::vector<double> timed_feed(Target& target, std::span<const engine::Event> events,
                               std::size_t batch) {
  const std::size_t step = batch == 0 ? events.size() : batch;
  std::vector<double> samples;
  samples.reserve(events.size() / step + 1);
  for (std::size_t off = 0; off < events.size(); off += step) {
    const auto slice = events.subspan(off, std::min(step, events.size() - off));
    const auto start = Clock::now();
    target.observe_all(slice);
    samples.push_back(elapsed_ns(start, Clock::now()));
  }
  return samples;
}

void write_percentiles(bench::JsonWriter& json, const char* name, const RepeatedPercentiles& p,
                       std::size_t samples) {
  json.key(name).begin_object();
  json.key("p50_ns").value(p.p50_ns.median);
  json.key("p50_ns_min").value(p.p50_ns.min);
  json.key("p50_ns_max").value(p.p50_ns.max);
  json.key("p99_ns").value(p.p99_ns);
  json.key("mean_ns").value(p.mean_ns);
  json.key("samples").value(samples);
  json.end_object();
}

int run(int argc, char** argv) {
  auto arg = bench::predictor_arg(argc, argv);
  const std::size_t shards = bench::shards_flag(arg.rest, 4);
  const std::size_t nevents = bench::size_flag(arg.rest, "--events", 20000);
  const std::size_t tenants = bench::size_flag(arg.rest, "--tenants", 4);
  std::string out_path = bench::string_flag(arg.rest, "--out");
  if (out_path.empty()) {
    out_path = "BENCH_engine_latency.json";
  }
  bench::reject_unexpected(arg.rest);
  if (bench::list_predictors(arg)) {
    return 0;
  }
  const std::size_t eff_shards = engine::effective_shard_count(shards);
  const auto events = synthetic_trace(nevents, 32);

  const engine::EngineConfig cfg{.predictor = arg.name, .shards = eff_shards};

  std::printf("engine latency — predictor=%s shards=%zu events=%zu tenants=%zu, "
              "median of %zu runs\n\n",
              arg.name.c_str(), eff_shards, nevents, tenants, kRepeats);

  // --- Single-event observe: one observe_all() per arriving message. -----
  std::vector<Percentiles> single_runs;
  for (std::size_t rep = 0; rep < kRepeats; ++rep) {
    engine::PredictionEngine single_engine(cfg);
    auto samples = timed_feed(single_engine, events, 1);
    single_runs.push_back(percentiles(samples));
  }
  const RepeatedPercentiles single = over_runs(single_runs);
  std::printf("single-event  p50 %9.0f ns (%.0f..%.0f)   p99 %9.0f ns   mean %9.0f ns\n\n",
              single.p50_ns.median, single.p50_ns.min, single.p50_ns.max, single.p99_ns,
              single.mean_ns);

  // --- Batch sweep: per-event cost vs batch size. ------------------------
  // Fixed rows plus four bracketing the dispatch floor, so the sweep shows
  // the inline/pooled crossover at whatever value the floor has; 0 (one
  // unbounded feed) last.
  constexpr std::size_t kFloor = engine::kMinParallelBatch;
  std::vector<std::size_t> batch_sizes = {
      1, 64, kFloor / 4, kFloor / 2, kFloor, 2 * kFloor, 4096, 32768};
  std::sort(batch_sizes.begin(), batch_sizes.end());
  batch_sizes.erase(std::unique(batch_sizes.begin(), batch_sizes.end()), batch_sizes.end());
  batch_sizes.push_back(0);
  struct BatchRow {
    std::size_t batch = 0;
    double p50_ns_per_feed = 0.0;
    double p99_ns_per_feed = 0.0;
    Spread mean_ns_per_event;  // the headline figure
    std::size_t feeds = 0;
  };
  std::vector<BatchRow> sweep;
  for (const std::size_t batch : batch_sizes) {
    BatchRow row;
    row.batch = batch;
    std::vector<double> p50;
    std::vector<double> p99;
    std::vector<double> per_event;
    for (std::size_t rep = 0; rep < kRepeats; ++rep) {
      engine::PredictionEngine eng(cfg);
      auto samples = timed_feed(eng, events, batch);
      row.feeds = samples.size();
      const Percentiles per_feed = percentiles(samples);
      p50.push_back(per_feed.p50_ns);
      p99.push_back(per_feed.p99_ns);
      // Total time over total events — correct even when the last feed is
      // a partial batch or the batch size exceeds the event count.
      per_event.push_back(per_feed.mean_ns * static_cast<double>(row.feeds) /
                          static_cast<double>(events.size()));
    }
    row.p50_ns_per_feed = spread(p50).median;
    row.p99_ns_per_feed = spread(p99).median;
    row.mean_ns_per_event = spread(per_event);
    sweep.push_back(row);
    std::printf("batch %9s  feeds %6zu  p50/feed %12.0f ns  p99/feed %12.0f ns   "
                "mean/event %8.1f ns (%.1f..%.1f)\n",
                batch == 0 ? "unbounded" : std::to_string(batch).c_str(), row.feeds,
                row.p50_ns_per_feed, row.p99_ns_per_feed, row.mean_ns_per_event.median,
                row.mean_ns_per_event.min, row.mean_ns_per_event.max);
  }

  // --- Multi-tenant: interleaved sessions through one server. ------------
  constexpr std::size_t kTenantBatch = 512;
  const std::span<const engine::Event> all(events);
  std::vector<Percentiles> tenant_runs;
  std::size_t tenant_feeds = 0;
  for (std::size_t rep = 0; rep < kRepeats; ++rep) {
    serve::PredictionServer server({.engine = cfg});
    std::vector<std::shared_ptr<serve::Session>> sessions;
    for (std::size_t t = 0; t < tenants; ++t) {
      sessions.push_back(server.open_session());
    }
    std::vector<double> tenant_samples;
    for (std::size_t off = 0; off < all.size(); off += kTenantBatch) {
      const auto slice = all.subspan(off, std::min(kTenantBatch, all.size() - off));
      // Round-robin: every tenant feeds the same slice before the next
      // slice, so feeds of different namespaces genuinely interleave.
      for (const auto& session : sessions) {
        const auto start = Clock::now();
        session->observe_all(slice);
        tenant_samples.push_back(elapsed_ns(start, Clock::now()));
      }
    }
    tenant_feeds = tenant_samples.size();
    tenant_runs.push_back(percentiles(tenant_samples));
  }
  const RepeatedPercentiles tenant = over_runs(tenant_runs);
  std::printf("\nmulti-tenant (%zu sessions, %zu-event feeds): p50 %9.0f ns (%.0f..%.0f)   "
              "p99 %9.0f ns\n",
              tenants, kTenantBatch, tenant.p50_ns.median, tenant.p50_ns.min, tenant.p50_ns.max,
              tenant.p99_ns);

  // --- Artifact. ---------------------------------------------------------
  bench::JsonWriter json;
  json.begin_object();
  json.key("bench").value("engine_latency");
  bench::write_host_block(json, {});  // the synthetic trace draws no seed
  json.key("config").begin_object();
  json.key("predictor").value(arg.name);
  json.key("shards").value(eff_shards);
  json.key("events").value(nevents);
  json.key("tenants").value(tenants);
  json.key("repeats").value(kRepeats);
  json.key("dispatch_floor").value(kFloor);
  json.end_object();
  write_percentiles(json, "single_event", single, nevents);
  json.key("batch_sweep").begin_array();
  for (const BatchRow& row : sweep) {
    json.begin_object();
    json.key("batch_events").value(row.batch);
    json.key("feeds").value(row.feeds);
    json.key("p50_ns_per_feed").value(row.p50_ns_per_feed);
    json.key("p99_ns_per_feed").value(row.p99_ns_per_feed);
    json.key("mean_ns_per_event").value(row.mean_ns_per_event.median);
    json.key("mean_ns_per_event_min").value(row.mean_ns_per_event.min);
    json.key("mean_ns_per_event_max").value(row.mean_ns_per_event.max);
    json.end_object();
  }
  json.end_array();
  json.key("multi_tenant").begin_object();
  json.key("sessions").value(tenants);
  json.key("batch_events").value(kTenantBatch);
  write_percentiles(json, "per_feed", tenant, tenant_feeds);
  json.end_object();
  json.end_object();

  bench::write_file(out_path, json.str() + "\n");
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::cli_main(argc, argv, kUsage, run);
}
