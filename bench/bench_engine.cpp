// The prediction engine's host cost from one command, in three sections:
//
//   scaling   throughput of the sharded PredictionEngine on a synthetic
//             many-stream trace, swept over shard counts;
//   latency   per-event observe latency of the resident engine at the call
//             boundary a consumer pays: one observe_all() per arriving
//             message, batched feeds across the dispatch floor, and
//             multi-tenant sessions through a PredictionServer;
//   overhead  §4.2's per-message predictor cost ("to have a small overhead
//             is important since prediction has to be done at runtime"):
//             ns per observe() and per observe() + five-horizon predict()
//             for every builtin predictor, with its footprint_bytes().
//
// Every figure is timed kRepeats times, each run on a fresh engine, server
// or predictor, and reported as the median with the fastest and slowest
// run beside it (Hunold & Carpen-Amarie: repetitions and spread, never one
// run). That every shard count and batch size reports what the sequential
// run does is pinned in the tier-1 suite (engine_parallel_test), not
// re-checked here.
//
//   $ ./bench_engine                                   (every section)
//   $ ./bench_engine scaling --out BENCH_engine_scaling.json
//   $ ./bench_engine latency --predictor last-value --out latency.json
//   $ ./bench_engine overhead --out BENCH_predictor_overhead.json
//
// kSections is the one place a section is declared, with the flags it
// takes: --help, the argument checks and the dispatch all read it. --out
// writes one named section's table with the host block (no timestamps:
// diffable modulo the host and the measured times themselves).

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/json_writer.hpp"
#include "serve/server.hpp"

namespace {

using namespace mpipred;
// mpipred-lint: allow(wall-clock) -- benches measure real host time, not simulated time
using Clock = std::chrono::steady_clock;

constexpr std::size_t kRepeats = 5;  // timed runs per figure, each on fresh state
static_assert(kRepeats % 2 == 1, "the median is the middle run");

/// The parsed command line; a flag left unset takes its section's default.
struct Options {
  std::string predictor;
  std::optional<std::size_t> shards;
  std::optional<std::size_t> events;
  std::optional<std::size_t> streams;
  std::optional<std::size_t> tenants;
};

/// One figure over its kRepeats runs.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread spread(std::vector<double> runs) {
  std::sort(runs.begin(), runs.end());
  return {.median = runs[runs.size() / 2], .min = runs.front(), .max = runs.back()};
}

/// `name`, `name_min` and `name_max`: the median and its spread.
void write_spread(bench::JsonWriter& json, const std::string& name, const Spread& s) {
  json.key(name).value(s.median);
  json.key(name + "_min").value(s.min);
  json.key(name + "_max").value(s.max);
}

double elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

// ------------------------------------------------------------- scaling

/// Periodic traffic over `streams` receivers: stream s sees sender
/// (s + round) % 1024 and sizes cycling over five powers of two — signal
/// the predictors genuinely chew on, unlike white noise.
std::vector<engine::Event> scaling_trace(std::size_t events, std::size_t streams) {
  std::vector<engine::Event> out;
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

// Defaults: 1M events over 100k per-receiver streams, 10 per stream; sweep
// shards {1, 2, 4, 8, hw}. `--shards <n>` measures that count against 1.
void scaling(const Options& opts, bench::JsonWriter& json) {
  const std::size_t events_n = opts.events.value_or(1'000'000);
  const std::size_t streams_n = opts.streams.value_or(100'000);
  const std::size_t fixed_shards = opts.shards.value_or(0);
  const std::size_t hw = engine::effective_shard_count(0);
  std::vector<std::size_t> counts = {1, 2, 4, 8, hw};
  if (fixed_shards != 0) {
    counts = {1, engine::effective_shard_count(fixed_shards)};
  }
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  std::printf("engine scaling: %zu events, %zu streams, predictor %s, %zu hardware threads, "
              "median of %zu runs\n\n",
              events_n, streams_n, opts.predictor.c_str(), hw, kRepeats);
  const auto events = scaling_trace(events_n, streams_n);

  std::printf("%8s %10s %12s %9s %21s\n", "shards", "seconds", "events/s", "speedup",
              "fastest..slowest s");
  json.key("config").begin_object();
  json.key("predictor").value(opts.predictor);
  json.key("events").value(events_n);
  json.key("streams").value(streams_n);
  json.key("repeats").value(kRepeats);
  json.key("hardware_threads").value(hw);
  json.end_object();
  json.key("shards").begin_array();
  engine::EngineReport report;
  double one_shard_s = 0.0;  // counts are sorted, so 1 comes first
  for (const std::size_t shards : counts) {
    std::vector<double> seconds;
    for (std::size_t rep = 0; rep < kRepeats; ++rep) {
      engine::PredictionEngine eng(
          engine::EngineConfig{.predictor = opts.predictor, .shards = shards});
      const auto start = Clock::now();
      eng.observe_all(events);
      seconds.push_back(elapsed_ns(start, Clock::now()) * 1e-9);
      if (shards == 1 && rep == 0) {
        report = eng.report();
      }
    }
    const Spread row = spread(seconds);
    if (shards == 1) {
      one_shard_s = row.median;
    }
    std::printf("%8zu %10.3f %12.0f %8.2fx %10.3f..%-10.3f\n", shards, row.median,
                static_cast<double>(events_n) / row.median, one_shard_s / row.median, row.min,
                row.max);
    json.begin_object();
    json.key("shards").value(shards);
    json.key("median_s").value(row.median);
    json.key("min_s").value(row.min);
    json.key("max_s").value(row.max);
    json.key("events_per_s").value(static_cast<double>(events_n) / row.median);
    json.key("speedup").value(one_shard_s / row.median);
    json.end_object();
  }
  json.end_array();

  const double state_mib =
      static_cast<double>(report.total_footprint_bytes) / (1024.0 * 1024.0);
  std::printf("\n%zu streams, %.1f MiB stream state\n", report.streams.size(), state_mib);
  if (hw == 1) {
    std::printf("(single hardware thread: speedups need a multi-core host)\n");
  }
  json.key("stream_state_bytes").value(report.total_footprint_bytes);
  json.key("stream_state_mib").value(state_mib);
}

// ------------------------------------------------------------- latency

// Feeds below engine::kMinParallelBatch (512) events run inline on the
// caller's thread; larger ones are drained by the resident worker pool.
// The single-event row measures the first, the batch sweep brackets the
// floor (rows at a quarter, half, one and two times it) and the
// multi-tenant phase interleaves 512-event sessions over one shared pool.
// The floor is the measured crossover (its comment in engine/shard.hpp
// gives the figures). Run both predictors (`--predictor last-value`) after
// any change to the feed path: at and above the floor no row may drain
// slower pooled than inline.

std::vector<engine::Event> latency_trace(std::size_t nevents, std::int32_t ndestinations) {
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

/// Each run's p50, p99 and mean over its per-feed samples, in run order.
struct Percentiles {
  std::vector<double> p50_ns;
  std::vector<double> p99_ns;
  std::vector<double> mean_ns;

  void add_run(std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    const auto at = [&](double q) {
      return samples[static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1) + 0.5)];
    };
    p50_ns.push_back(at(0.50));
    p99_ns.push_back(at(0.99));
    mean_ns.push_back(std::accumulate(samples.begin(), samples.end(), 0.0) /
                      static_cast<double>(samples.size()));
  }
};

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

/// A percentile row: the median of each figure over the runs, and the
/// spread of p50 (the headline figure).
void write_percentiles(bench::JsonWriter& json, const char* name, const Percentiles& runs,
                       std::size_t samples) {
  json.key(name).begin_object();
  write_spread(json, "p50_ns", spread(runs.p50_ns));
  json.key("p99_ns").value(spread(runs.p99_ns).median);
  json.key("mean_ns").value(spread(runs.mean_ns).median);
  json.key("samples").value(samples);
  json.end_object();
}

constexpr std::size_t kTenantBatch = 512;

/// One multi-tenant run: `tenants` sessions of one fresh server feed the
/// same `kTenantBatch`-event slice round-robin before the next slice, so
/// feeds of different namespaces genuinely interleave. Returns the wall
/// time of each feed.
std::vector<double> timed_tenant_feeds(const engine::EngineConfig& cfg,
                                       std::span<const engine::Event> events,
                                       std::size_t tenants) {
  serve::PredictionServer server({.engine = cfg});
  std::vector<std::shared_ptr<serve::Session>> sessions;
  for (std::size_t t = 0; t < tenants; ++t) {
    sessions.push_back(server.open_session());
  }
  std::vector<double> samples;
  for (std::size_t off = 0; off < events.size(); off += kTenantBatch) {
    const auto slice = events.subspan(off, std::min(kTenantBatch, events.size() - off));
    for (const auto& session : sessions) {
      const auto start = Clock::now();
      session->observe_all(slice);
      samples.push_back(elapsed_ns(start, Clock::now()));
    }
  }
  return samples;
}

void latency(const Options& opts, bench::JsonWriter& json) {
  const std::size_t shards = engine::effective_shard_count(opts.shards.value_or(4));
  const std::size_t nevents = opts.events.value_or(20000);
  const std::size_t tenants = opts.tenants.value_or(4);
  const auto events = latency_trace(nevents, 32);
  const engine::EngineConfig cfg{.predictor = opts.predictor, .shards = shards};

  std::printf("engine latency — predictor=%s shards=%zu events=%zu tenants=%zu, "
              "median of %zu runs\n\n",
              opts.predictor.c_str(), shards, nevents, tenants, kRepeats);
  constexpr std::size_t kFloor = engine::kMinParallelBatch;
  json.key("config").begin_object();
  json.key("predictor").value(opts.predictor);
  json.key("shards").value(shards);
  json.key("events").value(nevents);
  json.key("tenants").value(tenants);
  json.key("repeats").value(kRepeats);
  json.key("dispatch_floor").value(kFloor);
  json.end_object();

  // Batch sweep rows: fixed sizes plus four bracketing the dispatch floor,
  // so the sweep shows the inline/pooled crossover at whatever value the
  // floor has; 0 (one unbounded feed) last.
  std::vector<std::size_t> batch_sizes = {
      1, 64, kFloor / 4, kFloor / 2, kFloor, 2 * kFloor, 4096, 32768};
  std::sort(batch_sizes.begin(), batch_sizes.end());
  batch_sizes.erase(std::unique(batch_sizes.begin(), batch_sizes.end()), batch_sizes.end());
  batch_sizes.push_back(0);

  // Repeat-major: each repeat times every row once, each on fresh state,
  // before the next repeat starts, so a slow phase of the host spreads
  // over all rows instead of biasing one row's runs.
  Percentiles single_runs;  // one observe_all() per arriving message
  std::vector<Percentiles> batch_runs(batch_sizes.size());
  std::vector<std::size_t> batch_feeds(batch_sizes.size());
  Percentiles tenant_runs;
  std::size_t tenant_feeds = 0;
  for (std::size_t rep = 0; rep < kRepeats; ++rep) {
    {
      engine::PredictionEngine single_engine(cfg);
      single_runs.add_run(timed_feed(single_engine, events, 1));
    }
    for (std::size_t row = 0; row < batch_sizes.size(); ++row) {
      engine::PredictionEngine eng(cfg);
      auto samples = timed_feed(eng, events, batch_sizes[row]);
      batch_feeds[row] = samples.size();
      batch_runs[row].add_run(std::move(samples));
    }
    auto samples = timed_tenant_feeds(cfg, events, tenants);
    tenant_feeds = samples.size();
    tenant_runs.add_run(std::move(samples));
  }

  // --- Single-event observe. ----------------------------------------------
  const Spread single_p50 = spread(single_runs.p50_ns);
  std::printf("single-event  p50 %9.0f ns (%.0f..%.0f)   p99 %9.0f ns   mean %9.0f ns\n\n",
              single_p50.median, single_p50.min, single_p50.max,
              spread(single_runs.p99_ns).median, spread(single_runs.mean_ns).median);
  write_percentiles(json, "single_event", single_runs, nevents);

  // --- Batch sweep: per-event cost vs batch size. ------------------------
  json.key("batch_sweep").begin_array();
  for (std::size_t row = 0; row < batch_sizes.size(); ++row) {
    const std::size_t batch = batch_sizes[row];
    const Percentiles& per_feed = batch_runs[row];
    const std::size_t feeds = batch_feeds[row];
    // Total time over total events — correct even when the last feed is
    // a partial batch or the batch size exceeds the event count.
    std::vector<double> per_event_runs;
    for (const double mean : per_feed.mean_ns) {
      per_event_runs.push_back(mean * static_cast<double>(feeds) / static_cast<double>(nevents));
    }
    const double p50 = spread(per_feed.p50_ns).median;
    const double p99 = spread(per_feed.p99_ns).median;
    const Spread per_event = spread(per_event_runs);  // the headline figure
    std::printf("batch %9s  feeds %6zu  p50/feed %12.0f ns  p99/feed %12.0f ns   "
                "mean/event %8.1f ns (%.1f..%.1f)\n",
                batch == 0 ? "unbounded" : std::to_string(batch).c_str(), feeds, p50, p99,
                per_event.median, per_event.min, per_event.max);
    json.begin_object();
    json.key("batch_events").value(batch);
    json.key("feeds").value(feeds);
    json.key("p50_ns_per_feed").value(p50);
    json.key("p99_ns_per_feed").value(p99);
    write_spread(json, "mean_ns_per_event", per_event);
    json.end_object();
  }
  json.end_array();

  // --- Multi-tenant: interleaved sessions through one server. ------------
  const Spread tenant_p50 = spread(tenant_runs.p50_ns);
  std::printf("\nmulti-tenant (%zu sessions, %zu-event feeds): p50 %9.0f ns (%.0f..%.0f)   "
              "p99 %9.0f ns\n",
              tenants, kTenantBatch, tenant_p50.median, tenant_p50.min, tenant_p50.max,
              spread(tenant_runs.p99_ns).median);
  json.key("multi_tenant").begin_object();
  json.key("sessions").value(tenants);
  json.key("batch_events").value(kTenantBatch);
  write_percentiles(json, "per_feed", tenant_runs, tenant_feeds);
  json.end_object();
}

// ------------------------------------------------------------ overhead

constexpr std::size_t kPeriod = 18;   // the overhead stream is 0, 1, ..., 17, 0, ...
constexpr std::size_t kHorizons = 5;  // the lookahead an MPI library refreshes per receive

/// ns per message of one run over `stream` on a fresh predictor: observe()
/// each value and, with `horizons` > 0, ask predict(1..horizons) after it.
/// Sets `footprint` to the predictor's footprint_bytes() after the run.
double ns_per_message(const std::string& name, const engine::PredictorOptions& options,
                      std::span<const std::int64_t> stream, std::size_t horizons,
                      std::size_t& footprint) {
  const auto predictor = engine::make_predictor(name, options);
  core::Predictor::Value sink = 0;
  const auto start = Clock::now();
  for (const std::int64_t value : stream) {
    predictor->observe(value);
    for (std::size_t h = 1; h <= horizons; ++h) {
      sink += predictor->predict(h).value_or(0);
    }
  }
  const auto stop = Clock::now();
  // The empty asm reads the sum of every prediction, so the compiler must
  // keep each predict() call the loop times.
  asm volatile("" : : "r"(sink));
  footprint = predictor->footprint_bytes();
  return elapsed_ns(start, stop) / static_cast<double>(stream.size());
}

void overhead(const Options& opts, bench::JsonWriter& json) {
  const std::size_t nevents = opts.events.value_or(200'000);
  std::vector<std::int64_t> stream(nevents);
  for (std::size_t i = 0; i < nevents; ++i) {
    stream[i] = static_cast<std::int64_t>(i % kPeriod);
  }

  std::printf("predictor overhead: %zu observations of a period-%zu stream per run, "
              "predict(1..%zu), median of %zu runs\n\n",
              nevents, kPeriod, kHorizons, kRepeats);
  std::printf("%-20s %11s %18s %11s %18s %10s\n", "predictor", "observe ns", "fastest..slowest",
              "+predict ns", "fastest..slowest", "state B");
  json.key("config").begin_object();
  json.key("events").value(nevents);
  json.key("period").value(kPeriod);
  json.key("horizons").value(kHorizons);
  json.key("repeats").value(kRepeats);
  json.end_object();
  json.key("predictors").begin_array();

  // Every builtin predictor at its defaults, then the DPD lag-table sweep
  // (observe() is O(max_period) per sample); max_period 0 = the defaults.
  std::vector<std::pair<std::string, std::size_t>> rows;
  for (const std::string& name : engine::builtin_predictor_names()) {
    rows.emplace_back(name, 0);
  }
  for (const std::size_t max_period : {64, 128, 256}) {
    rows.emplace_back("dpd", max_period);
  }
  for (const auto& [name, max_period] : rows) {
    engine::PredictorOptions options;
    if (max_period != 0) {
      options.dpd.max_period = max_period;
      options.dpd.window = 2 * max_period + 16;
    }
    std::vector<double> observe_runs;
    std::vector<double> predict_runs;
    std::size_t footprint = 0;
    for (std::size_t rep = 0; rep < kRepeats; ++rep) {
      observe_runs.push_back(ns_per_message(name, options, stream, 0, footprint));
      predict_runs.push_back(ns_per_message(name, options, stream, kHorizons, footprint));
    }
    const Spread observe = spread(observe_runs);
    const Spread predict = spread(predict_runs);
    const std::string label =
        max_period == 0 ? name : name + " max_period=" + std::to_string(max_period);
    std::printf("%-20s %11.1f %8.1f..%-8.1f %11.1f %8.1f..%-8.1f %10zu\n", label.c_str(),
                observe.median, observe.min, observe.max, predict.median, predict.min,
                predict.max, footprint);
    json.begin_object();
    json.key("predictor").value(name);
    if (max_period != 0) {
      json.key("max_period").value(max_period);
    }
    write_spread(json, "observe_ns", observe);
    write_spread(json, "observe_predict_ns", predict);
    json.key("footprint_bytes").value(footprint);
    json.end_object();
  }
  json.end_array();
}

// ------------------------------------------------------------- dispatch

struct Section {
  std::string_view name;
  const char* summary;
  std::string_view flags;  // every flag the section takes, as --help prints them
  const char* artifact;    // the "bench" member of its --out JSON
  void (*run)(const Options& opts, bench::JsonWriter& json);
};

// In the order a run without section names prints them in.
constexpr std::array kSections{
    Section{"scaling", "sharded-engine throughput over shard counts (1M events, 100k streams)",
            "--predictor <name> --shards <n> --events <n> --streams <n> --out <file>",
            "engine_scaling", scaling},
    Section{"latency", "per-feed latency: single events, batch sweep, multi-tenant sessions",
            "--predictor <name> --shards <n> --events <n> --tenants <n> --out <file>",
            "engine_latency", latency},
    Section{"overhead", "§4.2 ns per observe and observe+predict, every builtin predictor",
            "--events <n> --out <file>", "predictor_overhead", overhead},
};

/// Every flag in Section::flags is followed by its value placeholder.
bool takes(const Section& section, std::string_view flag) {
  return section.flags.find(std::string(flag) + " <") != std::string_view::npos;
}

std::string usage() {
  std::string text =
      "usage: bench_engine [section...] [flags] [--list-predictors]\n"
      "Times the named sections in the given order, or every section. A flag\n"
      "needs sections that all take it; --out <file> writes one named section's\n"
      "table as JSON with the host block.\n\nsections:\n";
  for (const Section& s : kSections) {
    text += "  " + std::string(s.name) + std::string(10 - s.name.size(), ' ') + s.summary +
            "\n" + std::string(12, ' ') + std::string(s.flags) + "\n";
  }
  return text;
}

int run(int argc, char** argv) {
  engine::PredictorArg arg = bench::predictor_arg(argc, argv);
  std::vector<std::string>& rest = arg.rest;
  // The flags given, each checked below against every selected section.
  std::vector<std::string_view> given;
  for (const std::string_view flag :
       {"--predictor", "--shards", "--events", "--streams", "--tenants", "--out"}) {
    if (std::any_of(argv + 1, argv + argc, [flag](std::string_view a) {
          return a == flag || (a.starts_with(flag) && a.substr(flag.size()).starts_with('='));
        })) {
      given.push_back(flag);
    }
  }
  const std::string out = bench::string_flag(rest, "--out");
  const auto count_flag = [&](std::string_view flag) -> std::optional<std::size_t> {
    if (std::ranges::find(given, flag) == given.end()) {
      return std::nullopt;
    }
    const std::size_t value = bench::size_flag(rest, std::string(flag), 0);
    if (value == 0 && flag != "--shards") {
      throw UsageError(std::string(flag) + " must be at least 1");
    }
    return value;
  };
  const Options opts{.predictor = arg.name,
                     .shards = count_flag("--shards"),
                     .events = count_flag("--events"),
                     .streams = count_flag("--streams"),
                     .tenants = count_flag("--tenants")};

  std::vector<const Section*> selected;
  for (const std::string& name : rest) {
    const auto* it = std::ranges::find(kSections, std::string_view(name), &Section::name);
    if (it == kSections.end()) {
      throw UsageError("unknown section or flag '" + name + "' (try --help)");
    }
    selected.push_back(it);
  }
  if (!out.empty() && selected.size() != 1) {
    throw UsageError("--out needs exactly one named section");
  }
  if (selected.empty()) {
    for (const Section& s : kSections) {
      selected.push_back(&s);
    }
  }
  for (const std::string_view flag : given) {
    for (const Section* s : selected) {
      if (!takes(*s, flag)) {
        throw UsageError(std::string(flag) + " does not go with section '" +
                         std::string(s->name) + "' (try --help)");
      }
    }
  }
  if (bench::list_predictors(arg)) {
    return 0;
  }

  for (const Section* s : selected) {
    if (s != selected.front()) {
      std::printf("\n");
    }
    bench::JsonWriter json;
    json.begin_object();
    json.key("bench").value(s->artifact);
    if (!out.empty()) {
      bench::write_host_block(json, {});  // the synthetic workloads draw no seed
    }
    s->run(opts, json);
    json.end_object();
    if (!out.empty()) {
      bench::write_file(out, json.str() + "\n");
      std::printf("\nwrote %s\n", out.c_str());
    }
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::cli_main(argc, argv, usage().c_str(), run);
}
