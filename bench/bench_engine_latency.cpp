// Latency benchmark of the prediction service on its production path:
// per-event observe latency of the resident engine, measured end to end
// at the call boundary a consumer actually pays — one observe_all() per
// arriving message for the online path, batched feeds for replay, and
// multi-tenant sessions through a PredictionServer.
//
// Feeds below engine::kMinParallelBatch events run inline on the caller's
// thread; larger ones are partitioned and drained by the resident worker
// pool. The single-event row measures the first, the batch sweep crosses
// the threshold, and the multi-tenant phase interleaves sessions over one
// shared pool.
//
// Gate (exit 2): every batch size must produce a report byte-identical to
// the single-event run's.
//
//   $ ./bench/bench_engine_latency [--predictor <name>] [--shards <n>]
//       [--events <n>] [--tenants <n>] [--out <file>]
//
// Writes BENCH_engine_latency.json (no timestamps — diffable modulo the
// measured nanosecond values themselves).

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

void write_percentiles(bench::JsonWriter& json, const char* name, const Percentiles& p,
                       std::size_t samples) {
  json.key(name).begin_object();
  json.key("p50_ns").value(p.p50_ns);
  json.key("p99_ns").value(p.p99_ns);
  json.key("mean_ns").value(p.mean_ns);
  json.key("samples").value(samples);
  json.end_object();
}

int fail_gate(const char* what) {
  std::fprintf(stderr, "GATE FAILED: %s\n", what);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  auto arg = engine::predictor_arg_or_exit(argc, argv, "dpd");
  const std::size_t shards = bench::shards_flag(arg.rest, 4);
  const std::size_t nevents = bench::size_flag(arg.rest, "--events", 20000);
  const std::size_t tenants = bench::size_flag(arg.rest, "--tenants", 4);
  std::string out_path = bench::string_flag(arg.rest, "--out");
  if (out_path.empty()) {
    out_path = "BENCH_engine_latency.json";
  }
  if (!arg.rest.empty()) {
    std::fprintf(stderr, "unexpected argument '%s'\n", arg.rest.front().c_str());
    return 1;
  }
  const std::size_t eff_shards = engine::effective_shard_count(shards);
  const auto events = synthetic_trace(nevents, 32);

  const engine::EngineConfig cfg{.predictor = arg.name, .shards = eff_shards};

  std::printf("engine latency — predictor=%s shards=%zu events=%zu tenants=%zu\n\n", //
              arg.name.c_str(), eff_shards, nevents, tenants);

  // --- Single-event observe: one observe_all() per arriving message. -----
  engine::PredictionEngine single_engine(cfg);
  auto single_samples = timed_feed(single_engine, events, 1);
  const Percentiles single = percentiles(single_samples);
  const engine::EngineReport reference = single_engine.report();
  std::printf("single-event  p50 %9.0f ns   p99 %9.0f ns   mean %9.0f ns\n\n", single.p50_ns,
              single.p99_ns, single.mean_ns);

  // --- Batch sweep: per-event cost vs batch size. ------------------------
  const std::size_t batch_sizes[] = {1, 64, 512, 4096, 32768, 0};
  struct BatchRow {
    std::size_t batch = 0;
    Percentiles per_feed;
    double mean_ns_per_event = 0.0;
    std::size_t feeds = 0;
  };
  std::vector<BatchRow> sweep;
  for (const std::size_t batch : batch_sizes) {
    engine::PredictionEngine eng(cfg);
    auto samples = timed_feed(eng, events, batch);
    if (eng.report() != reference) {
      return fail_gate("batch size changed the report");
    }
    BatchRow row;
    row.batch = batch;
    row.feeds = samples.size();
    row.per_feed = percentiles(samples);
    // Total time over total events — correct even when the last feed is a
    // partial batch or the batch size exceeds the event count.
    row.mean_ns_per_event =
        row.per_feed.mean_ns * static_cast<double>(row.feeds) / static_cast<double>(events.size());
    sweep.push_back(row);
    std::printf("batch %9s  feeds %6zu  p99/feed %12.0f ns   mean/event %8.1f ns\n",
                batch == 0 ? "unbounded" : std::to_string(batch).c_str(), row.feeds,
                row.per_feed.p99_ns, row.mean_ns_per_event);
  }

  // --- Multi-tenant: interleaved sessions through one server. ------------
  serve::PredictionServer server({.engine = cfg});
  std::vector<std::shared_ptr<serve::Session>> sessions;
  for (std::size_t t = 0; t < tenants; ++t) {
    sessions.push_back(server.open_session());
  }
  std::vector<double> tenant_samples;
  constexpr std::size_t kTenantBatch = 512;
  const std::span<const engine::Event> all(events);
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
  const std::size_t tenant_feeds = tenant_samples.size();
  const Percentiles tenant = percentiles(tenant_samples);
  std::printf("\nmulti-tenant (%zu sessions, %zu-event feeds): p50 %9.0f ns   p99 %9.0f ns\n",
              tenants, kTenantBatch, tenant.p50_ns, tenant.p99_ns);

  // --- Artifact. ---------------------------------------------------------
  bench::JsonWriter json;
  json.begin_object();
  json.key("bench").value("engine_latency");
  json.key("config").begin_object();
  json.key("predictor").value(arg.name);
  json.key("shards").value(eff_shards);
  json.key("events").value(nevents);
  json.key("tenants").value(tenants);
  json.end_object();
  write_percentiles(json, "single_event", single, nevents);
  json.key("batch_sweep").begin_array();
  for (const BatchRow& row : sweep) {
    json.begin_object();
    json.key("batch_events").value(row.batch);
    json.key("feeds").value(row.feeds);
    json.key("p50_ns_per_feed").value(row.per_feed.p50_ns);
    json.key("p99_ns_per_feed").value(row.per_feed.p99_ns);
    json.key("mean_ns_per_event").value(row.mean_ns_per_event);
    json.end_object();
  }
  json.end_array();
  json.key("multi_tenant").begin_object();
  json.key("sessions").value(tenants);
  json.key("batch_events").value(kTenantBatch);
  write_percentiles(json, "per_feed", tenant, tenant_feeds);
  json.end_object();
  json.key("gates").begin_object();
  json.key("batch_sizes_report_identical").value(true);
  json.end_object();
  json.end_object();

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "%s\n", json.str().c_str());
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
