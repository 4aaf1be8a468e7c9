// The repository benchmark's driver: one repetition of one workload, timed
// from outside the library around its public calls. run.py starts one
// process per repetition, checks the outputs and aggregates the numbers;
// README.md lists the workloads, the metrics and why each exists.
//
//   $ bench_suite run --workload <name> --seed <n> [--smoke] [--inputs <dir>]
//                     [--trace-out <file> | --setup-only]
//   $ bench_suite generate --workload <name> --seed <n> --inputs <dir> [--smoke]
//   $ bench_suite host
//
// `run` prints one JSON line: wall seconds, peak RSS, the share of senders
// anticipated, the workload's own extras, per-layer counts and rates, the
// checks it made, and FNV-1a fingerprints of every prediction-bearing
// output. `--trace-out` also keeps a host-clock span around every library
// call (in memory, written as Chrome trace-event JSON when the repetition
// ends), adds per-layer self-time shares, and runs the single-layer probes.
// `--setup-only` builds the set-up, prints its seconds and stops. `generate`
// writes the inputs of replay-lu16 or serve-32k; `host` prints the compiler
// and build type for the results' host block.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "adaptive/policy.hpp"
#include "apps/app.hpp"
#include "apps/registry.hpp"
#include "core/accuracy.hpp"
#include "engine/engine.hpp"
#include "engine/registry.hpp"
#include "ingest/streaming.hpp"
#include "mpi/world.hpp"
#include "serve/server.hpp"
#include "sim/rng.hpp"
#include "trace/csv.hpp"
#include "trace/merge.hpp"

namespace {

using namespace mpipred;

constexpr int kRanks = 16;
constexpr std::size_t kHorizon = 5;  // PredictorOptions' default, as every session uses
constexpr std::size_t kReplayBatch = 8192;
constexpr std::size_t kServeSessions = 4;
constexpr std::size_t kServeFeedEvents = 512;
constexpr std::size_t kServeEventsPerStream = 32;
constexpr std::int64_t kFallbackCostNs = 20'000;

// ---------------------------------------------------------------- host clock

std::int64_t now_ns() {
  // mpipred-lint: allow(wall-clock) -- the benchmark measures host time around library calls
  const auto since_epoch = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(since_epoch).count();
}

double seconds(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}

/// num / den, or 0 when nothing was measured (a layer the workload bypasses).
double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

double median(std::vector<double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

/// Nearest-rank percentile (q in (0, 1]) of a non-empty sample.
double percentile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

// --------------------------------------------------------------------- spans

/// One timed library call. `parent` indexes the enclosing span (-1 at top
/// level); `tid` is 1 on the main thread and 2 on run_into's producer.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int tid = 1;
};

/// Times library calls. time() always returns the host seconds a call
/// took; with tracing on it also keeps the call as a span under the
/// innermost span still open. Spans stay in memory until the run ends.
class Recorder {
 public:
  explicit Recorder(bool tracing) : tracing_(tracing) {}

  [[nodiscard]] bool tracing() const noexcept { return tracing_; }
  [[nodiscard]] int open_span() const noexcept { return open_.empty() ? -1 : open_.back(); }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  template <typename Fn>
  double time(std::string_view name, Fn&& fn) {
    const auto id = static_cast<int>(spans_.size());
    const std::int64_t start = now_ns();
    if (tracing_) {
      spans_.push_back(
          {.name = std::string(name), .start_ns = start, .end_ns = start, .parent = open_span()});
      open_.push_back(id);
    }
    fn();
    const std::int64_t end = now_ns();
    if (tracing_) {
      spans_[static_cast<std::size_t>(id)].end_ns = end;
      open_.pop_back();
    }
    return seconds(end - start);
  }

  /// Appends spans another thread recorded, after that thread joined.
  void adopt(std::vector<Span> spans) {
    spans_.insert(spans_.end(), std::make_move_iterator(spans.begin()),
                  std::make_move_iterator(spans.end()));
  }

 private:
  bool tracing_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times every next_batch of the wrapped stream as an `ingest.next_batch`
/// span. run_into pulls one batch at a time and joins its producer thread
/// before it returns, so the spans need no lock.
class TimedStream final : public ingest::EventStream {
 public:
  TimedStream(ingest::EventStream& inner, int parent)
      : inner_(&inner), parent_(parent), main_thread_(std::this_thread::get_id()) {}

  std::size_t next_batch(std::size_t max_events, std::vector<ingest::TimedEvent>& out) override {
    const std::int64_t start = now_ns();
    const std::size_t n = inner_->next_batch(max_events, out);
    spans_.push_back({.name = "ingest.next_batch",
                      .start_ns = start,
                      .end_ns = now_ns(),
                      .parent = parent_,
                      .tid = std::this_thread::get_id() == main_thread_ ? 1 : 2});
    busy_ns_ += spans_.back().end_ns - start;
    return n;
  }
  [[nodiscard]] bool time_ordered() const noexcept override { return inner_->time_ordered(); }

  [[nodiscard]] double busy_s() const noexcept { return seconds(busy_ns_); }
  [[nodiscard]] std::vector<Span> take_spans() { return std::move(spans_); }

 private:
  ingest::EventStream* inner_;
  int parent_;
  std::thread::id main_thread_;
  std::vector<Span> spans_;
  std::int64_t busy_ns_ = 0;
};

/// Self seconds per layer under `root`: each span's duration minus the part
/// of it its children cover, summed by the span name's prefix before the
/// dot. The root's own self time is harness glue, reported "unattributed".
std::map<std::string, double> self_seconds_by_layer(const std::vector<Span>& spans, int root) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(static_cast<int>(i));
    }
  }
  std::map<std::string, double> out;
  std::vector<int> todo{root};
  while (!todo.empty()) {
    const int id = todo.back();
    todo.pop_back();
    const Span& span = spans[static_cast<std::size_t>(id)];
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (const int child : children[static_cast<std::size_t>(id)]) {
      const Span& c = spans[static_cast<std::size_t>(child)];
      cover.emplace_back(std::max(c.start_ns, span.start_ns), std::min(c.end_ns, span.end_ns));
      todo.push_back(child);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [begin, end] : cover) {
      const std::int64_t from = std::max(begin, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    const std::string layer =
        id == root ? "unattributed" : span.name.substr(0, span.name.find('.'));
    out[layer] += seconds(span.end_ns - span.start_ns - covered);
  }
  return out;
}

/// Chrome trace-event JSON: one complete (X) event per span, microseconds
/// from the first span, with the span's id and parent id as args.
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& label) {
  std::ofstream out(path);
  if (!out) {
    throw Error("cannot write " + path);
  }
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) {
    origin = std::min(origin, s.start_ns);
  }
  out << R"({"traceEvents":[{"ph":"M","pid":1,"tid":1,"name":"process_name","args":{"name":")"
      << label << "\"}}";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  R"(,{"ph":"X","pid":1,"tid":%d,"name":"%s","ts":%.3f,"dur":%.3f,)"
                  R"("args":{"id":%zu,"parent":%d}})",
                  s.tid, s.name.c_str(), static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
    out << '\n' << buf;
  }
  out << "]}\n";
}

// -------------------------------------------------------- checks and results

/// FNV-1a over the prediction-bearing outputs: accuracy counts, event
/// counts, simulated times, payload checksums and protocol counters. Host
/// times and memory footprints stay out, so a faster or smaller program
/// keeps its fingerprint and a changed prediction does not.
class Fingerprint {
 public:
  void add(std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h_ ^= (u >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void add(const core::AccuracyReport& r) {
    add(static_cast<std::int64_t>(r.horizons.size()));
    for (const auto& h : r.horizons) {
      add(h.hits);
      add(h.misses);
      add(h.unpredicted);
    }
  }
  void add(const engine::EngineReport& r) {
    add(r.events);
    add(static_cast<std::int64_t>(r.streams.size()));
    for (const auto& s : r.streams) {
      add(s.key.source);
      add(s.key.destination);
      add(s.key.tag);
      add(s.events);
      add(s.senders);
      add(s.sizes);
    }
    add(r.aggregate_senders);
    add(r.aggregate_sizes);
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Messages whose sender was anticipated, summed over reports so several
/// levels, streams or sessions give one share.
struct HitCount {
  std::int64_t hits = 0;
  std::int64_t total = 0;

  void add(const core::AccuracyReport& r) {
    hits += r.at(1).hits;
    total += r.at(1).total();
  }
  [[nodiscard]] double pct() const { return ratio(100.0 * static_cast<double>(hits), total); }
};

struct Result {
  /// Set by set-up-only runs alone; see timed_setup.
  double setup_s = 0.0;
  double wall_s = 0.0;
  /// Share of received messages whose sender the workload's prediction
  /// anticipated: +1 sender accuracy, or the adaptive loop's pre-post hits.
  double sender_hit_pct = 0.0;
  /// Workload-specific end-to-end metrics (events_per_s, feed latencies...).
  std::map<std::string, double> extra;
  /// Per-layer counts and rates; run.py reports a layer a workload bypasses
  /// as 0.
  std::map<std::string, double> layers;
  std::int64_t attempted = 0;
  std::vector<std::string> failures;
  Fingerprint fingerprint;
  /// The logical-level reports alone: a pure function of the program, so
  /// one golden value holds for every seed. Empty where there is none.
  std::string logical_fingerprint;

  void expect(bool ok, std::string what) {
    ++attempted;
    if (!ok) {
      failures.push_back(std::move(what));
    }
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 2003;
  bool smoke = false;
  std::string inputs;
  std::string trace_out;
  /// Build the set-up objects, report setup_s, and stop. setup_s comes from
  /// these runs only; a full repetition builds its set-up once and reports
  /// none.
  bool setup_only = false;
};

/// Builds a workload's set-up object as a `name` span. A set-up-only run
/// also adds the construction time to setup_s. Set-ups take microseconds to
/// a second, so there a cheap one is built again until 50 ms or 25 builds
/// are spent and its median build counts: a microsecond set-up still reads
/// steadily.
template <typename Make>
auto timed_setup(const Options& opt, Recorder& rec, Result& r, std::string_view name, Make&& make) {
  decltype(make()) built{};
  if (!opt.setup_only) {
    rec.time(name, [&] { built = make(); });
    return built;
  }
  std::vector<double> trials;
  double spent = 0.0;
  do {
    built = {};
    trials.push_back(rec.time(name, [&] { built = make(); }));
    spent += trials.back();
  } while (spent < 0.05 && trials.size() < 25);
  r.setup_s += median(trials);
  return built;
}

apps::ProblemClass problem_class(const Options& opt) {
  return opt.smoke ? apps::ProblemClass::S : apps::ProblemClass::A;
}

struct Service {
  std::unique_ptr<serve::PredictionServer> server;
  std::vector<std::shared_ptr<serve::Session>> sessions;
};

Service open_service(const char* predictor, std::size_t shards, std::size_t sessions) {
  serve::ServeConfig cfg;
  cfg.engine.predictor = predictor;
  cfg.engine.shards = shards;
  Service svc{.server = std::make_unique<serve::PredictionServer>(cfg), .sessions = {}};
  for (std::size_t i = 0; i < sessions; ++i) {
    svc.sessions.push_back(svc.server->open_session());
  }
  return svc;
}

/// Records of `level` the trace holds with a resolved sender: what the
/// engine is fed.
std::int64_t resolved_records(const trace::TraceStore& store, trace::Level level) {
  std::int64_t n = 0;
  for (int rank = 0; rank < store.nranks(); ++rank) {
    for (const trace::Record& rec : store.records(rank, level)) {
      n += rec.sender != trace::kUnresolvedSender ? 1 : 0;
    }
  }
  return n;
}

void add_world_layers(mpi::World& world, Result& r) {
  const sim::EngineStats& st = world.engine().stats();
  r.layers["sim.events"] += static_cast<double>(st.events_processed);
  r.layers["sim.context_switches"] += static_cast<double>(st.context_switches);
  r.layers["sim.idle_polls"] += static_cast<double>(st.idle_polls);
  r.layers["mpi.progress_tasks"] += static_cast<double>(world.aggregate_progress_stats().executed);
  r.layers["mpi.unexpected_arrivals"] +=
      static_cast<double>(world.aggregate_counters().unexpected_arrivals);
}

void add_engine_layers(const engine::EngineReport& report, Result& r) {
  r.layers["engine.streams"] += static_cast<double>(report.streams.size());
  r.layers["engine.state_bytes"] += static_cast<double>(report.total_footprint_bytes);
}

/// The events of the receiver with the most events (lowest rank on ties).
std::vector<engine::Event> busiest_stream(std::span<const engine::Event> events) {
  std::map<std::int32_t, std::int64_t> counts;
  for (const engine::Event& e : events) {
    ++counts[e.destination];
  }
  std::int32_t best = 0;
  std::int64_t best_count = -1;
  for (const auto& [dst, n] : counts) {
    if (n > best_count) {
      best = dst;
      best_count = n;
    }
  }
  std::vector<engine::Event> out;
  for (const engine::Event& e : events) {
    if (e.destination == best) {
      out.push_back(e);
    }
  }
  return out;
}

/// The predictor layer alone, single-threaded: per receiver stream of
/// `events`, a fresh sender/size predictor pair scored by AccuracyEvaluator
/// (h = 5), with no engine, shard or service around it. Records
/// `core.<label>_events_per_s`.
void core_probe(Recorder& rec, Result& r, const char* predictor, const std::string& label,
                std::span<const engine::Event> events) {
  std::map<std::int32_t, std::vector<engine::Event>> streams;
  for (const engine::Event& e : events) {
    streams[e.destination].push_back(e);
  }
  const double secs = rec.time("probe.core_" + label, [&] {
    for (const auto& [dst, stream] : streams) {
      const auto senders = engine::make_predictor(predictor);
      const auto sizes = engine::make_predictor(predictor);
      core::AccuracyEvaluator sender_eval(*senders, kHorizon);
      core::AccuracyEvaluator size_eval(*sizes, kHorizon);
      for (const engine::Event& e : stream) {
        sender_eval.observe(e.source);
        size_eval.observe(e.bytes);
      }
    }
  });
  r.layers["core." + label + "_events_per_s"] = ratio(static_cast<double>(events.size()), secs);
}

void core_probes(Recorder& rec, Result& r, std::span<const engine::Event> events) {
  core_probe(rec, r, "dpd", "dpd", events);
  core_probe(rec, r, "last-value", "lastvalue", events);
}

// ---------------------------------------------------------------- workloads

/// The paper pipeline: LU class A on 16 simulated ranks, then both trace
/// levels through one DPD session each.
void nas_lu16(const Options& opt, Recorder& rec, Result& r) {
  constexpr trace::Level kLevels[] = {trace::Level::Logical, trace::Level::Physical};
  std::unique_ptr<mpi::World> world;
  Service svc;
  apps::AppOutcome outcome;
  std::size_t fed[2] = {0, 0};
  std::vector<engine::Event> physical;
  engine::EngineReport reports[2];
  double sim_s = 0.0;
  double trace_s = 0.0;
  double observe_s[2] = {0.0, 0.0};
  double report_s = 0.0;
  rec.time("workload", [&] {
    world = timed_setup(opt, rec, r, "sim.world_setup", [&] {
      return std::make_unique<mpi::World>(kRanks, apps::paper_world_config(opt.seed));
    });
    svc = timed_setup(opt, rec, r, "serve.open_sessions", [] { return open_service("dpd", 4, 2); });
    if (opt.setup_only) {
      return;
    }
    sim_s = rec.time("sim.app_run", [&] {
      outcome = apps::find_app("lu").run(*world, {.problem_class = problem_class(opt)});
    });
    for (std::size_t i = 0; i < 2; ++i) {
      std::vector<engine::Event> events;
      trace_s += rec.time("trace.events_from_trace", [&] {
        events = engine::events_from_trace(world->traces(), kLevels[i]);
      });
      observe_s[i] = rec.time("serve.observe_all", [&] { svc.sessions[i]->observe_all(events); });
      report_s += rec.time("serve.report", [&] { reports[i] = svc.sessions[i]->report(); });
      fed[i] = events.size();
      if (kLevels[i] == trace::Level::Physical) {
        physical = std::move(events);
      }
    }
  });
  if (opt.setup_only) {
    return;
  }
  r.wall_s = sim_s + trace_s + observe_s[0] + observe_s[1] + report_s;

  HitCount hits;
  Fingerprint logical;
  r.expect(outcome.verified, "lu: application invariant failed");
  r.fingerprint.add(static_cast<std::int64_t>(outcome.combined_checksum()));
  r.fingerprint.add(world->engine().stats().final_time.count());
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string name(to_string(kLevels[i]));
    const auto events = static_cast<std::int64_t>(fed[i]);
    r.expect(events == resolved_records(world->traces(), kLevels[i]),
             name + ": events fed differ from the records the run generated");
    r.expect(reports[i].events == events, name + ": report counts differ from the events fed");
    r.fingerprint.add(reports[i]);
    hits.add(reports[i].aggregate_senders);
    add_engine_layers(reports[i], r);
  }
  logical.add(reports[0]);
  r.logical_fingerprint = logical.hex();
  r.sender_hit_pct = hits.pct();

  add_world_layers(*world, r);
  const auto records = static_cast<double>(fed[0] + fed[1]);
  r.layers["sim.events_per_s"] = ratio(r.layers["sim.events"], sim_s);
  r.layers["trace.records"] = records;
  r.layers["trace.records_per_s"] = ratio(records, trace_s);
  r.layers["serve.events_per_s"] = ratio(records, observe_s[0] + observe_s[1]);
  r.layers["serve.feeds"] = 2;
  r.layers["serve.resident_bytes"] = static_cast<double>(svc.server->stats().resident_bytes);

  if (rec.tracing()) {
    core_probes(rec, r, busiest_stream(physical));
    // The same physical feed through one shard: how well the four shards
    // of the session above split the work, and a shard-invariance check.
    Service seq = open_service("dpd", 1, 1);
    const double seq_s =
        rec.time("probe.engine_one_shard", [&] { seq.sessions[0]->observe_all(physical); });
    r.expect(seq.sessions[0]->report() == reports[1], "physical report differs at 1 shard");
    r.layers["engine.parallel_efficiency"] = seq_s / (4.0 * observe_s[1]);
  }
}

mpi::WorldConfig cg_world_config(std::uint64_t seed, bool adaptive) {
  mpi::WorldConfig cfg = apps::paper_world_config(seed);
  cfg.engine.network.fallback_cost = sim::SimTime{kFallbackCostNs};
  cfg.adaptive.enabled = adaptive;
  cfg.adaptive.per_stream_credits = adaptive;
  cfg.adaptive.policy.min_confidence = 0.0;
  cfg.adaptive.service.engine.shards = 1;
  return cfg;
}

/// The closed adaptive loop: CG class A on 16 ranks, static then adaptive,
/// for three consecutive seeds, with priced fallbacks.
void adaptive_cg16(const Options& opt, Recorder& rec, Result& r) {
  struct SeedRun {
    std::unique_ptr<mpi::World> static_world;
    std::unique_ptr<mpi::World> adaptive_world;
    apps::AppOutcome static_outcome;
    apps::AppOutcome adaptive_outcome;
  };
  std::vector<SeedRun> runs(3);
  double static_s = 0.0;
  double adaptive_s = 0.0;
  const auto& cg = apps::find_app("cg");
  // Class S sends as many messages as class A (only their sizes shrink),
  // so the smoke run also cuts the outer iterations.
  const apps::AppConfig app_cfg{.problem_class = problem_class(opt),
                                .iterations_override = opt.smoke ? 2 : 0};
  rec.time("workload", [&] {
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const mpi::WorldConfig static_cfg = cg_world_config(opt.seed + k, false);
      const mpi::WorldConfig adaptive_cfg = cg_world_config(opt.seed + k, true);
      runs[k].static_world = timed_setup(opt, rec, r, "sim.world_setup", [&] {
        return std::make_unique<mpi::World>(kRanks, static_cfg);
      });
      runs[k].adaptive_world = timed_setup(opt, rec, r, "sim.world_setup", [&] {
        return std::make_unique<mpi::World>(kRanks, adaptive_cfg);
      });
    }
    if (opt.setup_only) {
      return;
    }
    for (SeedRun& run : runs) {
      static_s += rec.time("sim.app_run",
                           [&] { run.static_outcome = cg.run(*run.static_world, app_cfg); });
      adaptive_s += rec.time("sim.app_run",
                             [&] { run.adaptive_outcome = cg.run(*run.adaptive_world, app_cfg); });
    }
  });
  if (opt.setup_only) {
    return;
  }
  r.wall_s = static_s + adaptive_s;

  std::vector<double> speedups;
  std::int64_t arrivals = 0;
  std::int64_t prepost_hits = 0;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const SeedRun& run = runs[k];
    mpi::World& stat = *run.static_world;
    mpi::World& adap = *run.adaptive_world;
    const std::string tag = "seed " + std::to_string(opt.seed + k) + ": ";
    const auto sc = stat.aggregate_counters();
    const auto ac = adap.aggregate_counters();
    const adaptive::PolicyStats& ps = adap.adaptive_policy()->stats();
    r.expect(run.static_outcome.verified && run.adaptive_outcome.verified,
             tag + "cg invariant failed");
    r.expect(run.static_outcome.combined_checksum() == run.adaptive_outcome.combined_checksum(),
             tag + "adaptive payload checksum differs from static");
    r.expect(ac.stream_credit_grants == ac.stream_credit_releases,
             tag + "stream credit grants differ from releases");
    r.expect(sc.unexpected_bytes_now == 0 && ac.unexpected_bytes_now == 0 &&
                 ac.preposted_bytes_now == 0 && ac.stream_credit_bytes_now == 0,
             tag + "buffer bytes left held after the run");
    r.expect(ps.messages == resolved_records(adap.traces(), trace::Level::Physical),
             tag + "arrivals fed to the policy differ from physical records");

    const auto static_final = stat.engine().stats().final_time.count();
    const auto adaptive_final = adap.engine().stats().final_time.count();
    speedups.push_back(100.0 * static_cast<double>(static_final - adaptive_final) /
                       static_cast<double>(static_final));
    arrivals += ps.messages;
    prepost_hits += ps.prepost_hits;
    for (const std::int64_t v :
         {static_final, adaptive_final,
          static_cast<std::int64_t>(run.static_outcome.combined_checksum()), ac.eager_received,
          ac.rendezvous_received, ac.unexpected_arrivals, ac.prepost_hits, ac.prepost_misses,
          ac.rendezvous_elided, ac.fallback_round_trips, ac.fallback_ns, ac.stream_credit_grants,
          ps.degraded_arrivals, ps.elision_saved_ns}) {
      r.fingerprint.add(v);
    }
    r.fingerprint.add(adap.adaptive_policy()->service().arrival_engine().report());
    add_world_layers(stat, r);  // static worlds: the sim layer without the loop
    r.layers["adaptive.rendezvous_elided"] += static_cast<double>(ps.rendezvous_elided);
    r.layers["adaptive.degraded_arrivals"] += static_cast<double>(ps.degraded_arrivals);
    r.layers["adaptive.fallback_round_trips"] += static_cast<double>(ac.fallback_round_trips);
    r.layers["adaptive.credit_grants"] += static_cast<double>(ac.stream_credit_grants);
  }
  // The loop's own measure of anticipating senders: an arrival that finds
  // a buffer pre-posted for its sender skips the ask-permission fallback.
  r.sender_hit_pct =
      ratio(100.0 * static_cast<double>(prepost_hits), static_cast<double>(arrivals));
  r.extra["sim_speedup_pct"] = median(speedups);
  r.layers["sim.events_per_s"] = ratio(r.layers["sim.events"], static_s);
  r.layers["adaptive.sim_speedup_pct"] = median(speedups);
  r.layers["adaptive.arrivals"] = static_cast<double>(arrivals);
  r.layers["adaptive.prepost_hit_pct"] = r.sender_hit_pct;
  r.layers["adaptive.arrivals_per_s"] = ratio(static_cast<double>(arrivals), adaptive_s - static_s);

  if (rec.tracing()) {
    core_probes(rec, r,
                busiest_stream(engine::events_from_trace(runs.front().static_world->traces(),
                                                         trace::Level::Physical)));
  }
}

/// External-trace replay: the seed's LU.16 trace as generated CSV files,
/// streamed through open_event_stream into last-value sessions.
void replay_lu16(const Options& opt, Recorder& rec, Result& r) {
  struct Input {
    const char* file;
    trace::Level level;
  };
  constexpr Input kInputs[] = {{"lu16-native.csv", trace::Level::Logical},
                               {"lu16-native.csv", trace::Level::Physical},
                               {"lu16-flat.csv", trace::Level::Physical}};
  std::int64_t expected[3] = {0, 0, 0};
  {
    std::ifstream counts(opt.inputs + "/counts.txt");
    if (!(counts >> expected[0] >> expected[1] >> expected[2])) {
      throw Error("replay-lu16 needs the inputs `bench_suite generate` writes (--inputs)");
    }
  }
  std::unique_ptr<serve::PredictionServer> server;
  std::shared_ptr<serve::Session> sessions[3];
  std::unique_ptr<ingest::EventStream> streams[3];
  ingest::StreamedRun runs[3];
  double feed_s = 0.0;
  double parse_s = 0.0;
  rec.time("workload", [&] {
    server = timed_setup(opt, rec, r, "serve.server_setup", [] {
      serve::ServeConfig cfg;
      cfg.engine.predictor = "last-value";
      cfg.engine.shards = 3;  // plus run_into's producer thread: four threads
      return std::make_unique<serve::PredictionServer>(cfg);
    });
    for (std::size_t i = 0; i < 3; ++i) {
      sessions[i] =
          timed_setup(opt, rec, r, "serve.open_session", [&] { return server->open_session(); });
      streams[i] = timed_setup(opt, rec, r, "ingest.open", [&] {
        return ingest::open_event_stream(opt.inputs + "/" + kInputs[i].file, kInputs[i].level);
      });
    }
    if (opt.setup_only) {
      return;
    }
    for (std::size_t i = 0; i < 3; ++i) {
      feed_s += rec.time("serve.run_into", [&] {
        if (!rec.tracing()) {
          runs[i] = ingest::run_into(*streams[i], *sessions[i], kReplayBatch);
          return;
        }
        TimedStream timed(*streams[i], rec.open_span());
        runs[i] = ingest::run_into(timed, *sessions[i], kReplayBatch);
        parse_s += timed.busy_s();
        rec.adopt(timed.take_spans());
      });
    }
  });
  if (opt.setup_only) {
    return;
  }
  r.wall_s = feed_s;

  HitCount hits;
  std::int64_t events = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const ingest::StreamedRun& run = runs[i];
    const std::string name =
        std::string(kInputs[i].file) + " " + std::string(to_string(kInputs[i].level));
    r.expect(run.events == expected[i], name + ": events differ from the records generated");
    r.expect(run.report.events == run.events, name + ": report counts differ from events fed");
    r.fingerprint.add(run.report);
    hits.add(run.report.aggregate_senders);
    add_engine_layers(run.report, r);
    r.layers["ingest.batches"] += static_cast<double>(run.batches);
    events += run.events;
  }
  r.expect(runs[2].report == runs[1].report,
           "flat-dialect report differs from the native physical one");
  Fingerprint logical;
  logical.add(runs[0].report);
  r.logical_fingerprint = logical.hex();
  r.sender_hit_pct = hits.pct();
  r.layers["serve.feeds"] = 3;
  r.layers["serve.events_per_s"] = ratio(static_cast<double>(events), feed_s);
  r.layers["serve.resident_bytes"] = static_cast<double>(server->stats().resident_bytes);
  if (rec.tracing()) {
    r.layers["ingest.parse_events_per_s"] = ratio(static_cast<double>(events), parse_s);
    const auto flat =
        ingest::open_event_stream(opt.inputs + "/lu16-flat.csv", trace::Level::Physical);
    core_probes(rec, r, busiest_stream(ingest::strip_times(ingest::drain(*flat))));
  }
}

std::size_t serve_streams(const Options& opt) {
  return opt.smoke ? 4096 : 32768;
}

/// serve-32k's input as `generate` wrote it: stream j's 32 events, for each
/// j in turn, each event as source, destination (= j), tag and bytes. Session
/// k owns the streams j = k (mod 4) and receives them in rounds: event e of
/// each of its streams before event e + 1 of any.
std::vector<std::vector<engine::Event>> serve_feeds(const Options& opt) {
  const std::size_t nstreams = serve_streams(opt);
  std::ifstream in(opt.inputs + "/serve32k.bin", std::ios::binary);
  std::vector<engine::Event> events(nstreams * kServeEventsPerStream);
  for (engine::Event& e : events) {
    in.read(reinterpret_cast<char*>(&e.source), sizeof(e.source));
    in.read(reinterpret_cast<char*>(&e.destination), sizeof(e.destination));
    in.read(reinterpret_cast<char*>(&e.tag), sizeof(e.tag));
    in.read(reinterpret_cast<char*>(&e.bytes), sizeof(e.bytes));
  }
  if (!in || in.peek() != std::char_traits<char>::eof()) {
    throw Error("serve-32k needs the inputs `bench_suite generate` writes (--inputs)");
  }
  std::vector<std::vector<engine::Event>> feeds(kServeSessions);
  for (std::size_t e = 0; e < kServeEventsPerStream; ++e) {
    for (std::size_t j = 0; j < nstreams; ++j) {
      feeds[j % kServeSessions].push_back(events[j * kServeEventsPerStream + e]);
    }
  }
  return feeds;
}

/// The resident multi-tenant service: 32,768 short streams cut from the
/// simulated apps' traffic, fed round-robin to four sessions, 512 events per
/// feed, one caller.
void serve_32k(const Options& opt, Recorder& rec, Result& r) {
  const std::size_t nstreams = serve_streams(opt);
  // Read before the timed region; a set-up-only run needs none.
  const auto feeds = opt.setup_only ? std::vector<std::vector<engine::Event>>(kServeSessions)
                                    : serve_feeds(opt);
  const std::size_t per_session = feeds[0].size();
  const std::size_t feeds_per_session = per_session / kServeFeedEvents;

  Service svc;
  std::vector<engine::EngineReport> reports(kServeSessions);
  std::vector<double> feed_s;
  feed_s.reserve(feeds_per_session * kServeSessions);
  rec.time("workload", [&] {
    svc = timed_setup(opt, rec, r, "serve.open_sessions",
                      [] { return open_service("dpd", 4, kServeSessions); });
    if (opt.setup_only) {
      return;
    }
    r.wall_s += rec.time("serve.feeds", [&] {
      for (std::size_t f = 0; f < feeds_per_session; ++f) {
        for (std::size_t k = 0; k < kServeSessions; ++k) {
          const auto batch = std::span<const engine::Event>(feeds[k]).subspan(
              f * kServeFeedEvents, kServeFeedEvents);
          feed_s.push_back(rec.time("serve.feed", [&] { svc.sessions[k]->observe_all(batch); }));
        }
      }
    });
    r.wall_s += rec.time("serve.report", [&] {
      for (std::size_t k = 0; k < kServeSessions; ++k) {
        reports[k] = svc.sessions[k]->report();
      }
    });
  });
  if (opt.setup_only) {
    return;
  }
  const serve::ServerStats stats = svc.server->stats();
  HitCount hits;
  double busy_s = 0.0;
  for (const double s : feed_s) {
    busy_s += s;
  }
  for (std::size_t k = 0; k < kServeSessions; ++k) {
    r.expect(reports[k].events == static_cast<std::int64_t>(per_session),
             "session " + std::to_string(k) + ": report counts differ from the events fed");
    r.expect(reports[k].streams.size() == nstreams / kServeSessions,
             "session " + std::to_string(k) + ": stream count differs from the streams fed");
    r.fingerprint.add(reports[k]);
    hits.add(reports[k].aggregate_senders);
    add_engine_layers(reports[k], r);
  }
  r.expect(stats.streams == nstreams && stats.evictions == 0,
           "server holds a different stream count than was fed");
  r.sender_hit_pct = hits.pct();
  const double events = static_cast<double>(per_session * kServeSessions);
  r.extra["events_per_s"] = ratio(events, busy_s);
  r.extra["feed_p50_us"] = 1e6 * percentile(feed_s, 0.50);
  r.extra["feed_p99_us"] = 1e6 * percentile(feed_s, 0.99);
  r.layers["serve.feeds"] = static_cast<double>(feed_s.size());
  r.layers["serve.events_per_s"] = r.extra["events_per_s"];
  r.layers["serve.resident_bytes"] = static_cast<double>(stats.resident_bytes);
  if (rec.tracing()) {
    core_probes(rec, r, feeds[0]);
  }
}

// ---------------------------------------------------------------- commands

/// replay-lu16's inputs: the seed's LU.16 run as a native CSV (both levels,
/// through trace::write_csv) and as a time-sorted flat-dialect CSV of the
/// physical level, plus the event count each stream must deliver.
void generate_replay(const Options& opt) {
  mpi::World world(kRanks, apps::paper_world_config(opt.seed));
  const auto outcome = apps::find_app("lu").run(world, {.problem_class = problem_class(opt)});
  if (!outcome.verified) {
    throw Error("generate: lu invariant failed");
  }
  trace::write_csv_file(opt.inputs + "/lu16-native.csv", world.traces());
  const auto physical = trace::merged_records(world.traces(), trace::Level::Physical);
  std::ofstream flat(opt.inputs + "/lu16-flat.csv");
  flat << "# mpipred-trace: v1\n# nranks: " << kRanks << "\ntime_ns,sender,receiver,bytes,kind\n";
  for (const trace::MergedRecord& m : physical) {
    flat << m.time.count() << ',' << m.sender << ',' << m.receiver << ',' << m.bytes << ','
         << static_cast<int>(m.kind) << '\n';
  }
  std::ofstream counts(opt.inputs + "/counts.txt");
  counts << resolved_records(world.traces(), trace::Level::Logical) << ' ' << physical.size() << ' '
         << physical.size() << '\n';
  if (!flat || !counts) {
    throw Error("generate: cannot write into " + opt.inputs);
  }
}

/// serve-32k's input: the apps' own traffic, cut into short streams. Every
/// app runs at each of its Table 1 process counts and at 64 (the smoke run
/// skips 64), class S. Each run's logical level, which no seed changes, is
/// split per receiver and cut into 32-event pieces. The seed picks
/// `serve_streams` distinct pieces with sim::Rng, and the j-th pick becomes
/// stream j, re-keyed to receiver j.
void generate_serve(const Options& opt) {
  const std::size_t nstreams = serve_streams(opt);
  std::vector<engine::Event> pieces;
  for (const apps::AppInfo& app : apps::all_apps()) {
    std::vector<int> counts = app.paper_proc_counts;
    if (!opt.smoke) {
      counts.push_back(64);
    }
    for (const int nprocs : counts) {
      mpi::World world(nprocs, apps::paper_world_config(opt.seed));
      if (!app.run(world, {.problem_class = apps::ProblemClass::S}).verified) {
        throw Error("generate: " + std::string(app.name) + " invariant failed");
      }
      std::map<std::int32_t, std::vector<engine::Event>> receivers;
      for (const engine::Event& e :
           engine::events_from_trace(world.traces(), trace::Level::Logical)) {
        receivers[e.destination].push_back(e);
      }
      for (const auto& [dst, stream] : receivers) {
        const std::size_t whole = stream.size() - stream.size() % kServeEventsPerStream;
        pieces.insert(pieces.end(), stream.begin(), stream.begin() + whole);
      }
    }
  }
  // A partial Fisher-Yates shuffle: picks[0, nstreams) are the chosen pieces.
  std::vector<std::size_t> picks(pieces.size() / kServeEventsPerStream);
  if (picks.size() < nstreams) {
    throw Error("generate: the apps' traffic gives too few pieces");
  }
  for (std::size_t i = 0; i < picks.size(); ++i) {
    picks[i] = i;
  }
  sim::Rng rng(sim::derive_seed(opt.seed, 0x53525645));  // "SRVE"
  for (std::size_t i = 0; i < nstreams; ++i) {
    std::swap(picks[i], picks[i + rng.below(picks.size() - i)]);
  }
  std::ofstream out(opt.inputs + "/serve32k.bin", std::ios::binary);
  for (std::size_t j = 0; j < nstreams; ++j) {
    for (std::size_t e = 0; e < kServeEventsPerStream; ++e) {
      engine::Event ev = pieces[picks[j] * kServeEventsPerStream + e];
      ev.destination = static_cast<std::int32_t>(j);
      out.write(reinterpret_cast<const char*>(&ev.source), sizeof(ev.source));
      out.write(reinterpret_cast<const char*>(&ev.destination), sizeof(ev.destination));
      out.write(reinterpret_cast<const char*>(&ev.tag), sizeof(ev.tag));
      out.write(reinterpret_cast<const char*>(&ev.bytes), sizeof(ev.bytes));
    }
  }
  if (!out) {
    throw Error("generate: cannot write into " + opt.inputs);
  }
}

void generate(const Options& opt) {
  if (opt.workload == "replay-lu16") {
    generate_replay(opt);
  } else if (opt.workload == "serve-32k") {
    generate_serve(opt);
  } else {
    throw Error("workload '" + opt.workload + "' takes no inputs");
  }
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string json_object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, v] : values) {
    out += out.size() > 1 ? "," : "";
    out += json_string(name);
    out += ':';
    out += json_number(v);
  }
  return out + "}";
}

/// This process's peak resident set. VmHWM, not getrusage: Linux carries
/// the parent's high-water mark across fork + exec into ru_maxrss, so a
/// small repetition would read the runner's RSS instead of its own.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  double kib = 0.0;
  while (status >> key) {
    if (key == "VmHWM:" && status >> kib) {
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  throw Error("no VmHWM in /proc/self/status");
}

int run(const Options& opt) {
  Recorder rec(!opt.trace_out.empty());
  Result r;
  if (opt.workload == "nas-lu16") {
    nas_lu16(opt, rec, r);
  } else if (opt.workload == "adaptive-cg16") {
    adaptive_cg16(opt, rec, r);
  } else if (opt.workload == "replay-lu16") {
    replay_lu16(opt, rec, r);
  } else if (opt.workload == "serve-32k") {
    serve_32k(opt, rec, r);
  } else {
    throw Error("unknown workload '" + opt.workload + "'");
  }
  if (opt.setup_only) {
    std::printf("{\"workload\":%s,\"setup_s\":%s,\"attempted\":0,\"failures\":[]}\n",
                json_string(opt.workload).c_str(), json_number(r.setup_s).c_str());
    return 0;
  }
  if (const auto streams = r.layers.find("engine.streams"); streams != r.layers.end()) {
    r.layers["engine.state_bytes_per_stream"] = r.layers["engine.state_bytes"] / streams->second;
  }

  if (rec.tracing()) {
    const auto& spans = rec.spans();
    constexpr int kRoot = 0;  // every workload opens its "workload" span first
    const double total = seconds(spans[kRoot].end_ns - spans[kRoot].start_ns);
    for (const auto& [layer, self] : self_seconds_by_layer(spans, kRoot)) {
      r.layers[layer == "unattributed" ? "unattributed_pct" : layer + ".self_pct"] =
          100.0 * self / total;
    }
    r.layers["traced_wall_s"] = r.wall_s;
    write_chrome_trace(opt.trace_out, spans, opt.workload);
  }

  std::string out = "{\"workload\":" + json_string(opt.workload);
  out += ",\"wall_s\":" + json_number(r.wall_s);
  out += ",\"peak_rss_mib\":" + json_number(peak_rss_mib());
  out += ",\"sender_hit_pct\":" + json_number(r.sender_hit_pct);
  out += ",\"extra\":" + json_object(r.extra);
  out += ",\"layers\":" + json_object(r.layers);
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    out += (i > 0 ? "," : "") + json_string(r.failures[i]);
  }
  out += "],\"fingerprint\":" + json_string(r.fingerprint.hex()) +
         ",\"logical_fingerprint\":" + json_string(r.logical_fingerprint) + "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

Options parse_options(std::span<char*> args) {
  Options opt;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view arg = args[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        throw Error(std::string(arg) + " needs a value");
      }
      return args[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--inputs") {
      opt.inputs = value();
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--setup-only") {
      opt.setup_only = true;
    } else {
      throw Error("unexpected argument '" + std::string(arg) + "'");
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const std::span<char*> args(argv, static_cast<std::size_t>(argc));
  const std::string_view cmd = args.size() > 1 ? args[1] : "";
  try {
    const Options opt = parse_options(args.subspan(std::min<std::size_t>(args.size(), 2)));
    if (cmd == "run") {
      return run(opt);
    }
    if (cmd == "generate" && !opt.inputs.empty()) {
      generate(opt);
      return 0;
    }
    if (cmd == "host") {
      const std::string compiler = json_string(MPIPRED_BENCH_COMPILER);
      const std::string build_type = json_string(MPIPRED_BENCH_BUILD_TYPE);
      std::printf("{\"compiler\":%s,\"build_type\":%s}\n", compiler.c_str(), build_type.c_str());
      return 0;
    }
    std::fprintf(stderr,
                 "usage: bench_suite run --workload <name> --seed <n> [--smoke] [--inputs <dir>]\n"
                 "                        [--trace-out <file> | --setup-only]\n"
                 "       bench_suite generate --workload <name> --seed <n> --inputs <dir>\n"
                 "                        [--smoke]\n"
                 "       bench_suite host\n");
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s\n", e.what());
    return 1;
  }
}
