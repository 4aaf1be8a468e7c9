#pragma once

// Shared plumbing of the bench and example mains: the paper-profile kernel
// run, the §2 latency model, the fail-closed main wrapper, the flag
// parsers (each throws UsageError for cli_main to report) and the level
// report block.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "apps/app.hpp"
#include "apps/registry.hpp"
#include "common/error.hpp"
#include "engine/engine.hpp"
#include "engine/registry.hpp"
#include "mpi/world.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/stats.hpp"
#include "trace/stream.hpp"

namespace mpipred::bench {

struct TracedRun {
  std::unique_ptr<mpi::World> world;
  apps::AppOutcome outcome;
};

/// Runs `app` with `procs` ranks at the given class under the paper's
/// simulated-machine profile and returns the world (with traces) plus the
/// outcome. Seed fixed by default for reproducible bench output.
inline TracedRun run_traced(const std::string& app, int procs,
                            apps::ProblemClass cls = apps::ProblemClass::A,
                            std::uint64_t seed = 2003) {
  TracedRun run;
  run.world = std::make_unique<mpi::World>(procs, apps::paper_world_config(seed));
  run.outcome = apps::find_app(app).run(*run.world, apps::AppConfig{.problem_class = cls});
  return run;
}

inline double pct(double x) { return 100.0 * x; }

/// First-order latency model of the §2 what-if benches: a message that may
/// go out directly costs one latency plus its serialization time; one that
/// must first ask permission costs three latencies (request, grant, data)
/// plus serialization — the control-flow overhead §2 describes. Every term
/// is an integer-valued double, so totals rebuilt from counts and byte sums
/// are exact (below 2^53) in any summation order.
struct LatencyModel {
  double latency_ns = 20'000.0;
  double ns_per_byte = 10.0;

  [[nodiscard]] constexpr double direct_ns(std::int64_t bytes) const noexcept {
    return latency_ns + static_cast<double>(bytes) * ns_per_byte;
  }
  [[nodiscard]] constexpr double handshake_ns(std::int64_t bytes) const noexcept {
    return 3.0 * latency_ns + static_cast<double>(bytes) * ns_per_byte;
  }
  /// The unexpected-copy/ask-permission fallback the live simulator
  /// charges through sim::NetworkConfig::fallback_cost: the payload
  /// already arrived eagerly, so only the ask and grant crossings remain
  /// (two latencies, no data leg — cheaper than a full handshake_ns).
  [[nodiscard]] constexpr double fallback_rtt_ns() const noexcept { return 2.0 * latency_ns; }
};
static_assert(LatencyModel{}.handshake_ns(1000) ==
                  LatencyModel{}.direct_ns(1000) + 2.0 * LatencyModel{}.latency_ns,
              "a handshake costs a direct send plus two latencies");

/// The shared main of the command-line tools: `--help` / `-h` anywhere
/// prints `usage` to stdout and exits 0; otherwise `run` decides the exit
/// code, and any exception escaping it (a bad argument, an unreadable or
/// malformed trace, an unknown application, an unwritable output, or a
/// standard-library error such as std::length_error from an absurd count)
/// becomes one line on stderr and exit 1, never std::terminate. The tools
/// check no invariants at run time (the tier-1 suite does), so nothing
/// else exits nonzero.
template <typename Run>
int cli_main(int argc, char** argv, const char* usage, Run run) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage, stdout);
      return 0;
    }
  }
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

/// parse_predictor_arg (default dpd) for a command-line tool: returns the
/// parsed flags, or throws UsageError with the registry's diagnostic on a
/// missing value or an unknown name. `--list-predictors` is only recorded
/// (`listed`): the tool answers it with list_predictors once its own
/// arguments pass.
inline engine::PredictorArg predictor_arg(int argc, char** argv) {
  engine::PredictorArg arg = engine::parse_predictor_arg(argc, argv);
  if (!arg.error.empty()) {
    throw UsageError(arg.error);
  }
  return arg;
}

/// Throws UsageError naming the first argument no flag parser consumed (a
/// typoed flag must not silently run the default configuration).
inline void reject_unexpected(const std::vector<std::string>& rest) {
  if (!rest.empty()) {
    throw UsageError("unexpected argument '" + rest.front() + "'");
  }
}

/// Answers `--list-predictors`: call it after every argument has passed
/// its checks and before any work starts. Prints the registered names to
/// stdout and returns true (the tool then exits 0 without running), or
/// returns false when the flag was not given.
inline bool list_predictors(const engine::PredictorArg& arg) {
  if (!arg.listed) {
    return false;
  }
  for (const auto& name : engine::PredictorRegistry::instance().names()) {
    std::printf("%s\n", name.c_str());
  }
  return true;
}

/// Consumes every `<flag> <n>` / `<flag>=<n>` occurrence from `rest` (the
/// unparsed remainder of parse_predictor_arg) and returns the last value,
/// or `fallback` when the flag is absent. Throws UsageError on a missing
/// or malformed number, so a typo can never silently run the default.
inline std::size_t size_flag(std::vector<std::string>& rest, const std::string& flag,
                             std::size_t fallback) {
  const auto parse = [&flag](const std::string& text) -> std::size_t {
    // Digits only: from_chars takes no sign and no leading whitespace, and
    // reports overflow instead of wrapping (strtoull skips spaces and
    // negates a '-' into a huge count).
    std::size_t value = 0;
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc() || end != last) {
      throw UsageError(flag + " requires a non-negative integer, got '" + text + "'");
    }
    return value;
  };
  std::size_t value = fallback;
  for (auto it = rest.begin(); it != rest.end();) {
    if (*it == flag) {
      if (std::next(it) == rest.end()) {
        throw UsageError(flag + " requires a value");
      }
      value = parse(*std::next(it));
      it = rest.erase(it, std::next(it, 2));
    } else if (it->starts_with(flag + "=")) {
      value = parse(it->substr(flag.size() + 1));
      it = rest.erase(it);
    } else {
      ++it;
    }
  }
  return value;
}

/// size_flag for a count stored in the narrower type `T`: throws
/// UsageError when the value exceeds `T`'s range instead of wrapping it.
template <typename T>
T narrow_flag(std::vector<std::string>& rest, const std::string& flag, T fallback) {
  const std::size_t value = size_flag(rest, flag, static_cast<std::size_t>(fallback));
  if (value > static_cast<std::size_t>(std::numeric_limits<T>::max())) {
    throw UsageError(flag + " must be at most " + std::to_string(std::numeric_limits<T>::max()));
  }
  return static_cast<T>(value);
}

/// Shared `--shards <n>` handling: engine shard count, 0 = one shard per
/// hardware thread (the engine default).
inline std::size_t shards_flag(std::vector<std::string>& rest, std::size_t fallback = 0) {
  return size_flag(rest, "--shards", fallback);
}

/// Consumes every `<flag> <value>` / `<flag>=<value>` occurrence from
/// `rest` and returns the last value, or "" when the flag is absent.
/// Throws UsageError on a missing or empty value (a dangling `--trace` or
/// an unset shell variable in `--trace=$FILE` must not silently run the
/// default mode).
inline std::string string_flag(std::vector<std::string>& rest, const std::string& flag) {
  std::string value;
  const auto take = [&](std::string v) {
    if (v.empty()) {
      throw UsageError(flag + " requires a non-empty value");
    }
    value = std::move(v);
  };
  for (auto it = rest.begin(); it != rest.end();) {
    if (*it == flag) {
      if (std::next(it) == rest.end()) {
        throw UsageError(flag + " requires a value");
      }
      take(*std::next(it));
      it = rest.erase(it, std::next(it, 2));
    } else if (it->starts_with(flag + "=")) {
      take(it->substr(flag.size() + 1));
      it = rest.erase(it);
    } else {
      ++it;
    }
  }
  return value;
}

/// The shared telemetry-export flags of every CLI: `--emit-metrics
/// <file>` writes the final metrics snapshot as JSON, `--emit-trace-events
/// <file>` writes the simulated-time span stream as Chrome trace-event
/// JSON (loadable in Perfetto / chrome://tracing).
struct TelemetryFlags {
  std::string metrics_path;
  std::string trace_path;

  [[nodiscard]] bool any() const noexcept {
    return !metrics_path.empty() || !trace_path.empty();
  }
};

/// Consumes `--emit-metrics <file>` and `--emit-trace-events <file>` from
/// `rest` (a dangling or empty value throws, like every other flag).
inline TelemetryFlags telemetry_flags(std::vector<std::string>& rest) {
  TelemetryFlags flags;
  flags.metrics_path = string_flag(rest, "--emit-metrics");
  flags.trace_path = string_flag(rest, "--emit-trace-events");
  return flags;
}

/// Writes `text` to `path`; throws Error when the file cannot be written —
/// an export the user asked for must never vanish silently.
inline void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.flush();
  if (!out) {
    throw Error("cannot write '" + path + "'");
  }
}

/// Writes whichever telemetry exports were requested: the metrics snapshot
/// to `--emit-metrics`, the trace-event stream to `--emit-trace-events`.
inline void write_telemetry(const TelemetryFlags& flags, const telemetry::Telemetry& telemetry) {
  if (!flags.metrics_path.empty()) {
    write_file(flags.metrics_path, telemetry.metrics().snapshot().to_json());
  }
  if (!flags.trace_path.empty()) {
    std::ofstream out(flags.trace_path, std::ios::binary);
    telemetry.trace_sink().write_json(out);
    out.flush();
    if (!out) {
      throw Error("cannot write '" + flags.trace_path + "'");
    }
  }
}

/// One row of +1..+H accuracies, as the level reports print it.
inline void print_report_block(const char* label, const core::AccuracyReport& report) {
  std::printf("  %-8s", label);
  for (std::size_t h = 1; h <= report.max_horizon(); ++h) {
    std::printf("  +%zu: %5.1f%%", h, 100.0 * report.at(h).accuracy());
  }
  std::printf("\n");
}

/// One level's accuracy block: the header, the `rep_rank` process's
/// streams and the aggregate over all `nprocs`. predict_nas prints it for a
/// simulated run and replay_trace for a replayed file, so the two outputs
/// stay diffable line for line.
inline void print_level_report(trace::Level level, const engine::EngineReport& report,
                               int rep_rank, int nprocs, std::size_t shards) {
  std::printf("%s level (%lld messages over %zu streams on %zu engine shards, state %.1f KiB):\n",
              std::string(to_string(level)).c_str(), static_cast<long long>(report.events),
              report.streams.size(), engine::effective_shard_count(shards),
              static_cast<double>(report.total_footprint_bytes) / 1024.0);
  for (const auto& stream : report.streams) {
    if (stream.key.destination != rep_rank) {
      continue;
    }
    std::printf(" process %d (%lld messages):\n", rep_rank,
                static_cast<long long>(stream.events));
    print_report_block("senders:", stream.senders);
    print_report_block("sizes:", stream.sizes);
  }
  std::printf(" aggregate over all %d processes:\n", nprocs);
  print_report_block("senders:", report.aggregate_senders);
  print_report_block("sizes:", report.aggregate_sizes);
}

}  // namespace mpipred::bench
