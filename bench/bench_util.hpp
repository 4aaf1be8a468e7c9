#pragma once

// Shared plumbing of the bench and example mains: the paper-profile kernel
// run, the §2 latency model, the fail-closed main wrapper and the flag
// parsers.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "apps/app.hpp"
#include "apps/registry.hpp"
#include "common/error.hpp"
#include "engine/engine.hpp"
#include "engine/registry.hpp"
#include "ingest/streaming.hpp"
#include "ingest/transform.hpp"
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

/// Consumes every `<flag> <n>` / `<flag>=<n>` occurrence from `rest` (the
/// unparsed remainder of parse_predictor_arg) and returns the last value,
/// or `fallback` when the flag is absent. Exits on a missing or malformed
/// number, so a typo can never silently run the default.
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
      std::fprintf(stderr, "%s requires a non-negative integer, got '%s'\n", flag.c_str(),
                   text.c_str());
      std::exit(1);
    }
    return value;
  };
  std::size_t value = fallback;
  for (auto it = rest.begin(); it != rest.end();) {
    if (*it == flag) {
      if (std::next(it) == rest.end()) {
        std::fprintf(stderr, "%s requires a value\n", flag.c_str());
        std::exit(1);
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

/// Shared `--shards <n>` handling: engine shard count, 0 = one shard per
/// hardware thread (the engine default).
inline std::size_t shards_flag(std::vector<std::string>& rest, std::size_t fallback = 0) {
  return size_flag(rest, "--shards", fallback);
}

/// Consumes every `<flag> <value>` / `<flag>=<value>` occurrence from
/// `rest` and returns the last value, or "" when the flag is absent. Exits
/// on a missing or empty value (a dangling `--trace` or an unset shell
/// variable in `--trace=$FILE` must not silently run the default mode).
inline std::string string_flag(std::vector<std::string>& rest, const std::string& flag) {
  std::string value;
  const auto take = [&](std::string v) {
    if (v.empty()) {
      std::fprintf(stderr, "%s requires a non-empty value\n", flag.c_str());
      std::exit(1);
    }
    value = std::move(v);
  };
  for (auto it = rest.begin(); it != rest.end();) {
    if (*it == flag) {
      if (std::next(it) == rest.end()) {
        std::fprintf(stderr, "%s requires a value\n", flag.c_str());
        std::exit(1);
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

/// size_flag that also reports whether the flag appeared at all (tools use
/// this to reject flags that only make sense in some modes instead of
/// silently ignoring them).
inline std::optional<std::size_t> opt_size_flag(std::vector<std::string>& rest,
                                                const std::string& flag) {
  const bool present = std::any_of(rest.begin(), rest.end(), [&flag](const std::string& a) {
    return a == flag || a.starts_with(flag + "=");
  });
  if (!present) {
    return std::nullopt;
  }
  return size_flag(rest, flag, 0);
}

/// The shared streamed-ingest flags of every `--trace` consumer:
/// `--trace <file>`, `--batch-events <n>` (0 = unbounded), `--window
/// <t0>:<t1>`, and `--remap-ranks <spec>`.
struct TraceFlags {
  std::string path;
  std::size_t batch_events = ingest::kDefaultBatchEvents;
  ingest::TransformSpec transforms;
};

/// Consumes the shared ingest flags from `rest`. Exits 1 on a malformed
/// window/remap spec, or when an ingest-only flag is given without
/// `--trace` (it would otherwise be a silent no-op).
inline TraceFlags trace_flags_or_exit(std::vector<std::string>& rest) {
  TraceFlags flags;
  flags.path = string_flag(rest, "--trace");
  const auto batch = opt_size_flag(rest, "--batch-events");
  if (batch) {
    flags.batch_events = *batch;
  }
  const std::string window_spec = string_flag(rest, "--window");
  const std::string remap_spec = string_flag(rest, "--remap-ranks");
  if (flags.path.empty() &&
      (batch.has_value() || !window_spec.empty() || !remap_spec.empty())) {
    std::fprintf(stderr,
                 "--batch-events, --window and --remap-ranks require --trace <file>\n");
    std::exit(1);
  }
  try {
    flags.transforms = ingest::TransformSpec::parse(window_spec, remap_spec);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(1);
  }
  return flags;
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
/// `rest` (exits 1 on a dangling or empty value, like every other flag).
inline TelemetryFlags telemetry_flags(std::vector<std::string>& rest) {
  TelemetryFlags flags;
  flags.metrics_path = string_flag(rest, "--emit-metrics");
  flags.trace_path = string_flag(rest, "--emit-trace-events");
  return flags;
}

/// Writes `text` to `path`, exiting 1 when the file cannot be written — an
/// export the user asked for must never vanish silently.
inline void write_file_or_exit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    std::exit(1);
  }
}

/// Writes whichever telemetry exports were requested: the metrics snapshot
/// to `--emit-metrics`, the trace-event stream to `--emit-trace-events`.
inline void write_telemetry_or_exit(const TelemetryFlags& flags,
                                    const telemetry::Telemetry& telemetry) {
  if (!flags.metrics_path.empty()) {
    write_file_or_exit(flags.metrics_path, telemetry.metrics().snapshot().to_json());
  }
  if (!flags.trace_path.empty()) {
    std::ofstream out(flags.trace_path, std::ios::binary);
    telemetry.trace_sink().write_json(out);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", flags.trace_path.c_str());
      std::exit(1);
    }
  }
}

}  // namespace mpipred::bench
