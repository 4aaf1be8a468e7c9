#pragma once

// Minimal streaming JSON writer for machine-diffable bench artifacts.
// Hand-rolled on purpose: the repo takes no third-party dependencies, and
// bench output needs exactly objects, arrays, strings, integers, bools,
// and fixed-format doubles. Emission order is the call order, so a bench
// that computes deterministically writes byte-identical files across runs
// — keep timestamps, hostnames, and pointers out of the values.

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace mpipred::bench {

/// Streaming writer with comma/nesting bookkeeping. Usage:
///
///   JsonWriter json;
///   json.begin_object();
///   json.key("config").begin_object();
///   json.key("shards").value(std::int64_t{4});
///   json.end_object();
///   json.end_object();
///   json.str();  // the document
///
/// The caller is responsible for balanced begin/end calls; keys must be
/// unique within an object (nothing checks, this is a writer not a DOM).
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(std::string_view name) {
    separate();
    append_string(name);
    out_ += ':';
    pending_value_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view text) {
    separate();
    append_string(text);
    return *this;
  }
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(bool b) {
    separate();
    out_ += b ? "true" : "false";
    return *this;
  }
  JsonWriter& value(std::int64_t n) {
    separate();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, n);
    out_ += buf;
    return *this;
  }
  JsonWriter& value(std::uint64_t n) {
    separate();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, n);
    out_ += buf;
    return *this;
  }
  /// Fixed three-decimal format: stable across platforms and precise
  /// enough for latency ratios without dragging in locale or %g noise.
  /// Throws Error on NaN or infinity, which JSON cannot represent (printf
  /// would write a bare `nan` that no parser accepts).
  JsonWriter& value(double d) {
    if (!std::isfinite(d)) {
      throw Error("cannot write the non-finite number " + std::to_string(d) + " as JSON");
    }
    separate();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", d);
    out_ += buf;
    return *this;
  }

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  JsonWriter& open(char c) {
    separate();
    out_ += c;
    first_.push_back(true);
    return *this;
  }

  JsonWriter& close(char c) {
    out_ += c;
    first_.pop_back();
    return *this;
  }

  /// Emits the comma before a sibling; a value right after key() never
  /// takes one.
  void separate() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) {
        out_ += ',';
      }
      first_.back() = false;
    }
  }

  void append_string(std::string_view text) {
    out_ += '"';
    for (const char c : text) {
      switch (c) {
        case '"':
          out_ += "\\\"";
          break;
        case '\\':
          out_ += "\\\\";
          break;
        case '\n':
          out_ += "\\n";
          break;
        case '\t':
          out_ += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool pending_value_ = false;
};

namespace detail {

/// First line of `command`'s stdout, or "" when it cannot run.
inline std::string first_output_line(const std::string& command) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> pipe(::popen(command.c_str(), "r"),
                                                               ::pclose);
  if (pipe == nullptr) {
    return "";
  }
  std::string line;
  for (int c = std::fgetc(pipe.get()); c != EOF && c != '\n'; c = std::fgetc(pipe.get())) {
    line += static_cast<char>(c);
  }
  return line;
}

/// The "model name" of the first CPU in /proc/cpuinfo, or "unknown".
inline std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.starts_with("model name")) {
      const auto colon = line.find(':');
      const auto start = line.find_first_not_of(' ', colon + 1);
      return start == std::string::npos ? "unknown" : line.substr(start);
    }
  }
  return "unknown";
}

}  // namespace detail

/// Writes the "host" member every committed bench artifact carries, with
/// the fields of the benchmark suite's results block: logical CPUs, CPU
/// model, compiler and build type (MPIPRED_BENCH_COMPILER and
/// MPIPRED_BENCH_BUILD_TYPE, set by CMake for every bench), the git commit
/// of the source tree and whether its tracked files differed from it, and
/// the seeds of the measured workload (empty when it draws none).
inline void write_host_block(JsonWriter& json, std::span<const std::uint64_t> seeds) {
  const std::string git = std::string("git -C '") + MPIPRED_SOURCE_DIR + "' ";
  std::string sha = detail::first_output_line(git + "rev-parse HEAD 2>/dev/null");
  const bool dirty =
      !sha.empty() &&
      !detail::first_output_line(git + "status --porcelain --untracked-files=no 2>/dev/null")
           .empty();
  json.key("host").begin_object();
  json.key("nproc").value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.key("cpu").value(detail::cpu_model());
  json.key("compiler").value(MPIPRED_BENCH_COMPILER);
  json.key("build_type").value(MPIPRED_BENCH_BUILD_TYPE);
  json.key("git_sha").value(sha.empty() ? "unknown (not a git checkout)" : sha);
  json.key("git_dirty").value(dirty);
  json.key("seeds").begin_array();
  for (const std::uint64_t seed : seeds) {
    json.value(seed);
  }
  json.end_array();
  json.end_object();
}

}  // namespace mpipred::bench
