#pragma once

// Configuration surface of the prediction engine, split from engine.hpp so
// value-embedding consumers (adaptive::RuntimeConfig inside
// mpi::WorldConfig, ingest sources) can describe an engine without pulling
// in the predictor interface, the accuracy harness, or the trace store.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "core/dpd.hpp"
#include "telemetry/metrics.hpp"

namespace mpipred::engine {

/// Knobs understood by the built-in predictor factories. One options
/// struct covers every family: a factory reads the fields it cares about
/// and ignores the rest, so a sweep can hand the same options to all names.
struct PredictorOptions {
  /// Longest horizon (+1 ... +horizon); every family honors this.
  std::size_t horizon = 5;
  /// DPD tuning, used by `dpd` and `dpd-window`.
  core::DpdConfig dpd{};
};

/// Wildcard component of a StreamKey: the key policy left this dimension
/// out, so one stream covers all values of it. Deliberately distinct from
/// trace::kUnresolvedSender (-1): an unresolved sender fed with
/// `drop_unresolved = false` is a real key value that must not be rendered
/// or matched as a wildcard.
inline constexpr std::int32_t kAnyKey = std::numeric_limits<std::int32_t>::min();

/// One received message of the global trace the engine consumes.
struct Event {
  std::int32_t source = 0;
  std::int32_t destination = 0;
  /// Free demux dimension. Trace-derived events carry the OpKind here
  /// (0 = p2p, 1 = collective); synthetic workloads can use real MPI tags.
  std::int32_t tag = 0;
  std::int64_t bytes = 0;

  [[nodiscard]] bool operator==(const Event&) const = default;
};

/// Which event fields demultiplex the trace into streams. The default —
/// destination only — reproduces the paper's setup: one stream per
/// receiving process, whose sender sequence and size sequence are the two
/// predicted dimensions. Keying by source and/or tag as well splits
/// further (then the sender dimension inside a by-source stream is
/// constant, and only the size dimension carries information).
struct KeyPolicy {
  bool by_source = false;
  bool by_destination = true;
  bool by_tag = false;

  /// The paper's per-receiver streams.
  [[nodiscard]] static KeyPolicy per_receiver() { return {}; }
  /// Full (source, destination, tag) demultiplexing.
  [[nodiscard]] static KeyPolicy full() {
    return {.by_source = true, .by_destination = true, .by_tag = true};
  }
};

/// Identity of one demultiplexed stream; dimensions the policy ignores
/// hold kAnyKey.
struct StreamKey {
  std::int32_t source = kAnyKey;
  std::int32_t destination = kAnyKey;
  std::int32_t tag = kAnyKey;

  [[nodiscard]] auto operator<=>(const StreamKey&) const = default;
};

struct EngineConfig {
  /// Registry name of the predictor family to instantiate per stream.
  std::string predictor = "dpd";
  PredictorOptions options{};
  KeyPolicy key{};
  /// Worker shards the stream table is hash-partitioned across. 0 = one
  /// per hardware thread; 1 = the sequential path. Any value produces
  /// byte-identical reports — shards only change who does the work.
  std::size_t shards = 0;
  /// Optional caller-owned registry the engine's feed/stream metrics land
  /// in (engine.feed.*, engine.streams.resident — all shard-invariant, so
  /// snapshots stay byte-identical across shard counts). nullptr = the
  /// shard set keeps a private registry.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Labels attached to this engine's metrics (e.g. service view, tenant).
  telemetry::LabelSet metric_labels{};
};

}  // namespace mpipred::engine
