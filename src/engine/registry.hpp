#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/predictor.hpp"
#include "engine/config.hpp"

namespace mpipred::engine {

/// Name -> factory map over all predictor families, so any predictor is
/// constructible from a string (CLI flag, config file, sweep loop). The
/// built-ins self-register at load time via `PredictorRegistrar` objects;
/// new families register the same way from their own translation unit.
class PredictorRegistry {
 public:
  using Factory = std::function<std::unique_ptr<core::Predictor>(const PredictorOptions&)>;

  /// The process-wide registry holding all registered factories.
  [[nodiscard]] static PredictorRegistry& instance();

  /// Registers `factory` under `name`; throws UsageError on duplicates.
  void add(std::string name, Factory factory);

  [[nodiscard]] bool contains(std::string_view name) const;

  /// "unknown predictor '<name>' (registered: ...)" — the one diagnostic
  /// both make() and parse_predictor_arg() emit for unknown names, so the
  /// thrown and returned spellings can never drift apart.
  [[nodiscard]] std::string unknown_name_message(std::string_view name) const;

  /// Constructs a fresh predictor; throws UsageError for unknown names
  /// (the message lists the registered names).
  [[nodiscard]] std::unique_ptr<core::Predictor> make(std::string_view name,
                                                      const PredictorOptions& options = {}) const;

  /// All registered names, sorted (canonical names and aliases alike).
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::map<std::string, Factory, std::less<>> factories_;
};

/// Registers a factory at static-initialization time:
///
/// ```
/// const PredictorRegistrar kMine{"mine", [](const PredictorOptions& o) {
///   return std::make_unique<MyPredictor>(o.horizon);
/// }};
/// ```
struct PredictorRegistrar {
  PredictorRegistrar(std::string name, PredictorRegistry::Factory factory) {
    PredictorRegistry::instance().add(std::move(name), std::move(factory));
  }
};

/// The canonical built-in names, in bench display order (aliases excluded).
[[nodiscard]] std::vector<std::string> builtin_predictor_names();

/// Convenience for `PredictorRegistry::instance().make(...)`.
[[nodiscard]] std::unique_ptr<core::Predictor> make_predictor(std::string_view name,
                                                              const PredictorOptions& options = {});

/// Result of scanning a command line for the shared predictor flags.
struct PredictorArg {
  /// The validated registry name (the fallback when no flag was given).
  std::string name;
  /// `--list-predictors` was given. Parsing goes on past it, so the caller
  /// can check every other argument first, then print names() and exit
  /// successfully without running.
  bool listed = false;
  /// Non-empty on a missing value or unknown name; the caller should print
  /// it to stderr and exit with failure. `name` is unusable.
  std::string error;
  /// Arguments the parser did not consume, in order. Callers with their
  /// own positionals read these; callers without any should reject a
  /// non-empty rest (a typoed flag lands here, and silently ignoring it
  /// would run the default predictor instead of the requested one).
  std::vector<std::string> rest;
};

/// Shared `--predictor <name>` (or `--predictor=<name>`) and
/// `--list-predictors` handling for benches and examples: validates the
/// name against the registry up front (before any expensive simulation),
/// with the registry's own name-listing error message. Prints nothing.
[[nodiscard]] PredictorArg parse_predictor_arg(int argc, char** argv,
                                               std::string fallback = "dpd");

}  // namespace mpipred::engine
