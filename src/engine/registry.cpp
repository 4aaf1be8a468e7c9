#include "engine/registry.hpp"

#include <utility>

#include "common/error.hpp"
#include "core/baselines/cycle.hpp"
#include "core/baselines/last_value.hpp"
#include "core/baselines/markov.hpp"
#include "core/stream_predictor.hpp"
#include "core/windowed_dpd.hpp"

namespace mpipred::engine {

PredictorRegistry& PredictorRegistry::instance() {
  // Function-local static: safely constructed before the first registrar
  // runs, whatever the translation-unit initialization order.
  static PredictorRegistry registry;
  return registry;
}

void PredictorRegistry::add(std::string name, Factory factory) {
  const auto [it, inserted] = factories_.emplace(std::move(name), std::move(factory));
  if (!inserted) {
    throw UsageError("predictor '" + it->first + "' is already registered");
  }
}

bool PredictorRegistry::contains(std::string_view name) const {
  return factories_.find(name) != factories_.end();
}

std::string PredictorRegistry::unknown_name_message(std::string_view name) const {
  std::string known;
  for (const auto& [known_name, factory] : factories_) {
    known += known.empty() ? known_name : ", " + known_name;
  }
  return "unknown predictor '" + std::string(name) + "' (registered: " + known + ")";
}

std::unique_ptr<core::Predictor> PredictorRegistry::make(std::string_view name,
                                                         const PredictorOptions& options) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    throw UsageError(unknown_name_message(name));
  }
  return it->second(options);
}

std::vector<std::string> PredictorRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) {
    out.push_back(name);
  }
  return out;
}

std::vector<std::string> builtin_predictor_names() {
  return {"dpd", "dpd-window", "cycle", "markov", "last-value"};
}

std::unique_ptr<core::Predictor> make_predictor(std::string_view name,
                                                const PredictorOptions& options) {
  return PredictorRegistry::instance().make(name, options);
}

PredictorArg parse_predictor_arg(int argc, char** argv, std::string fallback) {
  PredictorArg out;
  out.name = std::move(fallback);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-predictors") {
      out.listed = true;
    } else if (arg == "--predictor") {
      if (i + 1 >= argc) {
        out.error = "--predictor requires a name";
        return out;
      }
      out.name = argv[++i];
    } else if (arg.starts_with("--predictor=")) {
      out.name = std::string(arg.substr(std::string_view("--predictor=").size()));
    } else {
      out.rest.emplace_back(arg);
    }
  }
  // Validate by lookup only — never by constructing (and discarding) a
  // predictor: factories can be arbitrarily expensive.
  const auto& registry = PredictorRegistry::instance();
  if (!registry.contains(out.name)) {
    out.error = registry.unknown_name_message(out.name);
  }
  return out;
}

// ----------------------------------------------------------------------
// Built-in registrations. They live in this translation unit (rather than
// next to each predictor) so that linking the registry always links the
// factories — a static library would otherwise drop the unreferenced
// registrar objects together with their object file.
namespace {

core::StreamPredictorConfig dpd_config(const PredictorOptions& o) {
  return {.dpd = o.dpd, .horizon = o.horizon};
}

const PredictorRegistrar kDpd{"dpd", [](const PredictorOptions& o) {
                                return std::make_unique<core::StreamPredictor>(dpd_config(o));
                              }};

// Aliases (issue-spelling names) share the canonical factory object so the
// two spellings can never drift apart.
const PredictorRegistry::Factory kWindowedDpdFactory = [](const PredictorOptions& o) {
  return std::make_unique<core::WindowedDpdPredictor>(o.dpd, o.horizon);
};
const PredictorRegistrar kWindowedDpd{"dpd-window", kWindowedDpdFactory};
const PredictorRegistrar kWindowedDpdAlias{"windowed_dpd", kWindowedDpdFactory};

const PredictorRegistrar kCycle{"cycle", [](const PredictorOptions& o) {
                                  return std::make_unique<core::CyclePredictor>(o.horizon);
                                }};

// `markov` is the first-order table under its family name.
const PredictorRegistry::Factory kMarkov1Factory = [](const PredictorOptions& o) {
  return std::make_unique<core::MarkovPredictor>(1, o.horizon);
};
const PredictorRegistrar kMarkov{"markov", kMarkov1Factory};
const PredictorRegistrar kMarkov1{"markov-1", kMarkov1Factory};
const PredictorRegistrar kMarkov2{"markov-2", [](const PredictorOptions& o) {
                                    return std::make_unique<core::MarkovPredictor>(2, o.horizon);
                                  }};

const PredictorRegistry::Factory kLastValueFactory = [](const PredictorOptions& o) {
  return std::make_unique<core::LastValuePredictor>(o.horizon);
};
const PredictorRegistrar kLastValue{"last-value", kLastValueFactory};
const PredictorRegistrar kLastValueAlias{"last_value", kLastValueFactory};

}  // namespace

}  // namespace mpipred::engine
