// The predictor registry: every built-in family constructible by name,
// options plumbed through, clone_fresh round-trips, duplicate and unknown
// names rejected.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "common/error.hpp"
#include "core/baselines/last_value.hpp"
#include "core/stream_predictor.hpp"
#include "core/windowed_dpd.hpp"
#include "engine/registry.hpp"

namespace mpipred::engine {
namespace {

TEST(PredictorRegistry, EveryBuiltinNameConstructs) {
  for (const auto& name : builtin_predictor_names()) {
    SCOPED_TRACE(name);
    const auto predictor = make_predictor(name);
    ASSERT_NE(predictor, nullptr);
    EXPECT_EQ(predictor->max_horizon(), 5u);  // default options
    EXPECT_FALSE(std::string(predictor->name()).empty());
  }
}

TEST(PredictorRegistry, EveryRegisteredNameConstructs) {
  // Aliases included: names() must never return a name make() rejects.
  for (const auto& name : PredictorRegistry::instance().names()) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(PredictorRegistry::instance().contains(name));
    EXPECT_NE(make_predictor(name), nullptr);
  }
}

TEST(PredictorRegistry, BuiltinNamesAreRegistered) {
  const auto names = PredictorRegistry::instance().names();
  const std::set<std::string> all(names.begin(), names.end());
  for (const auto& name : builtin_predictor_names()) {
    EXPECT_TRUE(all.contains(name)) << name;
  }
  // Issue-spelling aliases resolve too.
  EXPECT_TRUE(all.contains("windowed_dpd"));
  EXPECT_TRUE(all.contains("last_value"));
}

TEST(PredictorRegistry, CloneFreshRoundTripsEveryFamily) {
  for (const auto& name : builtin_predictor_names()) {
    SCOPED_TRACE(name);
    const auto predictor = make_predictor(name);
    for (int i = 0; i < 32; ++i) {
      predictor->observe(i % 4);
    }
    const auto fresh = predictor->clone_fresh();
    EXPECT_EQ(fresh->name(), predictor->name());
    EXPECT_EQ(fresh->max_horizon(), predictor->max_horizon());
    // Fresh means no history: nothing to predict from yet.
    EXPECT_FALSE(fresh->predict(1).has_value());
  }
}

TEST(PredictorRegistry, OptionsReachTheFactories) {
  PredictorOptions options;
  options.horizon = 3;
  options.dpd.window = 64;
  options.dpd.max_period = 16;

  const auto dpd = make_predictor("dpd", options);
  EXPECT_EQ(dpd->max_horizon(), 3u);
  const auto& stream = dynamic_cast<const core::StreamPredictor&>(*dpd);
  EXPECT_EQ(stream.config().dpd.window, 64u);

  const auto markov = make_predictor("markov", options);
  EXPECT_EQ(markov->max_horizon(), 3u);
}

TEST(PredictorRegistry, UnknownNameThrowsWithRegisteredList) {
  try {
    (void)make_predictor("no-such-predictor");
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("dpd"), std::string::npos);
  }
}

TEST(PredictorRegistry, DuplicateRegistrationThrows) {
  EXPECT_THROW(PredictorRegistry::instance().add(
                   "dpd", [](const PredictorOptions& o) { return make_predictor("cycle", o); }),
               UsageError);
}

TEST(PredictorRegistry, ParsePredictorArg) {
  const auto run = [](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "prog");
    return parse_predictor_arg(static_cast<int>(argv.size()),
                               const_cast<char**>(argv.data()));
  };

  EXPECT_EQ(run({}).name, "dpd");  // fallback
  EXPECT_EQ(run({"--predictor", "cycle"}).name, "cycle");
  EXPECT_EQ(run({"--predictor=cycle"}).name, "cycle");
  EXPECT_TRUE(run({"--list-predictors"}).listed);

  // Unconsumed arguments come back in order, so callers can take them as
  // positionals or reject them — never silently drop them.
  const auto mixed = run({"other", "--predictor", "markov-2", "args"});
  EXPECT_EQ(mixed.name, "markov-2");
  EXPECT_EQ(mixed.rest, (std::vector<std::string>{"other", "args"}));
  EXPECT_EQ(run({"--predicter", "dpd"}).rest.size(), 2u);  // typo lands in rest

  const auto missing = run({"--predictor"});
  EXPECT_FALSE(missing.error.empty());

  const auto unknown = run({"--predictor", "bogus"});
  EXPECT_NE(unknown.error.find("bogus"), std::string::npos);
  EXPECT_NE(unknown.error.find("dpd"), std::string::npos);  // lists names

  // --list-predictors does not stop the parse, so a tool can reject a bad
  // flag or name given with it before it answers the listing request.
  const auto listed = run({"--bogus", "--list-predictors", "figure3"});
  EXPECT_TRUE(listed.listed);
  EXPECT_TRUE(listed.error.empty());
  EXPECT_EQ(listed.rest, (std::vector<std::string>{"--bogus", "figure3"}));
  EXPECT_NE(run({"--list-predictors", "--predictor", "bogus"}).error.find("bogus"),
            std::string::npos);
}

// Counts constructions of the factory registered by
// ParseValidatesWithoutConstructing below.
int g_counting_factory_constructions = 0;

TEST(PredictorRegistry, ParseValidatesWithoutConstructing) {
  // Register exactly once, so in-process repeats (--gtest_repeat) don't
  // trip the duplicate-name check; assertions below use deltas for the
  // same reason.
  [[maybe_unused]] static const bool registered = [] {
    PredictorRegistry::instance().add("test-counting", [](const PredictorOptions& o) {
      ++g_counting_factory_constructions;
      return std::make_unique<core::LastValuePredictor>(o.horizon);
    });
    return true;
  }();
  const int before = g_counting_factory_constructions;

  const auto run = [](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "prog");
    return parse_predictor_arg(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
  };

  // A valid name parses clean by registry lookup alone — the factory is
  // never invoked (it used to be constructed and discarded).
  const auto valid = run({"--predictor", "test-counting"});
  EXPECT_TRUE(valid.error.empty());
  EXPECT_EQ(valid.name, "test-counting");
  EXPECT_EQ(g_counting_factory_constructions, before);

  // An unknown name produces the registry's listed-names error, still
  // without constructing anything.
  const auto unknown = run({"--predictor", "no-such-name"});
  EXPECT_NE(unknown.error.find("no-such-name"), std::string::npos);
  EXPECT_NE(unknown.error.find("test-counting"), std::string::npos);
  EXPECT_EQ(g_counting_factory_constructions, before);

  // The parse error is the same message make() throws: one builder.
  try {
    (void)make_predictor("no-such-name");
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_EQ(unknown.error, e.what());
  }

  // make() still constructs for real.
  EXPECT_NE(make_predictor("test-counting"), nullptr);
  EXPECT_EQ(g_counting_factory_constructions, before + 1);
}

TEST(PredictorRegistry, AliasAndCanonicalBuildTheSamePredictor) {
  for (const auto& [canonical, alias] :
       {std::pair{"dpd-window", "windowed_dpd"}, std::pair{"last-value", "last_value"}}) {
    SCOPED_TRACE(alias);
    const auto a = make_predictor(canonical);
    const auto b = make_predictor(alias);
    EXPECT_EQ(a->name(), b->name());
    EXPECT_EQ(a->max_horizon(), b->max_horizon());
    EXPECT_EQ(a->footprint_bytes(), b->footprint_bytes());
  }
}

TEST(PredictorRegistry, FootprintIsNonZeroForEveryFamily) {
  for (const auto& name : builtin_predictor_names()) {
    SCOPED_TRACE(name);
    const auto predictor = make_predictor(name);
    EXPECT_GT(predictor->footprint_bytes(), 0u);
  }
}

/// Feeds `n` samples of a period-3 stream.
void feed(core::Predictor& predictor, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    predictor.observe(static_cast<core::Predictor::Value>(i % 3));
  }
}

TEST(PredictorRegistry, DpdFootprintIsObjectPlusRingPlusLagCounters) {
  // The exact layout bill of the paper's predictor: the object itself, a
  // sample ring split into two 4-byte halves (8 bytes a sample), and two
  // 4-byte counters (run and score) per compared lag. The arrays grow
  // with the stream (doubling from 16) and stop at exactly `window` and
  // `max_period` entries, also for a shape that is not a power of two;
  // reset() keeps what was allocated.
  const auto registered = make_predictor("dpd");
  const auto* dpd = dynamic_cast<const core::StreamPredictor*>(registered.get());
  ASSERT_NE(dpd, nullptr);
  const core::DpdConfig shapes[] = {dpd->config().dpd, {.window = 300, .max_period = 150}};
  for (const core::DpdConfig& cfg : shapes) {
    SCOPED_TRACE("window " + std::to_string(cfg.window));
    core::StreamPredictor predictor({.dpd = cfg});
    EXPECT_EQ(predictor.footprint_bytes(), sizeof(core::StreamPredictor));
    feed(predictor, 32);  // 32 samples ring, 31 lags compared
    EXPECT_EQ(predictor.footprint_bytes(), sizeof(core::StreamPredictor) + 32 * 8 + 2 * 32 * 4);
    feed(predictor, cfg.window - 32);
    const std::size_t full =
        sizeof(core::StreamPredictor) + cfg.window * 8 + 2 * cfg.max_period * 4;
    EXPECT_EQ(predictor.footprint_bytes(), full);
    feed(predictor, 3 * cfg.window);
    EXPECT_EQ(predictor.footprint_bytes(), full);
    predictor.reset();
    EXPECT_EQ(predictor.footprint_bytes(), full);
  }
  EXPECT_EQ(registered->footprint_bytes(), sizeof(core::StreamPredictor));
}

TEST(PredictorRegistry, WindowedDpdFootprintIsObjectPlusRingPlusLastMismatch) {
  // dpd-window's bill: the object, an 8-byte sample ring and one 8-byte
  // last-mismatch index per compared lag, grown the same way.
  const auto registered = make_predictor("dpd-window");
  ASSERT_NE(dynamic_cast<const core::WindowedDpdPredictor*>(registered.get()), nullptr);
  EXPECT_EQ(registered->footprint_bytes(), sizeof(core::WindowedDpdPredictor));
  const core::DpdConfig shapes[] = {{}, {.window = 300, .max_period = 150}};
  for (const core::DpdConfig& cfg : shapes) {
    SCOPED_TRACE("window " + std::to_string(cfg.window));
    core::WindowedDpdPredictor predictor(cfg);
    EXPECT_EQ(predictor.footprint_bytes(), sizeof(core::WindowedDpdPredictor));
    feed(predictor, 32);
    EXPECT_EQ(predictor.footprint_bytes(), sizeof(core::WindowedDpdPredictor) + 32 * 8 + 32 * 8);
    feed(predictor, cfg.window - 32);
    const std::size_t full =
        sizeof(core::WindowedDpdPredictor) + cfg.window * 8 + cfg.max_period * 8;
    EXPECT_EQ(predictor.footprint_bytes(), full);
    feed(predictor, 3 * cfg.window);
    EXPECT_EQ(predictor.footprint_bytes(), full);
    predictor.reset();
    EXPECT_EQ(predictor.footprint_bytes(), full);
  }
}

}  // namespace
}  // namespace mpipred::engine
