// The predictor registry: every built-in family constructible by name,
// options plumbed through, clone_fresh round-trips, duplicate and unknown
// names rejected.

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/error.hpp"
#include "core/baselines/last_value.hpp"
#include "core/stream_predictor.hpp"
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

TEST(PredictorRegistry, DpdFootprintIsObjectPlusRingPlusLagCounters) {
  // The exact layout bill of the paper's predictor: the object itself, an
  // 8-byte sample ring of `window` entries, and two 8-byte counters (run
  // and score) per candidate lag.
  const auto predictor = make_predictor("dpd");
  const auto* dpd = dynamic_cast<const core::StreamPredictor*>(predictor.get());
  ASSERT_NE(dpd, nullptr);
  const core::DpdConfig& cfg = dpd->config().dpd;
  EXPECT_EQ(predictor->footprint_bytes(),
            sizeof(core::StreamPredictor) + cfg.window * 8 + 2 * cfg.max_period * 8);
}

}  // namespace
}  // namespace mpipred::engine
