// Unit tests for the discrete-event substrate: fibers, RNG, network timing,
// engine scheduling, determinism and deadlock detection.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/network.hpp"
#include "sim/rng.hpp"

namespace mpipred::sim {
namespace {

/// Counts its own destruction: placed on a fiber's stack, it shows whether
/// that frame was unwound.
struct DestructionCounter {
  int* destroyed;
  ~DestructionCounter() { ++*destroyed; }
};

// ---------------------------------------------------------------- fibers --

TEST(Fiber, RunsBodyOnResume) {
  int calls = 0;
  Fiber f([&] { ++calls; });
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, YieldSuspendsAndResumeContinues) {
  std::vector<int> order;
  Fiber f([&] {
    order.push_back(1);
    Fiber::yield();
    order.push_back(3);
  });
  f.resume();
  order.push_back(2);
  f.resume();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, MultipleYields) {
  int steps = 0;
  Fiber f([&] {
    for (int i = 0; i < 5; ++i) {
      ++steps;
      Fiber::yield();
    }
  });
  for (int i = 1; i <= 5; ++i) {
    f.resume();
    EXPECT_EQ(steps, i);
  }
  EXPECT_FALSE(f.finished());
  f.resume();  // body loop ends
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, ExceptionPropagatesToResume) {
  Fiber f([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, CurrentTracksExecution) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* seen = nullptr;
  Fiber f([&] { seen = Fiber::current(); });
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, ResumeAfterFinishThrows) {
  Fiber f([] {});
  f.resume();
  EXPECT_THROW(f.resume(), UsageError);
}

TEST(Fiber, DestroyingSuspendedFiberUnwindsItsFrames) {
  int destroyed = 0;
  bool ran_past_yield = false;
  auto f = std::make_unique<Fiber>([&] {
    DestructionCounter guard{&destroyed};
    Fiber::yield();
    ran_past_yield = true;
  });
  f->resume();
  EXPECT_EQ(destroyed, 0);
  f.reset();
  EXPECT_EQ(destroyed, 1);
  EXPECT_FALSE(ran_past_yield);
}

TEST(Fiber, InterleavedFibersKeepTheirLocals) {
  // Locals (an integer hash, a small array and a double accumulator) live
  // across every switch; round-robin interleaving must leave each fiber's
  // result equal to the same computation run without any switch.
  constexpr int kFibers = 8;
  constexpr int kYields = 10'000;
  struct Result {
    std::uint64_t hash = 0;
    double acc = 0.0;
    std::int64_t cells = 0;
  };
  auto compute = [](int id, bool yield) {
    std::uint64_t hash = 1469598103934665603ULL ^ static_cast<std::uint64_t>(id);
    double acc = 0.25 * id;
    std::int64_t cells[4] = {id, 2 * id, 3 * id, 4 * id};
    for (int i = 0; i < kYields; ++i) {
      hash = (hash ^ static_cast<std::uint64_t>(i)) * 1099511628211ULL;
      acc += static_cast<double>(i % 7 + id) / 3.0;
      cells[i % 4] += i ^ id;
      if (yield) {
        Fiber::yield();
      }
    }
    return Result{hash, acc, cells[0] - cells[1] + cells[2] * 3 - cells[3]};
  };
  std::vector<Result> got(kFibers);
  std::vector<std::unique_ptr<Fiber>> fibers;
  for (int id = 0; id < kFibers; ++id) {
    Result& out = got[static_cast<std::size_t>(id)];
    fibers.push_back(std::make_unique<Fiber>([&out, &compute, id] { out = compute(id, true); }));
  }
  int resumes = 0;
  for (bool any_left = true; any_left;) {
    any_left = false;
    for (auto& f : fibers) {
      if (!f->finished()) {
        f->resume();
        ++resumes;
        any_left = true;
      }
    }
  }
  EXPECT_EQ(resumes, kFibers * (kYields + 1));
  for (int id = 0; id < kFibers; ++id) {
    const Result want = compute(id, /*yield=*/false);
    const Result& have = got[static_cast<std::size_t>(id)];
    EXPECT_EQ(have.hash, want.hash) << "fiber " << id;
    EXPECT_EQ(have.acc, want.acc) << "fiber " << id;
    EXPECT_EQ(have.cells, want.cells) << "fiber " << id;
  }
}

TEST(Fiber, ExceptionAfterManyYieldsPropagates) {
  int steps = 0;
  Fiber f([&] {
    for (int i = 0; i < 1000; ++i) {
      ++steps;
      Fiber::yield();
    }
    throw std::runtime_error("late boom");
  });
  for (int i = 0; i < 1000; ++i) {
    f.resume();
  }
  EXPECT_EQ(steps, 1000);
  EXPECT_FALSE(f.finished());
  try {
    f.resume();
    FAIL() << "expected the body's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "late boom");
  }
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, NestedFibersResumeEachOther) {
  // Scheduler-level interleaving of two fibers.
  std::vector<int> order;
  Fiber a([&] {
    order.push_back(1);
    Fiber::yield();
    order.push_back(4);
  });
  Fiber b([&] {
    order.push_back(2);
    Fiber::yield();
    order.push_back(5);
  });
  a.resume();
  b.resume();
  order.push_back(3);
  a.resume();
  b.resume();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

// ------------------------------------------------------------------- rng --

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += (a() == b()) ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, BelowStaysInRange) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(r.below(17), 17u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng r(11);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 8000; ++i) {
    ++seen[r.below(8)];
  }
  for (const int c : seen) {
    EXPECT_GT(c, 500);  // roughly uniform
  }
}

TEST(Rng, LognormalFactorHasUnitMean) {
  Rng r(13);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    sum += r.lognormal_factor(0.3);
  }
  EXPECT_NEAR(sum / kN, 1.0, 0.01);
}

TEST(Rng, LognormalFactorZeroCvIsExactlyOne) {
  Rng r(13);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(r.lognormal_factor(0.0), 1.0);
  }
}

TEST(Rng, DeriveSeedSeparatesStreams) {
  EXPECT_NE(derive_seed(42, 0), derive_seed(42, 1));
  EXPECT_NE(derive_seed(42, 0), derive_seed(43, 0));
}

// --------------------------------------------------------------- network --

TEST(Network, BaseTimingWithoutNoise) {
  NetworkConfig cfg;
  cfg.send_overhead = SimTime{1000};
  cfg.recv_overhead = SimTime{500};
  cfg.latency = SimTime{10000};
  cfg.gap_ns_per_byte = 2.0;
  cfg.latency_jitter_cv = 0.0;
  Network net(2, cfg, 42);

  const auto t = net.plan_transfer(0, 1, 100, SimTime{0});
  EXPECT_EQ(t.sender_free, SimTime{1000});
  // xmit starts at 1000, takes 200, wire 10000, recv overhead 500.
  EXPECT_EQ(t.delivery, SimTime{1000 + 200 + 10000 + 500});
}

TEST(Network, SendNicSerializesBackToBackMessages) {
  NetworkConfig cfg;
  cfg.send_overhead = SimTime{0};
  cfg.recv_overhead = SimTime{0};
  cfg.latency = SimTime{0};
  cfg.gap_ns_per_byte = 1.0;
  Network net(3, cfg, 42);

  const auto a = net.plan_transfer(0, 1, 1000, SimTime{0});
  const auto b = net.plan_transfer(0, 2, 1000, SimTime{0});
  // Second transfer queues behind the first on the sender NIC.
  EXPECT_GE(b.delivery, a.delivery + SimTime{999});
}

TEST(Network, PerPairFifoHoldsUnderJitter) {
  NetworkConfig cfg;
  cfg.latency_jitter_cv = 1.5;  // violent jitter
  Network net(2, cfg, 7);

  SimTime last{0};
  for (int i = 0; i < 500; ++i) {
    const auto t = net.plan_transfer(0, 1, 64, SimTime{i * 10});
    EXPECT_GT(t.delivery, last);  // never overtakes
    last = t.delivery;
  }
}

TEST(Network, CrossSenderReorderingHappensUnderJitter) {
  NetworkConfig cfg;
  cfg.latency_jitter_cv = 1.0;
  Network net(3, cfg, 11);

  // Two senders to one receiver, planned in alternating order at identical
  // times; with jitter, arrival order sometimes inverts plan order.
  int inversions = 0;
  for (int i = 0; i < 200; ++i) {
    const auto a = net.plan_transfer(0, 2, 64, SimTime{i * 1000});
    const auto b = net.plan_transfer(1, 2, 64, SimTime{i * 1000});
    inversions += (b.delivery < a.delivery) ? 1 : 0;
  }
  EXPECT_GT(inversions, 10);
  EXPECT_LT(inversions, 190);
}

TEST(Network, RejectsBadArguments) {
  Network net(2, NetworkConfig{}, 1);
  EXPECT_THROW((void)net.plan_transfer(-1, 0, 10, SimTime{0}), UsageError);
  EXPECT_THROW((void)net.plan_transfer(0, 2, 10, SimTime{0}), UsageError);
  EXPECT_THROW((void)net.plan_transfer(0, 1, -5, SimTime{0}), UsageError);
}

// ---------------------------------------------------------------- engine --

TEST(Engine, RunsAllRanksToCompletion) {
  Engine eng(4);
  std::vector<int> ran(4, 0);
  eng.run([&](Rank& r) { ran[static_cast<std::size_t>(r.id())] = 1; });
  EXPECT_EQ(std::accumulate(ran.begin(), ran.end(), 0), 4);
}

TEST(Engine, ComputeAdvancesSimulatedTime) {
  Engine eng(1);
  SimTime end{0};
  eng.run([&](Rank& r) {
    r.compute_exact(SimTime{5000});
    r.compute_exact(SimTime{2500});
    end = r.now();
  });
  EXPECT_EQ(end, SimTime{7500});
  EXPECT_EQ(eng.stats().final_time, SimTime{7500});
}

TEST(Engine, RanksAdvanceIndependently) {
  Engine eng(2);
  std::vector<SimTime> ends(2);
  eng.run([&](Rank& r) {
    r.compute_exact(SimTime{(r.id() + 1) * 1000});
    ends[static_cast<std::size_t>(r.id())] = r.now();
  });
  EXPECT_EQ(ends[0], SimTime{1000});
  EXPECT_EQ(ends[1], SimTime{2000});
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine eng(1);
  std::vector<int> order;
  eng.run([&](Rank& r) {
    r.engine().schedule(SimTime{300}, [&] { order.push_back(3); });
    r.engine().schedule(SimTime{100}, [&] { order.push_back(1); });
    r.engine().schedule(SimTime{200}, [&] { order.push_back(2); });
    r.compute_exact(SimTime{1000});
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SameTimeEventsFireFifo) {
  Engine eng(1);
  std::vector<int> order;
  eng.run([&](Rank& r) {
    for (int i = 0; i < 10; ++i) {
      r.engine().schedule(SimTime{100}, [&order, i] { order.push_back(i); });
    }
    r.compute_exact(SimTime{1000});
  });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(Engine, BlockUnblockRoundTrip) {
  Engine eng(2);
  bool flag = false;
  eng.run([&](Rank& r) {
    if (r.id() == 0) {
      while (!flag) {
        r.block("waiting for rank 1");
      }
    } else {
      r.compute_exact(SimTime{500});
      flag = true;
      r.engine().rank(0).unblock();
    }
  });
  EXPECT_TRUE(flag);
}

TEST(Engine, SpuriousUnblockDoesNotBreakCompute) {
  // compute_exact must survive being woken early by unrelated events.
  Engine eng(2);
  SimTime end{0};
  eng.run([&](Rank& r) {
    if (r.id() == 0) {
      r.compute_exact(SimTime{10000});
      end = r.now();
    } else {
      for (int i = 1; i <= 5; ++i) {
        r.engine().schedule(SimTime{i * 1000}, [&eng] { eng.rank(0).unblock(); });
      }
    }
  });
  EXPECT_EQ(end, SimTime{10000});
}

TEST(Engine, DeadlockIsDetectedAndDescribed) {
  // The error text is built while the ranks are still blocked; then every
  // rank frame is destroyed and no rank is left blocked before run()
  // returns.
  Engine eng(3);
  int destroyed = 0;
  try {
    eng.run([&](Rank& r) {
      DestructionCounter guard{&destroyed};
      if (r.id() == 0) {
        r.block("recv that never matches");
      } else if (r.id() == 1) {
        r.block("wait for rank 2");
      }
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_STREQ(e.what(),
                 "simulation ran out of events with unfinished ranks:"
                 "\n  rank 0: recv that never matches"
                 "\n  rank 1: wait for rank 2");
    EXPECT_EQ(destroyed, 3);
    for (int r = 0; r < eng.nranks(); ++r) {
      EXPECT_FALSE(eng.rank(r).blocked()) << "rank " << r;
    }
  }
}

TEST(Engine, RankExceptionPropagates) {
  // The blocked peer's frames are unwound before the exception leaves run().
  Engine eng(2);
  int destroyed = 0;
  EXPECT_THROW(eng.run([&](Rank& r) {
                 DestructionCounter guard{&destroyed};
                 if (r.id() == 0) {
                   r.block("waits for a rank that fails");
                 } else {
                   throw std::logic_error("rank failure");
                 }
               }),
               std::logic_error);
  EXPECT_EQ(destroyed, 2);
}

TEST(Engine, ComputeJitterChangesDurations) {
  EngineConfig cfg;
  cfg.network.compute_jitter_cv = 0.5;
  Engine eng(1, cfg);
  SimTime end{0};
  eng.run([&](Rank& r) {
    for (int i = 0; i < 100; ++i) {
      r.compute(SimTime{1000});
    }
    end = r.now();
  });
  EXPECT_NE(end, SimTime{100000});  // jitter moved it
  EXPECT_GT(end, SimTime{30000});   // but stayed sane
  EXPECT_LT(end, SimTime{400000});
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    EngineConfig cfg;
    cfg.seed = 99;
    cfg.network.compute_jitter_cv = 0.3;
    Engine eng(4, cfg);
    SimTime end{0};
    eng.run([&](Rank& r) {
      for (int i = 0; i < 50; ++i) {
        r.compute(SimTime{1000});
      }
      end = std::max(end, r.now());
    });
    return end;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, SeedChangesOutcome) {
  auto run_once = [](std::uint64_t seed) {
    EngineConfig cfg;
    cfg.seed = seed;
    cfg.network.compute_jitter_cv = 0.3;
    Engine eng(2, cfg);
    SimTime end{0};
    eng.run([&](Rank& r) {
      for (int i = 0; i < 50; ++i) {
        r.compute(SimTime{1000});
      }
      end = std::max(end, r.now());
    });
    return end;
  };
  EXPECT_NE(run_once(1), run_once(2));
}

TEST(Engine, CannotRunTwice) {
  Engine eng(1);
  eng.run([](Rank&) {});
  EXPECT_THROW(eng.run([](Rank&) {}), UsageError);
}

TEST(Engine, StatsCountEvents) {
  Engine eng(2);
  eng.run([](Rank& r) { r.compute_exact(SimTime{10}); });
  EXPECT_GT(eng.stats().events_processed, 0);
  EXPECT_GT(eng.stats().context_switches, 0);
}

}  // namespace
}  // namespace mpipred::sim
