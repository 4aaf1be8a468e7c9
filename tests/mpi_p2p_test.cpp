// Point-to-point semantics of the simulated MPI layer: blocking and
// nonblocking transfers, wildcards, tags, ordering guarantees, the
// eager/rendezvous protocol boundary, and the trace hooks.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <tuple>
#include <vector>

#include "adaptive/policy.hpp"
#include "common/error.hpp"
#include "mpi/communicator.hpp"
#include "mpi/typed.hpp"
#include "mpi/world.hpp"
#include "trace/stream.hpp"

namespace mpipred::mpi {
namespace {

using trace::Level;

template <typename T>
std::vector<T> iota_vec(std::size_t n, T start = T{}) {
  std::vector<T> v(n);
  std::iota(v.begin(), v.end(), start);
  return v;
}

TEST(P2P, BlockingSendRecvDeliversPayload) {
  World world(2);
  std::vector<std::int32_t> got(4);
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      const auto data = iota_vec<std::int32_t>(4, 10);
      send_n<std::int32_t>(comm, data, 1, 7);
    } else {
      const Status st = recv_n<std::int32_t>(comm, got, 0, 7);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, 16);
    }
  });
  EXPECT_EQ(got, iota_vec<std::int32_t>(4, 10));
}

TEST(P2P, RecvBeforeSendAndAfterSendBothWork) {
  // Late receiver: the message waits in the unexpected queue. Early
  // receiver: the recv waits in the posted queue. Both must deliver.
  for (const bool receiver_first : {true, false}) {
    World world(2);
    std::int64_t got = 0;
    world.run([&](Communicator& comm) {
      if (comm.rank() == 0) {
        if (!receiver_first) {
          comm.compute(sim::SimTime{1'000'000});
        }
        send_value<std::int64_t>(comm, 42, 1);
      } else {
        if (receiver_first) {
          comm.compute(sim::SimTime{1'000'000});
        }
        got = recv_value<std::int64_t>(comm, 0);
      }
    });
    EXPECT_EQ(got, 42) << "receiver_first=" << receiver_first;
  }
}

TEST(P2P, TagsSelectMessages) {
  World world(2);
  std::int32_t first = 0;
  std::int32_t second = 0;
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      send_value<std::int32_t>(comm, 1, 1, /*tag=*/5);
      send_value<std::int32_t>(comm, 2, 1, /*tag=*/6);
    } else {
      // Receive in reverse tag order: matching is by tag, not arrival.
      second = recv_value<std::int32_t>(comm, 0, /*tag=*/6);
      first = recv_value<std::int32_t>(comm, 0, /*tag=*/5);
    }
  });
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);
}

TEST(P2P, AnySourceMatchesArrivalOrder) {
  World world(3);
  std::vector<int> sources;
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 2; ++i) {
        std::int32_t v = 0;
        const Status st = comm.recv(std::as_writable_bytes(std::span{&v, 1}), kAnySource, 3);
        sources.push_back(st.source);
      }
    } else {
      // Rank 2 delays so rank 1 arrives first deterministically.
      if (comm.rank() == 2) {
        comm.compute(sim::SimTime{1'000'000});
      }
      send_value<std::int32_t>(comm, comm.rank(), 0, 3);
    }
  });
  EXPECT_EQ(sources, (std::vector<int>{1, 2}));
}

TEST(P2P, AnyTagMatchesUserTagsOnly) {
  World world(2);
  Status st{};
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      send_value<std::int32_t>(comm, 9, 1, /*tag=*/42);
    } else {
      std::int32_t v = 0;
      st = comm.recv(std::as_writable_bytes(std::span{&v, 1}), 0, kAnyTag);
    }
  });
  EXPECT_EQ(st.tag, 42);
}

TEST(P2P, PerPairOrderingHoldsUnderHeavyJitter) {
  WorldConfig cfg;
  cfg.engine.network.latency_jitter_cv = 1.0;
  World world(2, cfg);
  std::vector<std::int32_t> got;
  world.run([&](Communicator& comm) {
    constexpr int kN = 200;
    if (comm.rank() == 0) {
      for (std::int32_t i = 0; i < kN; ++i) {
        send_value<std::int32_t>(comm, i, 1);
      }
    } else {
      for (int i = 0; i < kN; ++i) {
        got.push_back(recv_value<std::int32_t>(comm, 0));
      }
    }
  });
  EXPECT_EQ(got, iota_vec<std::int32_t>(200));
}

TEST(P2P, NonblockingSendRecvCompleteOutOfOrder) {
  World world(2);
  std::vector<std::int32_t> a(2);
  std::vector<std::int32_t> b(2);
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      auto r1 = isend_n<std::int32_t>(comm, std::vector<std::int32_t>{1, 2}, 1, 1);
      auto r2 = isend_n<std::int32_t>(comm, std::vector<std::int32_t>{3, 4}, 1, 2);
      r2.wait();
      r1.wait();
    } else {
      auto r2 = irecv_n<std::int32_t>(comm, b, 0, 2);
      auto r1 = irecv_n<std::int32_t>(comm, a, 0, 1);
      r1.wait();
      r2.wait();
    }
  });
  EXPECT_EQ(a, (std::vector<std::int32_t>{1, 2}));
  EXPECT_EQ(b, (std::vector<std::int32_t>{3, 4}));
}

TEST(P2P, SendToSelfWorks) {
  World world(1);
  std::int32_t got = 0;
  world.run([&](Communicator& comm) {
    auto rr = comm.irecv(std::as_writable_bytes(std::span{&got, 1}), 0, 9);
    send_value<std::int32_t>(comm, 77, 0, 9);
    rr.wait();
  });
  EXPECT_EQ(got, 77);
}

TEST(P2P, RendezvousTransfersLargePayloads) {
  WorldConfig cfg;
  cfg.eager_threshold_bytes = 1024;
  World world(2, cfg);
  std::vector<std::int32_t> got(4096);
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      send_n<std::int32_t>(comm, iota_vec<std::int32_t>(4096), 1);
    } else {
      recv_n<std::int32_t>(comm, got, 0);
    }
  });
  EXPECT_EQ(got, iota_vec<std::int32_t>(4096));
  // 16 KiB > 1 KiB threshold: must have used the rendezvous path.
  EXPECT_EQ(world.endpoint(1).counters().rendezvous_received, 1);
  EXPECT_EQ(world.endpoint(1).counters().eager_received, 0);
}

TEST(P2P, EagerAtThresholdRendezvousAbove) {
  WorldConfig cfg;
  cfg.eager_threshold_bytes = 64;
  World world(2, cfg);
  world.run([&](Communicator& comm) {
    std::vector<std::byte> buf64(64);
    std::vector<std::byte> buf65(65);
    if (comm.rank() == 0) {
      comm.send(buf64, 1, 1);
      comm.send(buf65, 1, 2);
    } else {
      comm.recv(buf64, 0, 1);
      comm.recv(buf65, 0, 2);
    }
  });
  EXPECT_EQ(world.endpoint(1).counters().eager_received, 1);
  EXPECT_EQ(world.endpoint(1).counters().rendezvous_received, 1);
}

TEST(P2P, RendezvousIsSlowerThanEagerOfSameSize) {
  // The same payload, once under a generous threshold (eager) and once
  // under a tiny one (rendezvous): the handshake must cost extra latency.
  auto time_one = [](std::int64_t threshold) {
    WorldConfig cfg;
    cfg.eager_threshold_bytes = threshold;
    World world(2, cfg);
    sim::SimTime done{0};
    world.run([&](Communicator& comm) {
      std::vector<std::byte> buf(8192);
      if (comm.rank() == 0) {
        comm.send(buf, 1, 0);
      } else {
        comm.recv(buf, 0, 0);
        done = comm.sim_rank().now();
      }
    });
    return done;
  };
  EXPECT_GT(time_one(64), time_one(1 << 20));
}

TEST(P2P, TruncationThrows) {
  World world(2);
  EXPECT_THROW(world.run([&](Communicator& comm) {
                 if (comm.rank() == 0) {
                   std::vector<std::byte> big(128);
                   comm.send(big, 1, 0);
                 } else {
                   std::vector<std::byte> small(16);
                   comm.recv(small, 0, 0);
                 }
               }),
               UsageError);
}

TEST(P2P, SendRecvExchangesWithoutDeadlock) {
  World world(2);
  std::vector<std::int64_t> got(2, -1);
  world.run([&](Communicator& comm) {
    const std::int64_t mine = comm.rank() * 100;
    std::int64_t theirs = -1;
    const int peer = 1 - comm.rank();
    comm.sendrecv(std::as_bytes(std::span{&mine, 1}), peer, 0,
                  std::as_writable_bytes(std::span{&theirs, 1}), peer, 0);
    got[static_cast<std::size_t>(comm.rank())] = theirs;
  });
  EXPECT_EQ(got[0], 100);
  EXPECT_EQ(got[1], 0);
}

TEST(P2P, UnmatchedRecvDeadlocks) {
  World world(2);
  EXPECT_THROW(world.run([&](Communicator& comm) {
                 if (comm.rank() == 0) {
                   std::int32_t v = 0;
                   comm.recv(std::as_writable_bytes(std::span{&v, 1}), 1, 0);
                 }
               }),
               DeadlockError);
}

TEST(P2P, InvalidArgumentsThrow) {
  World world(2);
  EXPECT_THROW(world.run([&](Communicator& comm) {
                 std::int32_t v = 0;
                 if (comm.rank() == 0) {
                   comm.send(std::as_bytes(std::span{&v, 1}), 5, 0);  // no such rank
                 }
               }),
               UsageError);
  World world2(2);
  EXPECT_THROW(world2.run([&](Communicator& comm) {
                 std::int32_t v = 0;
                 if (comm.rank() == 0) {
                   comm.send(std::as_bytes(std::span{&v, 1}), 1, -3);  // negative tag
                 }
               }),
               UsageError);
}

// -------------------------------------------------- request semantics --

TEST(P2P, TestDrivesProgress) {
  // MPI_Test semantics: a rank spinning on test() without ever blocking
  // must still observe completion — each unsuccessful test() drives one
  // progress step and lets one poll quantum of simulated time pass.
  // Before the async front-end, test() was a pure flag probe: simulated
  // time froze under the spin and no iteration count could complete it.
  World world(2);
  std::int32_t v = 0;  // outlives the fibers
  bool completed = false;
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.compute(sim::SimTime{1'000'000});
      send_value<std::int32_t>(comm, 7, 1);
    } else {
      Request r = comm.irecv(std::as_writable_bytes(std::span{&v, 1}), 0, 0);
      for (int spin = 0; spin < 100'000 && !r.test(); ++spin) {
      }
      completed = r.test();
    }
  });
  EXPECT_TRUE(completed);
  EXPECT_EQ(v, 7);
}

TEST(P2P, WaitFromForeignRankThrows) {
  // A request is bound to the rank that created it. Waiting on it from a
  // different rank would block the *owner's* rank state from the caller's
  // fiber; before the fix this corrupted the scheduler and surfaced as a
  // spurious DeadlockError. Now it is a diagnosed usage error.
  World world(2);
  std::vector<std::byte> buf(4);  // outlives the fibers
  Request shared_req;
  std::string error;
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      shared_req = comm.irecv(buf, 1, 9);
    } else {
      comm.compute(sim::SimTime{1'000});  // let rank 0 post first
      try {
        shared_req.wait();
      } catch (const UsageError& e) {
        error = e.what();
      }
    }
  });
  EXPECT_NE(error.find("owning rank"), std::string::npos) << "got: " << error;
}

TEST(P2P, WaitAllSkipsNullRequests) {
  World world(2);
  std::int32_t a = 0;
  std::int32_t b = 0;
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      send_value<std::int32_t>(comm, 1, 1, /*tag=*/4);
      send_value<std::int32_t>(comm, 2, 1, /*tag=*/5);
    } else {
      std::vector<Request> reqs(4);  // null entries interleaved with live ones
      reqs[1] = comm.irecv(std::as_writable_bytes(std::span{&a, 1}), 0, 4);
      reqs[3] = comm.irecv(std::as_writable_bytes(std::span{&b, 1}), 0, 5);
      Request::wait_all(reqs);
      EXPECT_TRUE(reqs[1].ready());
      EXPECT_TRUE(reqs[3].ready());
    }
  });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(P2P, WaitAllReportsWhichRequestBlocks) {
  // A deadlocked wait_all must name the stuck operation, not report a
  // generic wait(recv) — that is the difference between a fixable
  // diagnostic and a guessing game at 16 ranks.
  World world(2);
  std::int32_t v = 0;
  try {
    world.run([&](Communicator& comm) {
      if (comm.rank() != 0) {
        return;
      }
      std::vector<Request> reqs(2);
      reqs[1] = comm.irecv(std::as_writable_bytes(std::span{&v, 1}), 1, 3);
      Request::wait_all(reqs);
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("wait_all"), std::string::npos) << "got: " << msg;
    EXPECT_NE(msg.find("recv(src=1, tag=3)"), std::string::npos) << "got: " << msg;
  }
}

// ------------------------------------------------------------- tracing --

TEST(P2PTrace, LogicalRecordsPostOrderPhysicalRecordsArrival) {
  World world(3);
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      std::int32_t a = 0;
      std::int32_t b = 0;
      // Post recv from 1 first, then from 2; but 2's message arrives first
      // (rank 1 delays before sending).
      auto r1 = comm.irecv(std::as_writable_bytes(std::span{&a, 1}), 1, 0);
      auto r2 = comm.irecv(std::as_writable_bytes(std::span{&b, 1}), 2, 0);
      r1.wait();
      r2.wait();
    } else {
      if (comm.rank() == 1) {
        comm.compute(sim::SimTime{5'000'000});
      }
      send_value<std::int32_t>(comm, comm.rank(), 0, 0);
    }
  });
  const auto logical = trace::extract_streams(world.traces(), 0, Level::Logical);
  const auto physical = trace::extract_streams(world.traces(), 0, Level::Physical);
  ASSERT_EQ(logical.senders.size(), 2u);
  ASSERT_EQ(physical.senders.size(), 2u);
  EXPECT_EQ(logical.senders, (std::vector<std::int64_t>{1, 2}));   // program order
  EXPECT_EQ(physical.senders, (std::vector<std::int64_t>{2, 1}));  // arrival order
}

TEST(P2PTrace, WildcardLogicalSenderIsResolved) {
  World world(2);
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      std::int32_t v = 0;
      comm.recv(std::as_writable_bytes(std::span{&v, 1}), kAnySource, kAnyTag);
    } else {
      send_value<std::int32_t>(comm, 5, 0, 8);
    }
  });
  const auto recs = world.traces().records(0, Level::Logical);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].sender, 1);
  EXPECT_EQ(recs[0].bytes, 4);
}

TEST(P2PTrace, NoiseFreePhysicalOrderEqualsLogicalOrder) {
  // With zero jitter, both levels must see identical sender sequences for
  // a deterministic exchange pattern.
  World world(4);
  world.run([&](Communicator& comm) {
    const int p = comm.size();
    for (int round = 0; round < 5; ++round) {
      for (int offset = 1; offset < p; ++offset) {
        const int dst = (comm.rank() + offset) % p;
        const int src = (comm.rank() - offset + p) % p;
        std::int64_t in = 0;
        const std::int64_t outv = comm.rank();
        comm.sendrecv(std::as_bytes(std::span{&outv, 1}), dst, 0,
                      std::as_writable_bytes(std::span{&in, 1}), src, 0);
      }
    }
  });
  for (int r = 0; r < 4; ++r) {
    const auto logical = trace::extract_streams(world.traces(), r, Level::Logical);
    const auto physical = trace::extract_streams(world.traces(), r, Level::Physical);
    EXPECT_EQ(logical.senders, physical.senders) << "rank " << r;
    EXPECT_EQ(logical.sizes, physical.sizes) << "rank " << r;
  }
}

// ------------------------------------------------- priced fallbacks --
// §2.2: an eager payload that lands with no posted receive bounces through
// the unexpected pool, and under NetworkConfig::fallback_cost the receiver
// pays the ask-permission round-trip (two crossings) before the parked
// bytes become usable. These tests pin the exact simulated-time deltas.

TEST(P2PPriced, UnexpectedEagerPaysExactRoundTrip) {
  // One forced pre-post miss: the sender fires immediately, the receiver
  // posts late. With zero jitter and no skew the round-trip is exactly
  // 2 * fallback_cost, so raising the knob by dC must move final_time by
  // exactly 2 * dC — the delta pins the two-crossing price without
  // hand-computing absolute arrival times.
  auto final_time = [](std::int64_t fallback_ns) {
    WorldConfig cfg;
    cfg.engine.network.fallback_cost = sim::SimTime{fallback_ns};
    World world(2, cfg);
    world.run([&](Communicator& comm) {
      std::vector<std::byte> buf(512);
      if (comm.rank() == 0) {
        comm.send(buf, 1, 0);
      } else {
        comm.compute(sim::SimTime{1'000'000});  // arrival parks first
        comm.recv(buf, 0, 0);
      }
    });
    EXPECT_EQ(world.aggregate_counters().fallback_round_trips, fallback_ns > 0 ? 1 : 0);
    return world.engine().stats().final_time;
  };
  const auto unpriced = final_time(0);
  const auto priced = final_time(2'000'000);
  const auto priced_more = final_time(3'000'000);
  // Pre-PR behavior was the free bounce: pricing must strictly slow it.
  EXPECT_GT(priced, unpriced);
  // Ask + grant: two crossings, each dC longer.
  EXPECT_EQ(priced_more - priced, sim::SimTime{2'000'000});
}

TEST(P2PPriced, PostedMatchNeverPaysTheFallback) {
  // Same exchange with the receive posted before the payload arrives: the
  // arrival matches immediately, never touches the unexpected pool, and
  // the priced world must finish at exactly the unpriced time.
  auto final_time = [](std::int64_t fallback_ns) {
    WorldConfig cfg;
    cfg.engine.network.fallback_cost = sim::SimTime{fallback_ns};
    World world(2, cfg);
    world.run([&](Communicator& comm) {
      std::vector<std::byte> buf(512);
      if (comm.rank() == 0) {
        comm.compute(sim::SimTime{1'000'000});  // recv posts first
        comm.send(buf, 1, 0);
      } else {
        comm.recv(buf, 0, 0);
      }
    });
    EXPECT_EQ(world.aggregate_counters().fallback_round_trips, 0);
    return world.engine().stats().final_time;
  };
  EXPECT_EQ(final_time(2'000'000), final_time(0));
}

TEST(P2PPriced, RendezvousControlTrafficIsNeverCharged) {
  // A late-recv rendezvous exchange parks only the RTS (control bytes) in
  // the unexpected pool. Control arrivals must not pay the fallback: the
  // handshake already is the ask-permission protocol.
  auto final_time = [](std::int64_t fallback_ns) {
    WorldConfig cfg;
    cfg.eager_threshold_bytes = 1024;
    cfg.engine.network.fallback_cost = sim::SimTime{fallback_ns};
    World world(2, cfg);
    world.run([&](Communicator& comm) {
      std::vector<std::byte> buf(8192);
      if (comm.rank() == 0) {
        comm.send(buf, 1, 0);
      } else {
        comm.compute(sim::SimTime{1'000'000});  // RTS parks unexpected
        comm.recv(buf, 0, 0);
      }
    });
    const auto c = world.aggregate_counters();
    EXPECT_EQ(c.rendezvous_received, 1);
    EXPECT_EQ(c.fallback_round_trips, 0);
    return world.engine().stats().final_time;
  };
  EXPECT_EQ(final_time(2'000'000), final_time(0));
}

TEST(P2PPriced, ElisionSavingsMatchTheNominalHandshake) {
  // A warmed-up adaptive receiver elides the RTS/CTS for anticipated large
  // sends. With zero jitter every elision saves the same two control
  // transfers, so the policy's elision_saved_ns ledger must equal
  // elided-count times the network's nominal handshake price — and the
  // elided world must actually finish earlier than the static one.
  // Pre-posting runs too; it never changes the handshake price.
  auto run_once = [](bool adaptive) {
    WorldConfig cfg;
    cfg.eager_threshold_bytes = 1024;
    cfg.adaptive.enabled = adaptive;
    cfg.adaptive.service.engine.shards = 1;
    World world(2, cfg);
    std::int64_t elided = 0;
    std::int64_t saved = 0;
    double nominal = 0.0;
    world.run([&](Communicator& comm) {
      std::vector<std::byte> buf(8192);
      for (int i = 0; i < 12; ++i) {
        if (comm.rank() == 0) {
          comm.send(buf, 1, i);
        } else {
          comm.compute(sim::SimTime{1'000'000});
          comm.recv(buf, 0, i);
        }
      }
    });
    if (const auto* policy = world.adaptive_policy()) {
      elided = world.aggregate_counters().rendezvous_elided;
      saved = policy->stats().elision_saved_ns;
      nominal = world.engine().network().nominal_handshake_ns(0, 1, kControlBytes);
    }
    return std::tuple{world.engine().stats().final_time, elided, saved, nominal};
  };
  const auto [static_time, s_elided, s_saved, s_nominal] = run_once(false);
  const auto [adaptive_time, elided, saved, nominal] = run_once(true);
  EXPECT_EQ(s_elided, 0);
  EXPECT_EQ(s_saved, 0);
  ASSERT_GT(elided, 0);
  EXPECT_EQ(saved, elided * std::llround(nominal));
  EXPECT_LT(adaptive_time, static_time);
}

TEST(P2PTrace, CountersTrackUnexpectedBytes) {
  World world(2);
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<std::byte> buf(512);
      comm.send(buf, 1, 0);
    } else {
      comm.compute(sim::SimTime{10'000'000});  // let it sit unexpected
      std::vector<std::byte> buf(512);
      comm.recv(buf, 0, 0);
    }
  });
  EXPECT_EQ(world.endpoint(1).counters().unexpected_arrivals, 1);
  EXPECT_EQ(world.endpoint(1).counters().unexpected_bytes_peak, 512);
  EXPECT_EQ(world.endpoint(1).counters().unexpected_bytes_now, 0);
}

}  // namespace
}  // namespace mpipred::mpi
