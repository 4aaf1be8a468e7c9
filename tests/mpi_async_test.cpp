// The async front-end contract: future completion (ready/test/wait),
// then() continuations, the per-endpoint recv-notify hook, the explicit
// progress() loop, cancellation, and the unexpected-queue byte accounting
// the progress tasks maintain.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "mpi/communicator.hpp"
#include "mpi/typed.hpp"
#include "mpi/world.hpp"

namespace mpipred::mpi {
namespace {

WorldConfig adaptive_config() {
  WorldConfig cfg;
  cfg.adaptive.enabled = true;
  cfg.adaptive.service.engine.shards = 1;
  return cfg;
}

// ------------------------------------------------- futures & callbacks --

TEST(Async, ThenRunsBeforeOwnerResumes) {
  World world(2);
  std::int32_t v = 0;
  bool callback_ran = false;
  bool callback_before_wait_returned = false;
  Status seen{};
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      send_value<std::int32_t>(comm, 5, 1, 3);
    } else {
      Request r = comm.irecv(std::as_writable_bytes(std::span{&v, 1}), 0, 3);
      r.then([&](const Status& st) {
        callback_ran = true;
        seen = st;
      });
      r.wait();
      callback_before_wait_returned = callback_ran;
    }
  });
  EXPECT_TRUE(callback_ran);
  EXPECT_TRUE(callback_before_wait_returned);
  EXPECT_EQ(seen.source, 0);
  EXPECT_EQ(seen.tag, 3);
  EXPECT_EQ(seen.bytes, 4);
  EXPECT_EQ(v, 5);
}

TEST(Async, ThenOnCompletedOperationRunsImmediately) {
  World world(2);
  int calls = 0;
  world.run([&](Communicator& comm) {
    std::int32_t v = 0;
    if (comm.rank() == 0) {
      Request s = comm.isend(std::as_bytes(std::span{&v, 1}), 1, 0);
      s.wait();
      s.then([&](const Status& st) {
        ++calls;
        EXPECT_EQ(st.source, 1);  // send status carries the destination
        EXPECT_EQ(st.bytes, 4);
      });
      EXPECT_EQ(calls, 1);
    } else {
      comm.recv(std::as_writable_bytes(std::span{&v, 1}), 0, 0);
    }
  });
  EXPECT_EQ(calls, 1);
}

TEST(Async, RecvCallbackOverloadDelivers) {
  World world(2);
  std::int32_t v = 0;
  std::vector<int> sources;
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.compute(sim::SimTime{500'000});
      send_value<std::int32_t>(comm, 11, 1, 2);
    } else {
      Request r = comm.irecv(std::as_writable_bytes(std::span{&v, 1}), 0, 2,
                             [&](const Status& st) { sources.push_back(st.source); });
      r.wait();
    }
  });
  EXPECT_EQ(v, 11);
  EXPECT_EQ(sources, (std::vector<int>{0}));
}

TEST(Async, RecvNotifyHookSeesEveryCompletedReceive) {
  World world(2);
  int notified = 0;
  std::int64_t notified_bytes = 0;
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      for (std::int32_t i = 0; i < 3; ++i) {
        send_value<std::int32_t>(comm, i, 1, i);
      }
    } else {
      comm.on_recv_complete([&](const Status& st) {
        ++notified;
        notified_bytes += st.bytes;
      });
      for (int i = 0; i < 3; ++i) {
        (void)recv_value<std::int32_t>(comm, 0, i);
      }
    }
  });
  EXPECT_EQ(notified, 3);
  EXPECT_EQ(notified_bytes, 12);
}

TEST(Async, ProgressLoopIsEquivalentToWait) {
  World world(2);
  std::int32_t v = 0;
  int polls = 0;
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.compute(sim::SimTime{1'000'000});
      send_value<std::int32_t>(comm, 21, 1, 0);
    } else {
      Request r = comm.irecv(std::as_writable_bytes(std::span{&v, 1}), 0, 0);
      while (!r.ready()) {
        (void)comm.progress();
        ++polls;
      }
    }
  });
  EXPECT_EQ(v, 21);
  // The sender computes ~1 ms first; at the default 1 µs poll quantum the
  // receiver must have polled many times, each advancing simulated time.
  EXPECT_GT(polls, 10);
}

TEST(Async, TestFromEngineContextIsRejected) {
  // ready() is valid anywhere, but test() drives the owner's progress
  // engine: after the run (engine context, current rank -1) it must refuse
  // rather than touch a finished scheduler.
  World world(1);
  Request leaked;
  std::vector<std::byte> buf(4);
  world.run([&](Communicator& comm) {
    leaked = comm.irecv(buf, 0, 7);
    std::byte payload[4] = {};
    comm.send(std::span<const std::byte>{payload}, 0, 7);
    leaked.wait();
  });
  EXPECT_TRUE(leaked.ready());
  EXPECT_TRUE(leaked.test());  // completed: trivially true, no progress
}

// ------------------------------------------------------------- cancel --

TEST(Async, CancelUnmatchedRecvMakesItReady) {
  World world(2);
  bool cancelled = false;
  world.run([&](Communicator& comm) {
    if (comm.rank() == 1) {
      std::int32_t v = 0;
      // Nobody ever sends tag 99: without the cancel this would deadlock.
      Request r = comm.irecv(std::as_writable_bytes(std::span{&v, 1}), 0, 99);
      cancelled = r.cancel();
      EXPECT_TRUE(r.ready());
      r.wait();  // returns immediately: cancelled futures are ready
    }
  });
  EXPECT_TRUE(cancelled);
}

TEST(Async, CancelLosesRaceToMatchedRecv) {
  World world(2);
  bool cancelled = true;
  std::int32_t v = 0;
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      send_value<std::int32_t>(comm, 8, 1, 0);
    } else {
      comm.compute(sim::SimTime{1'000'000});  // message already arrived
      Request r = comm.irecv(std::as_writable_bytes(std::span{&v, 1}), 0, 0);
      cancelled = r.cancel();
      r.wait();
    }
  });
  EXPECT_FALSE(cancelled);  // matched (indeed completed) at cancel time
  EXPECT_EQ(v, 8);
}

TEST(Async, CancelledThenContinuationNeverRuns) {
  World world(2);
  bool ran = false;
  world.run([&](Communicator& comm) {
    if (comm.rank() == 1) {
      std::int32_t v = 0;
      Request r = comm.irecv(std::as_writable_bytes(std::span{&v, 1}), 0, 42);
      r.then([&](const Status&) { ran = true; });
      EXPECT_TRUE(r.cancel());
      r.then([&](const Status&) { ran = true; });  // post-cancel: dropped
    }
  });
  EXPECT_FALSE(ran);
}

TEST(Async, CancelCreditStalledSendBeforeLaunch) {
  WorldConfig cfg;
  cfg.per_pair_credit_bytes = 1024;
  World world(2, cfg);
  bool cancelled = false;
  std::vector<std::byte> got(1024);
  world.run([&](Communicator& comm) {
    std::vector<std::byte> payload(1024, std::byte{7});
    if (comm.rank() == 0) {
      // First send consumes the whole credit; the second queues behind it.
      Request first = comm.isend(payload, 1, 1);
      Request second = comm.isend(payload, 1, 2);
      cancelled = second.cancel();
      EXPECT_TRUE(second.ready());
      first.wait();
    } else {
      comm.compute(sim::SimTime{2'000'000});
      comm.recv(got, 0, 1);  // only the surviving send is received
    }
  });
  EXPECT_TRUE(cancelled);
  EXPECT_EQ(got[0], std::byte{7});
}

TEST(Async, CancelLaunchedSendFails) {
  World world(2);
  bool cancelled = true;
  world.run([&](Communicator& comm) {
    std::int32_t v = 0;
    if (comm.rank() == 0) {
      Request s = comm.isend(std::as_bytes(std::span{&v, 1}), 1, 0);
      cancelled = s.cancel();  // already handed to the NIC
      s.wait();
    } else {
      comm.recv(std::as_writable_bytes(std::span{&v, 1}), 0, 0);
    }
  });
  EXPECT_FALSE(cancelled);
}

// ------------------------------------------- progress-task accounting --

TEST(Async, ArrivalsAndCreditsRunAsProgressTasks) {
  WorldConfig cfg;
  cfg.eager_threshold_bytes = 1024;
  World world(2, cfg);
  world.run([&](Communicator& comm) {
    std::vector<std::byte> small(256);
    std::vector<std::byte> large(4096);
    if (comm.rank() == 0) {
      comm.send(small, 1, 1);
      comm.send(large, 1, 2);
    } else {
      comm.recv(small, 0, 1);
      comm.recv(large, 0, 2);
    }
  });
  using detail::ProgressTask;
  const auto& receiver = world.endpoint(1).progress_stats();
  EXPECT_EQ(receiver.by_kind[static_cast<int>(ProgressTask::Kind::EagerArrival)], 1);
  EXPECT_EQ(receiver.by_kind[static_cast<int>(ProgressTask::Kind::RtsArrival)], 1);
  EXPECT_EQ(receiver.by_kind[static_cast<int>(ProgressTask::Kind::RendezvousData)], 1);
  const auto& sender = world.endpoint(0).progress_stats();
  EXPECT_EQ(sender.by_kind[static_cast<int>(ProgressTask::Kind::CreditRelease)], 1);
  EXPECT_EQ(receiver.submitted, receiver.executed);
  EXPECT_EQ(sender.submitted, sender.executed);
}

// --------------------------------------- unexpected-queue byte balance --
// Each arrival class (plain eager, control/RTS, preposted, elided) charges
// its pool while parked and must balance to exactly zero once drained.

TEST(ByteAccounting, PlainEagerArrivalBalancesToZero) {
  for (const bool adaptive : {false, true}) {
    // The only arrival misses the adaptive receiver's cold pre-post plan,
    // so the charge lands in the unexpected pool in both variants.
    World world(2, adaptive ? adaptive_config() : WorldConfig{});
    world.run([&](Communicator& comm) {
      std::vector<std::byte> buf(512);
      if (comm.rank() == 0) {
        comm.send(buf, 1, 0);
      } else {
        comm.compute(sim::SimTime{1'000'000});  // arrival parks first
        comm.recv(buf, 0, 0);
      }
    });
    const auto c = world.aggregate_counters();
    EXPECT_EQ(c.unexpected_arrivals, 1) << "adaptive=" << adaptive;
    EXPECT_EQ(c.unexpected_bytes_peak, 512) << "adaptive=" << adaptive;
    EXPECT_EQ(c.unexpected_bytes_now, 0) << "adaptive=" << adaptive;
    EXPECT_EQ(c.preposted_bytes_now, 0) << "adaptive=" << adaptive;
  }
}

TEST(ByteAccounting, ControlArrivalChargesControlBytesAndBalances) {
  for (const bool adaptive : {false, true}) {
    WorldConfig cfg = adaptive ? adaptive_config() : WorldConfig{};
    cfg.eager_threshold_bytes = 1024;
    // A cold predictor never elides: the only send takes the RTS path.
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
    EXPECT_EQ(c.rendezvous_received, 1) << "adaptive=" << adaptive;
    EXPECT_EQ(c.unexpected_bytes_peak, kControlBytes) << "adaptive=" << adaptive;
    EXPECT_EQ(c.unexpected_bytes_now, 0) << "adaptive=" << adaptive;
  }
}

TEST(ByteAccounting, PrepostedArrivalsParkInPledgedPoolAndBalance) {
  World world(2, adaptive_config());
  world.run([&](Communicator& comm) {
    std::vector<std::byte> buf(2048);
    // A strictly repeating sender: after the first arrivals the policy
    // predicts rank 0, so later unexpected arrivals park preposted.
    for (int i = 0; i < 12; ++i) {
      if (comm.rank() == 0) {
        comm.send(buf, 1, i);
      } else {
        comm.compute(sim::SimTime{1'000'000});
        comm.recv(buf, 0, i);
      }
    }
  });
  const auto c = world.aggregate_counters();
  EXPECT_GT(c.prepost_hits, 0);
  EXPECT_GT(c.preposted_bytes_peak, 0);
  EXPECT_EQ(c.preposted_bytes_now, 0);
  EXPECT_EQ(c.unexpected_bytes_now, 0);
}

TEST(ByteAccounting, ElidedArrivalsNeverChargeTheUnexpectedPool) {
  WorldConfig cfg = adaptive_config();
  cfg.eager_threshold_bytes = 1024;
  World world(2, cfg);
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
  const auto c = world.aggregate_counters();
  ASSERT_GT(c.rendezvous_elided, 0);
  // Elided payloads parked in pledged memory while the recv was late...
  EXPECT_GT(c.preposted_bytes_peak, 0);
  // ...and both pools fully drained.
  EXPECT_EQ(c.preposted_bytes_now, 0);
  EXPECT_EQ(c.unexpected_bytes_now, 0);
  // The unexpected pool saw only the pre-elision RTS parks (control bytes),
  // never an elided payload.
  EXPECT_LE(c.unexpected_bytes_peak, c.unexpected_arrivals * kControlBytes);
}

}  // namespace
}  // namespace mpipred::mpi
