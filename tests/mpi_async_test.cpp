// The nonblocking front end: request completion (ready/wait) outside the
// owning fiber, the progress tasks every arrival and credit return runs
// as, and the unexpected-queue byte accounting those tasks maintain.

#include <gtest/gtest.h>

#include <vector>

#include "mpi/communicator.hpp"
#include "mpi/world.hpp"

namespace mpipred::mpi {
namespace {

WorldConfig adaptive_config() {
  WorldConfig cfg;
  cfg.adaptive.enabled = true;
  cfg.adaptive.service.engine.shards = 1;
  return cfg;
}

// ----------------------------------------------------------- requests --

TEST(Async, CompletedRequestIsReadyAndWaitIsANoOpAfterRun) {
  // ready() is valid anywhere, and wait() on a completed request returns
  // at once: after the run (engine context, current rank -1) neither may
  // touch the finished scheduler or trip the owner check.
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
  EXPECT_NO_THROW(leaked.wait());
  EXPECT_EQ(leaked.status().bytes, 4);
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
