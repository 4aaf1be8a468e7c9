// Protocol-level behavior of the simulated MPI library: §2.1 per-pair
// eager credits (throttling, stall accounting, queue draining), protocol
// timing relationships, and world configuration contracts.

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "mpi/communicator.hpp"
#include "mpi/typed.hpp"
#include "mpi/world.hpp"

namespace mpipred::mpi {
namespace {

TEST(Credits, SenderStallsWhenReceiverLags) {
  WorldConfig cfg;
  cfg.per_pair_credit_bytes = 4 * 1024;
  World world(2, cfg);
  world.run([&](Communicator& comm) {
    std::vector<std::byte> buf(2 * 1024);
    if (comm.rank() == 0) {
      // 8 x 2 KiB against a 4 KiB budget: at most 2 in flight.
      std::vector<Request> reqs;
      for (int i = 0; i < 8; ++i) {
        reqs.push_back(comm.isend(buf, 1, i));
      }
      Request::wait_all(reqs);
    } else {
      comm.compute(sim::SimTime{50'000'000});  // receiver lags behind
      for (int i = 0; i < 8; ++i) {
        comm.recv(buf, 0, i);
      }
    }
  });
  EXPECT_GE(world.endpoint(0).counters().eager_credit_stalls, 6);
  // The receiver never held more than the credit budget in its unexpected
  // queue (that is the whole point of §2.1 flow control).
  EXPECT_LE(world.endpoint(1).counters().unexpected_bytes_peak, 4 * 1024);
}

TEST(Credits, AllMessagesStillDeliveredInOrder) {
  WorldConfig cfg;
  cfg.per_pair_credit_bytes = 1024;
  World world(2, cfg);
  std::vector<std::int32_t> got;
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      for (std::int32_t i = 0; i < 50; ++i) {
        send_value(comm, i, 1);  // 4-byte messages, same tag: strict FIFO
      }
    } else {
      comm.compute(sim::SimTime{10'000'000});
      for (int i = 0; i < 50; ++i) {
        got.push_back(recv_value<std::int32_t>(comm, 0));
      }
    }
  });
  ASSERT_EQ(got.size(), 50u);
  for (std::int32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  }
}

TEST(Credits, UnlimitedWhenDisabled) {
  WorldConfig cfg;
  cfg.per_pair_credit_bytes = 0;  // MPICH-style: just send
  World world(2, cfg);
  world.run([&](Communicator& comm) {
    std::vector<std::byte> buf(8 * 1024);
    if (comm.rank() == 0) {
      std::vector<Request> reqs;
      for (int i = 0; i < 16; ++i) {
        reqs.push_back(comm.isend(buf, 1, i));
      }
      Request::wait_all(reqs);
    } else {
      comm.compute(sim::SimTime{100'000'000});
      for (int i = 0; i < 16; ++i) {
        comm.recv(buf, 0, i);
      }
    }
  });
  EXPECT_EQ(world.endpoint(0).counters().eager_credit_stalls, 0);
  // Without flow control the receiver's exposure is the full burst — the
  // §2.2 failure mode.
  EXPECT_EQ(world.endpoint(1).counters().unexpected_bytes_peak, 16 * 8 * 1024);
}

TEST(Credits, LargerMessageThanBudgetStillFlies) {
  WorldConfig cfg;
  cfg.per_pair_credit_bytes = 512;
  cfg.eager_threshold_bytes = 4096;  // keep a 2 KiB message eager
  World world(2, cfg);
  std::int64_t got = 0;
  world.run([&](Communicator& comm) {
    std::vector<std::int64_t> buf(256, 7);  // 2 KiB > 512 credit
    if (comm.rank() == 0) {
      send_n<std::int64_t>(comm, buf, 1);
    } else {
      std::vector<std::int64_t> in(256);
      recv_n<std::int64_t>(comm, in, 0);
      got = in[100];
    }
  });
  EXPECT_EQ(got, 7);
}

TEST(Credits, PairsAreIndependent) {
  WorldConfig cfg;
  cfg.per_pair_credit_bytes = 1024;
  World world(3, cfg);
  world.run([&](Communicator& comm) {
    std::vector<std::byte> buf(1024);
    if (comm.rank() == 0) {
      // Saturate the pair 0->1; sends to 2 must not stall.
      std::vector<Request> reqs;
      for (int i = 0; i < 4; ++i) {
        reqs.push_back(comm.isend(buf, 1, i));
      }
      for (int i = 0; i < 4; ++i) {
        reqs.push_back(comm.isend(buf, 2, i));
      }
      Request::wait_all(reqs);
    } else {
      comm.compute(sim::SimTime{20'000'000});
      for (int i = 0; i < 4; ++i) {
        comm.recv(buf, 0, i);
      }
    }
  });
  // 0->1 stalled, but 0->2 went through immediately after its own budget.
  EXPECT_GT(world.endpoint(0).counters().eager_credit_stalls, 0);
}

TEST(Protocol, RendezvousUnaffectedByEagerCredits) {
  WorldConfig cfg;
  cfg.per_pair_credit_bytes = 256;
  cfg.eager_threshold_bytes = 512;
  World world(2, cfg);
  std::vector<std::int32_t> got(1024);
  world.run([&](Communicator& comm) {
    std::vector<std::int32_t> big(1024, 3);  // 4 KiB -> rendezvous
    if (comm.rank() == 0) {
      send_n<std::int32_t>(comm, big, 1);
    } else {
      recv_n<std::int32_t>(comm, got, 0);
    }
  });
  EXPECT_EQ(got[512], 3);
  EXPECT_EQ(world.endpoint(0).counters().eager_credit_stalls, 0);
}

TEST(Protocol, LatencyScalesWithMessageSize) {
  // Pure timing check of the LogGP model through the full stack.
  auto timed = [](std::int64_t bytes) {
    World world(2);
    sim::SimTime done{0};
    world.run([&](Communicator& comm) {
      std::vector<std::byte> buf(static_cast<std::size_t>(bytes));
      if (comm.rank() == 0) {
        comm.send(buf, 1, 0);
      } else {
        comm.recv(buf, 0, 0);
        done = comm.sim_rank().now();
      }
    });
    return done;
  };
  const auto t1k = timed(1024);
  const auto t8k = timed(8 * 1024);
  // 7 KiB at 10 ns/B is 71680 ns of extra serialization.
  EXPECT_GT(t8k - t1k, sim::SimTime{60'000});
  EXPECT_LT(t8k - t1k, sim::SimTime{90'000});
}

TEST(Protocol, WorldConfigValidation) {
  WorldConfig bad;
  bad.eager_threshold_bytes = -1;
  EXPECT_THROW(World(2, bad), UsageError);
}

TEST(Protocol, AggregateCountersSumEndpoints) {
  World world(3);
  world.run([&](Communicator& comm) {
    std::int32_t v = comm.rank();
    const int dst = (comm.rank() + 1) % comm.size();
    const int src = (comm.rank() + comm.size() - 1) % comm.size();
    comm.sendrecv(std::as_bytes(std::span{&v, 1}), dst, 0,
                  std::as_writable_bytes(std::span{&v, 1}), src, 0);
  });
  const auto total = world.aggregate_counters();
  EXPECT_EQ(total.sends_posted, 3);
  EXPECT_EQ(total.recvs_posted, 3);
  EXPECT_EQ(total.eager_received, 3);
}

}  // namespace
}  // namespace mpipred::mpi
