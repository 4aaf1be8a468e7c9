// Typed convenience layer and request semantics: the API application code
// actually uses, exercised across datatypes and corner cases.

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "mpi/communicator.hpp"
#include "mpi/typed.hpp"
#include "mpi/world.hpp"

namespace mpipred::mpi {
namespace {

TEST(Typed, ValueRoundTripAllTypes) {
  World world(2);
  double d_got = 0;
  std::int32_t i_got = 0;
  std::uint64_t u_got = 0;
  float f_got = 0;
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      send_value(comm, 3.25, 1, 1);
      send_value<std::int32_t>(comm, -17, 1, 2);
      send_value<std::uint64_t>(comm, ~0ULL, 1, 3);
      send_value(comm, 0.5f, 1, 4);
    } else {
      d_got = recv_value<double>(comm, 0, 1);
      i_got = recv_value<std::int32_t>(comm, 0, 2);
      u_got = recv_value<std::uint64_t>(comm, 0, 3);
      f_got = recv_value<float>(comm, 0, 4);
    }
  });
  EXPECT_DOUBLE_EQ(d_got, 3.25);
  EXPECT_EQ(i_got, -17);
  EXPECT_EQ(u_got, ~0ULL);
  EXPECT_FLOAT_EQ(f_got, 0.5f);
}

TEST(Typed, AllreduceValueEveryOp) {
  World world(4);
  std::int64_t sum = 0;
  std::int64_t mn = 0;
  std::int64_t mx = 0;
  std::int64_t prod = 0;
  world.run([&](Communicator& comm) {
    const std::int64_t mine = comm.rank() + 1;  // 1..4
    sum = allreduce_value(comm, mine, ReduceOp::Sum);
    mn = allreduce_value(comm, mine, ReduceOp::Min);
    mx = allreduce_value(comm, mine, ReduceOp::Max);
    prod = allreduce_value(comm, mine, ReduceOp::Prod);
  });
  EXPECT_EQ(sum, 10);
  EXPECT_EQ(mn, 1);
  EXPECT_EQ(mx, 4);
  EXPECT_EQ(prod, 24);
}

TEST(Typed, GatherValueOnlyRootReceives) {
  World world(3);
  std::vector<std::int64_t> at_root;
  std::vector<std::int64_t> at_other;
  world.run([&](Communicator& comm) {
    const auto all = gather_value<std::int64_t>(comm, comm.rank() * comm.rank(), 1);
    if (comm.rank() == 1) {
      at_root = all;
    } else if (comm.rank() == 0) {
      at_other = all;
    }
  });
  EXPECT_EQ(at_root, (std::vector<std::int64_t>{0, 1, 4}));
  EXPECT_TRUE(at_other.empty());
}

TEST(Typed, ScanValuePrefixes) {
  World world(5);
  std::vector<std::int64_t> prefix(5);
  world.run([&](Communicator& comm) {
    prefix[static_cast<std::size_t>(comm.rank())] =
        scan_value<std::int64_t>(comm, 2, ReduceOp::Sum);
  });
  EXPECT_EQ(prefix, (std::vector<std::int64_t>{2, 4, 6, 8, 10}));
}

TEST(Request, NullRequestIsTriviallyComplete) {
  Request r;
  EXPECT_FALSE(r.valid());
  EXPECT_TRUE(r.ready());
  r.wait();  // no-op, must not crash
}

TEST(Request, StatusRequiresCompletedReceive) {
  World world(2);
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      std::int32_t v = 5;
      Request s = comm.isend(std::as_bytes(std::span{&v, 1}), 1, 0);
      s.wait();
      EXPECT_THROW((void)s.status(), UsageError);  // sends have no status
    } else {
      std::int32_t v = 0;
      Request r = comm.irecv(std::as_writable_bytes(std::span{&v, 1}), 0, 0);
      r.wait();
      EXPECT_EQ(r.status().source, 0);
      EXPECT_EQ(r.status().bytes, 4);
    }
  });
}

TEST(Request, CopiesShareCompletion) {
  World world(2);
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      std::int32_t v = 9;
      comm.send(std::as_bytes(std::span{&v, 1}), 1, 0);
    } else {
      std::int32_t v = 0;
      Request a = comm.irecv(std::as_writable_bytes(std::span{&v, 1}), 0, 0);
      Request b = a;  // shared handle
      a.wait();
      EXPECT_TRUE(b.ready());
      EXPECT_EQ(b.status().bytes, 4);
    }
  });
}

TEST(Typed, CommunicatorAccessors) {
  World world(4);
  world.run([&](Communicator& comm) {
    EXPECT_EQ(comm.size(), 4);
    EXPECT_FALSE(comm.is_null());
    EXPECT_EQ(comm.world_rank(), comm.rank());  // world comm: identity map
    EXPECT_EQ(comm.to_world(2), 2);
    EXPECT_THROW((void)comm.to_world(4), UsageError);
    EXPECT_GE(comm.sim_rank().now().count(), 0);
  });
}

TEST(Typed, ComputeAdvancesCommClock) {
  World world(1);
  world.run([&](Communicator& comm) {
    const auto before = comm.sim_rank().now();
    comm.compute(sim::SimTime{12345});
    EXPECT_GT(comm.sim_rank().now(), before);
  });
}

}  // namespace
}  // namespace mpipred::mpi
