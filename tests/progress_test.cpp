// Unit tests for the endpoint progress engine's task queue, independent of
// the fiber-based simulation: a ProgressEngine is just a handler plus a
// FIFO queue with a synchronous drain, so it can be driven from a plain
// test thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "mpi/detail/progress.hpp"

namespace mpipred::mpi::detail {
namespace {

ProgressTask callback_task(std::function<void()> fn) {
  ProgressTask t;
  t.kind = ProgressTask::Kind::Callback;
  t.fn = std::move(fn);
  return t;
}

TEST(ProgressEngine, SubmitDrainsImmediately) {
  std::vector<int> ran;
  ProgressEngine pe([&](ProgressTask& t) { t.fn(); });
  pe.submit(callback_task([&] { ran.push_back(1); }));
  EXPECT_EQ(ran, (std::vector<int>{1}));
  EXPECT_TRUE(pe.idle());
  EXPECT_EQ(pe.stats().submitted, 1);
  EXPECT_EQ(pe.stats().executed, 1);
}

TEST(ProgressEngine, ReentrantSubmitsAppendInFifoOrderNotNested) {
  // A task that submits more work must not recurse into the drain: the
  // children queue behind it and run in submission order after it returns.
  std::vector<std::string> order;
  int depth = 0;
  int max_depth = 0;
  ProgressEngine pe([&](ProgressTask& t) {
    ++depth;
    max_depth = std::max(max_depth, depth);
    t.fn();
    --depth;
  });
  pe.submit(callback_task([&] {
    order.push_back("parent");
    // Submitted from inside the drain: must execute later, same pass.
    pe.submit(callback_task([&] { order.push_back("child-a"); }));
    pe.submit(callback_task([&] { order.push_back("child-b"); }));
  }));
  EXPECT_EQ(max_depth, 1) << "handler reentered the drain";
  EXPECT_EQ(order, (std::vector<std::string>{"parent", "child-a", "child-b"}));
}

TEST(ProgressEngine, StatsCountTasksByKind) {
  int handled = 0;
  ProgressEngine pe([&](ProgressTask&) { ++handled; });
  ProgressTask eager;
  eager.kind = ProgressTask::Kind::EagerArrival;
  pe.submit(std::move(eager));
  ProgressTask credit;
  credit.kind = ProgressTask::Kind::CreditRelease;
  credit.peer = 3;
  credit.bytes = 128;
  pe.submit(std::move(credit));
  pe.submit(callback_task([] {}));
  EXPECT_EQ(handled, 3);
  const ProgressStats& s = pe.stats();
  EXPECT_EQ(s.by_kind[static_cast<int>(ProgressTask::Kind::EagerArrival)], 1);
  EXPECT_EQ(s.by_kind[static_cast<int>(ProgressTask::Kind::CreditRelease)], 1);
  EXPECT_EQ(s.by_kind[static_cast<int>(ProgressTask::Kind::Callback)], 1);
  EXPECT_EQ(s.by_kind[static_cast<int>(ProgressTask::Kind::RtsArrival)], 0);
  EXPECT_EQ(s.submitted, 3);
  EXPECT_EQ(s.executed, 3);
}

TEST(ProgressEngine, ThrowingHandlerLeavesEngineUsable) {
  // Handlers can throw (message truncation is a UsageError): the drain
  // must unwind cleanly and the engine must accept and run later work.
  int ran = 0;
  ProgressEngine pe([&](ProgressTask& t) { t.fn(); });
  EXPECT_THROW(pe.submit(callback_task([] { throw UsageError("boom"); })), UsageError);
  EXPECT_TRUE(pe.idle());  // not stuck in the "draining" state
  pe.submit(callback_task([&] { ++ran; }));
  EXPECT_EQ(ran, 1);
}

TEST(ProgressEngine, QueueDepthTracksReentrantBacklog) {
  ProgressEngine pe([&](ProgressTask& t) { t.fn(); });
  pe.submit(callback_task([&] {
    for (int i = 0; i < 4; ++i) {
      pe.submit(callback_task([] {}));
    }
  }));
  // All five executed; the four children were queued simultaneously.
  EXPECT_EQ(pe.stats().executed, 5);
  EXPECT_GE(pe.stats().max_queue_depth, 4);
  EXPECT_TRUE(pe.idle());
}

TEST(ProgressEngine, RejectsNullHandler) {
  EXPECT_THROW(ProgressEngine(nullptr), UsageError);
}

}  // namespace
}  // namespace mpipred::mpi::detail
