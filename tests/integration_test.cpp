// End-to-end pipeline tests: run a kernel on the simulated machine, extract
// its streams, predict, and check the paper's headline claims hold at toy/S
// scale — logical streams are highly predictable, physical streams degrade
// gracefully by app, and the §2 mechanisms profit from real traces.

#include <gtest/gtest.h>

#include "apps/app.hpp"
#include "apps/registry.hpp"
#include "core/evaluate.hpp"
#include "core/set_prediction.hpp"
#include "ingest/source.hpp"
#include "mpi/world.hpp"
#include "scale/buffer_manager.hpp"
#include "scale/rendezvous.hpp"
#include "trace/csv.hpp"
#include "trace/stats.hpp"
#include "trace/stream.hpp"

namespace mpipred {
namespace {

mpi::WorldConfig noisy(std::uint64_t seed) { return apps::paper_world_config(seed); }

core::StreamPredictorConfig paper_predictor() {
  return core::StreamPredictorConfig{};  // library defaults = paper setup
}

TEST(Pipeline, LogicalPredictionAboveNinetyPercentForEveryApp) {
  // The paper's headline (Figure 3): logical streams predict at >90%,
  // mostly ~100%. Toy scale keeps runtimes small; streams are still
  // hundreds to thousands of samples.
  struct Case {
    const char* app;
    int procs;
    int iterations;  // enough iterations that warm-up does not dominate
  };
  for (const auto& [app, procs, iterations] : {Case{"bt", 9, 0}, Case{"cg", 8, 25},
                                               Case{"lu", 4, 0}, Case{"sweep3d", 6, 40}}) {
    mpi::World world(procs, noisy(3));
    const auto& info = apps::find_app(app);
    (void)info.run(world, apps::AppConfig{.problem_class = apps::ProblemClass::S,
                                          .iterations_override = iterations});
    const int rank = trace::representative_rank(world.traces(), trace::Level::Logical);
    const auto streams = trace::extract_streams(world.traces(), rank, trace::Level::Logical);
    ASSERT_GT(streams.length(), 100u) << app;
    const auto eval = core::evaluate_streams(streams, paper_predictor());
    for (std::size_t h = 1; h <= 5; ++h) {
      EXPECT_GT(eval.senders.at(h).accuracy(), 0.90) << app << " senders +h" << h;
      EXPECT_GT(eval.sizes.at(h).accuracy(), 0.90) << app << " sizes +h" << h;
    }
  }
}

TEST(Pipeline, PhysicalOrderingDegradesGracefullyByApp) {
  // §5.2's ordering between applications: LU stays the most predictable
  // (long pipelines, two senders), Sweep3D degrades more (short octant
  // pipelines overlap), and IS collapses (collective incast storms).
  auto physical_acc = [&](const char* app, int procs) {
    mpi::World world(procs, noisy(5));
    (void)apps::find_app(app).run(world,
                                  apps::AppConfig{.problem_class = apps::ProblemClass::S});
    const int rank = trace::representative_rank(world.traces(), trace::Level::Physical);
    const auto streams = trace::extract_streams(world.traces(), rank, trace::Level::Physical);
    return core::evaluate_streams(streams, paper_predictor()).senders.at(1).accuracy();
  };
  const double lu = physical_acc("lu", 4);
  const double sw = physical_acc("sweep3d", 6);
  const double is = physical_acc("is", 8);
  EXPECT_GT(lu, 0.72);
  EXPECT_GT(sw, 0.40);
  EXPECT_GT(lu, is + 0.3);
  EXPECT_GT(sw, is + 0.2);
}

TEST(Pipeline, PhysicalIsHarderThanLogicalForIS) {
  // §5.2: IS's collective-heavy stream suffers most from physical
  // reordering.
  mpi::World world(8, noisy(7));
  (void)apps::run_is(world, apps::AppConfig{.problem_class = apps::ProblemClass::S});
  const int rank = 3;
  const auto logical = trace::extract_streams(world.traces(), rank, trace::Level::Logical);
  const auto physical = trace::extract_streams(world.traces(), rank, trace::Level::Physical);
  const auto leval = core::evaluate_streams(logical, paper_predictor());
  const auto peval = core::evaluate_streams(physical, paper_predictor());
  EXPECT_GT(leval.senders.at(1).accuracy(), peval.senders.at(1).accuracy() + 0.15);
}

TEST(Pipeline, SetPredictionRescuesPhysicalAccuracy) {
  // §5.3: on the physical level, the *set* of upcoming senders stays
  // predictable even when the exact order does not.
  mpi::World world(9, noisy(11));
  (void)apps::run_bt(world, apps::AppConfig{.problem_class = apps::ProblemClass::S});
  const auto streams = trace::extract_streams(world.traces(), 3, trace::Level::Physical);

  core::StreamPredictor in_order(paper_predictor());
  const auto ordered = core::evaluate_with(in_order, streams.senders, 5);

  core::StreamPredictor for_sets(paper_predictor());
  const auto sets = core::evaluate_set_prediction(for_sets, streams.senders, 5);

  EXPECT_GT(sets.mean_overlap, ordered.at(5).accuracy());
}

TEST(Pipeline, BufferPolicyOnRealTraceSavesMemory) {
  // §2.1 on a real BT.16 physical trace: predicted buffers cover the
  // stream with a fraction of the all-pairs memory.
  mpi::World world(16, noisy(13));
  (void)apps::run_bt(world, apps::AppConfig{.problem_class = apps::ProblemClass::Toy,
                                            .iterations_override = 20});
  const auto streams = trace::extract_streams(world.traces(), 5, trace::Level::Physical,
                                              {.kind = trace::OpKind::PointToPoint});
  const auto cmp = scale::compare_buffer_policies(streams.senders, 16);
  EXPECT_GT(cmp.predicted.hit_rate(), 0.6);
  EXPECT_LT(cmp.predicted.avg_memory_bytes(), 0.7 * cmp.all_pairs.avg_memory_bytes());
}

TEST(Pipeline, RendezvousElisionOnRealLuTrace) {
  // §2.3 on LU: exchange_3 faces are rendezvous-sized and periodic, so
  // most of them can skip the handshake.
  mpi::World world(4, noisy(17));
  (void)apps::run_lu(world, apps::AppConfig{.problem_class = apps::ProblemClass::S,
                                            .iterations_override = 40});
  const auto streams = trace::extract_streams(world.traces(), 3, trace::Level::Physical);
  scale::RendezvousConfig cfg;
  cfg.threshold_bytes = 2000;
  const auto report = scale::evaluate_rendezvous_elision(streams.senders, streams.sizes, cfg);
  ASSERT_GT(report.long_messages, 0);
  EXPECT_GT(report.elision_rate(), 0.5);
  EXPECT_GT(report.speedup(), 1.0);
}

TEST(Pipeline, TraceRoundTripPreservesEvaluation) {
  // CSV out, CSV in: the downstream evaluation must be identical.
  mpi::World world(4, noisy(19));
  (void)apps::run_cg(world, apps::AppConfig{.problem_class = apps::ProblemClass::Toy});
  const auto before = trace::extract_streams(world.traces(), 2, trace::Level::Logical);

  std::stringstream ss;
  trace::write_csv(ss, world.traces());
  const auto reloaded = ingest::open_trace_stream(ss, "<round-trip>");
  ASSERT_NE(reloaded->store(), nullptr);
  const auto after = trace::extract_streams(*reloaded->store(), 2, trace::Level::Logical);

  EXPECT_EQ(before.senders, after.senders);
  EXPECT_EQ(before.sizes, after.sizes);
}

TEST(Pipeline, WholeRunIsDeterministicForEqualSeeds) {
  auto run_once = [] {
    mpi::World world(6, noisy(23));
    (void)apps::run_sweep3d(world, apps::AppConfig{.problem_class = apps::ProblemClass::Toy});
    return trace::extract_streams(world.traces(), 1, trace::Level::Physical);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.senders, b.senders);
  EXPECT_EQ(a.sizes, b.sizes);
}

}  // namespace
}  // namespace mpipred
