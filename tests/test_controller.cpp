// IntervalController: boundary firing, decay, history, partition application.
#include "plrupart/core/controller.hpp"

#include <gtest/gtest.h>

#include "plrupart/core/min_misses.hpp"

namespace plrupart::core {
namespace {

cache::Geometry small_l2() {
  return cache::Geometry{.size_bytes = 8192, .associativity = 4, .line_bytes = 64};
}

struct ControllerRig {
  explicit ControllerRig(std::uint64_t interval = 1000, double hysteresis = 0.0) {
    profilers.push_back(
        std::make_unique<Profiler>(small_l2(), cache::ReplacementKind::kLru, 1));
    profilers.push_back(
        std::make_unique<Profiler>(small_l2(), cache::ReplacementKind::kLru, 1));
    std::vector<Profiler*> raw{profilers[0].get(), profilers[1].get()};
    controller = std::make_unique<IntervalController>(
        interval, 4, std::make_unique<MinMissesPolicy>(), std::move(raw),
        [this](const Partition& p) {
          applied.push_back(p);
        },
        hysteresis);
  }

  std::vector<std::unique_ptr<Profiler>> profilers;
  std::unique_ptr<IntervalController> controller;
  std::vector<Partition> applied;
};

TEST(Controller, StartsWithEvenSplitApplied) {
  ControllerRig rig;
  ASSERT_EQ(rig.applied.size(), 1U);
  EXPECT_EQ(rig.applied[0], (Partition{2, 2}));
  EXPECT_EQ(rig.controller->current(), (Partition{2, 2}));
  EXPECT_TRUE(rig.controller->history().empty()) << "initial split is not an interval";
}

TEST(Controller, NoFiringBeforeBoundary) {
  ControllerRig rig(1000);
  EXPECT_FALSE(rig.controller->tick(0));
  EXPECT_FALSE(rig.controller->tick(999));
  EXPECT_EQ(rig.applied.size(), 1U);
}

TEST(Controller, FiresAtEachBoundaryOnce) {
  ControllerRig rig(1000);
  EXPECT_TRUE(rig.controller->tick(1000));
  EXPECT_FALSE(rig.controller->tick(1500));
  EXPECT_TRUE(rig.controller->tick(2100));
  EXPECT_EQ(rig.controller->history().size(), 2U);
  EXPECT_EQ(rig.applied.size(), 3U);  // initial + two intervals
}

TEST(Controller, SkippedBoundariesCollapseToOneFiring) {
  ControllerRig rig(1000);
  EXPECT_TRUE(rig.controller->tick(5500));  // jumped 5 boundaries
  EXPECT_EQ(rig.controller->history().size(), 1U);
  // Next boundary re-arms after the jump.
  EXPECT_FALSE(rig.controller->tick(5900));
  EXPECT_TRUE(rig.controller->tick(6001));
}

TEST(Controller, DecaysProfilersOnRepartition) {
  ControllerRig rig(1000);
  for (int i = 0; i < 8; ++i) rig.profilers[0]->record_access(0);
  EXPECT_EQ(rig.profilers[0]->sdh().reg(1), 7ULL);
  rig.controller->tick(1000);
  EXPECT_EQ(rig.profilers[0]->sdh().reg(1), 3ULL) << "SDH halved at the boundary";
}

TEST(Controller, PartitionFollowsTheProfiles) {
  ControllerRig rig(1000);
  // Core 0 shows strong reuse at distance <= 3 (needs 3 ways); core 1 only
  // ever misses.
  const auto g = small_l2();
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t t = 0; t < 3; ++t)
      rig.profilers[0]->record_access((t << ilog2_exact(g.sets())) | 0);
  }
  for (std::uint64_t t = 0; t < 100; ++t)
    rig.profilers[1]->record_access(((t + 100) << ilog2_exact(g.sets())) | 0);
  rig.controller->tick(1000);
  const auto& p = rig.controller->current();
  EXPECT_EQ(p[0], 3U);
  EXPECT_EQ(p[1], 1U);
}

TEST(Controller, HistoryRecordsCycleStamps) {
  ControllerRig rig(500);
  rig.controller->tick(700);
  rig.controller->tick(1200);
  ASSERT_EQ(rig.controller->history().size(), 2U);
  EXPECT_EQ(rig.controller->history()[0].cycle, 700ULL);
  EXPECT_EQ(rig.controller->history()[1].cycle, 1200ULL);
}

TEST(Controller, HysteresisKeepsStandingPartitionOnMarginalGains) {
  // Core 0's profile justifies a 3/1 split, but only barely: with strong
  // damping the controller sticks to the even split.
  ControllerRig rig(1000, /*hysteresis=*/0.9);
  const auto g = small_l2();
  for (int round = 0; round < 30; ++round) {
    for (std::uint64_t t = 0; t < 3; ++t)
      rig.profilers[0]->record_access((t << ilog2_exact(g.sets())) | 0);
  }
  for (std::uint64_t t = 0; t < 30; ++t)
    rig.profilers[1]->record_access(((t + 100) << ilog2_exact(g.sets())) | 0);
  rig.controller->tick(1000);
  EXPECT_EQ(rig.controller->current(), (Partition{2, 2}))
      << "marginal improvement must not flip the partition under damping";
}

TEST(Controller, HysteresisYieldsToDecisiveGains) {
  ControllerRig rig(1000, /*hysteresis=*/0.10);
  const auto g = small_l2();
  // Core 0 hits at distance 3 on nearly every access; keeping it at 2 ways
  // would forfeit almost everything.
  for (int round = 0; round < 500; ++round) {
    for (std::uint64_t t = 0; t < 3; ++t)
      rig.profilers[0]->record_access((t << ilog2_exact(g.sets())) | 0);
  }
  for (std::uint64_t t = 0; t < 20; ++t)
    rig.profilers[1]->record_access(((t + 100) << ilog2_exact(g.sets())) | 0);
  rig.controller->tick(1000);
  EXPECT_EQ(rig.controller->current(), (Partition{3, 1}));
}

TEST(Controller, HysteresisStillRecordsHistory) {
  ControllerRig rig(1000, /*hysteresis=*/0.9);
  rig.controller->tick(1000);
  rig.controller->tick(2000);
  EXPECT_EQ(rig.controller->history().size(), 2U);
}

TEST(Controller, RejectsBadHysteresis) {
  std::vector<std::unique_ptr<Profiler>> profs;
  profs.push_back(
      std::make_unique<Profiler>(small_l2(), cache::ReplacementKind::kLru, 1));
  std::vector<Profiler*> raw{profs[0].get()};
  EXPECT_THROW(IntervalController(100, 4, std::make_unique<MinMissesPolicy>(), raw,
                                  [](const Partition&) {}, 1.0),
               InvariantError);
  EXPECT_THROW(IntervalController(100, 4, std::make_unique<MinMissesPolicy>(), raw,
                                  [](const Partition&) {}, -0.1),
               InvariantError);
}

TEST(Controller, RejectsDegenerateConstruction) {
  std::vector<std::unique_ptr<Profiler>> profs;
  profs.push_back(
      std::make_unique<Profiler>(small_l2(), cache::ReplacementKind::kLru, 1));
  std::vector<Profiler*> raw{profs[0].get()};
  EXPECT_THROW(IntervalController(0, 4, std::make_unique<MinMissesPolicy>(), raw,
                                  [](const Partition&) {}),
               InvariantError);
  EXPECT_THROW(
      IntervalController(100, 4, nullptr, raw, [](const Partition&) {}),
      InvariantError);
  EXPECT_THROW(IntervalController(100, 4, std::make_unique<MinMissesPolicy>(),
                                  std::vector<Profiler*>{}, [](const Partition&) {}),
               InvariantError);
}

}  // namespace
}  // namespace plrupart::core
