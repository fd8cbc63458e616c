#include "plrupart/sim/core_model.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

namespace plrupart::sim {
namespace {

TEST(CoreModel, GapInstructionsAtBaseIpc) {
  CoreModel m(CoreParams{.base_ipc = 2.0});
  m.commit_gap(100);
  EXPECT_DOUBLE_EQ(m.cycles(), 50.0);
  EXPECT_EQ(m.instructions(), 100ULL);
  EXPECT_DOUBLE_EQ(m.ipc(), 2.0);
}

TEST(CoreModel, L1HitCostsOnlyIssueSlot) {
  CoreModel m(CoreParams{.base_ipc = 1.0});
  m.commit_mem(AccessLevel::kL1);
  EXPECT_DOUBLE_EQ(m.cycles(), 1.0);
  EXPECT_EQ(m.instructions(), 1ULL);
}

TEST(CoreModel, MissPenaltiesScaledByStallFraction) {
  const CoreParams p{.base_ipc = 1.0,
                     .l2_hit_penalty = 11,
                     .mem_penalty = 250,
                     .stall_fraction = 0.5};
  CoreModel m(p);
  m.commit_mem(AccessLevel::kL2);
  EXPECT_DOUBLE_EQ(m.cycles(), 1.0 + 5.5);
  m.commit_mem(AccessLevel::kMemory);
  EXPECT_DOUBLE_EQ(m.cycles(), 1.0 + 5.5 + 1.0 + 125.0);
}

TEST(CoreModel, FullyOverlappedCoreIgnoresMisses) {
  CoreModel m(CoreParams{.base_ipc = 4.0, .stall_fraction = 0.0});
  for (int i = 0; i < 100; ++i) m.commit_mem(AccessLevel::kMemory);
  EXPECT_DOUBLE_EQ(m.ipc(), 4.0);
}

TEST(CoreModel, IpcDegradesWithMemoryBoundStreams) {
  CoreModel fast(CoreParams{.base_ipc = 2.0, .stall_fraction = 0.7});
  CoreModel slow(CoreParams{.base_ipc = 2.0, .stall_fraction = 0.7});
  for (int i = 0; i < 1000; ++i) {
    fast.commit_gap(3);
    fast.commit_mem(AccessLevel::kL1);
    slow.commit_gap(3);
    slow.commit_mem(AccessLevel::kMemory);
  }
  EXPECT_GT(fast.ipc(), 5.0 * slow.ipc()) << "250-cycle stalls dominate";
}

TEST(CoreModel, ResetZeroesState) {
  CoreModel m(CoreParams{});
  m.commit_gap(10);
  m.reset();
  EXPECT_DOUBLE_EQ(m.cycles(), 0.0);
  EXPECT_EQ(m.instructions(), 0ULL);
  EXPECT_DOUBLE_EQ(m.ipc(), 0.0);
}

TEST(CoreModel, ExternalClockAdvancesExactlyLikeTheModel) {
  CoreModel m(CoreParams{.base_ipc = 3.0, .stall_fraction = 0.3});
  CoreModel::Clock clock;
  const AccessLevel levels[] = {AccessLevel::kL1, AccessLevel::kL2, AccessLevel::kMemory};
  for (std::uint32_t i = 0; i < 300; ++i) {
    const std::uint32_t gap = i % 7 == 0 ? 1000 + i : i % 5;
    m.commit_gap(gap);
    m.commit_mem(levels[i % 3]);
    std::as_const(m).commit_gap(clock, gap);
    std::as_const(m).commit_mem(clock, levels[i % 3]);
  }
  EXPECT_EQ(clock.cycles, m.cycles());  // bit for bit, not approximately
  EXPECT_EQ(clock.instructions, m.instructions());
}

TEST(CoreParams, ValidationRejectsNonsense) {
  EXPECT_THROW(CoreParams{.base_ipc = 0.0}.validate(), InvariantError);
  EXPECT_THROW(CoreParams{.stall_fraction = 1.5}.validate(), InvariantError);
  EXPECT_THROW(CoreParams{.mem_penalty = -1.0}.validate(), InvariantError);
}

}  // namespace
}  // namespace plrupart::sim
