// PartitionedCacheSystem facade: configuration acronyms, wiring, partition
// application across enforcement modes.
#include "plrupart/core/partitioned_cache.hpp"

#include <gtest/gtest.h>

#include "plrupart/common/rng.hpp"

namespace plrupart::core {
namespace {

cache::Geometry small_l2() {
  // 64 sets x 8 ways x 64B = 32KB.
  return cache::Geometry{.size_bytes = 32768, .associativity = 8, .line_bytes = 64};
}

TEST(CpaConfig, AcronymRoundTrip) {
  // Iterating known_acronyms() (rather than a literal list) keeps the
  // advertised set and the from_acronym parser from drifting apart.
  EXPECT_EQ(CpaConfig::known_acronyms().size(), 12U);
  for (const auto& name : CpaConfig::known_acronyms()) {
    const auto cfg = CpaConfig::from_acronym(name, 2, small_l2());
    EXPECT_EQ(cfg.acronym(), name);
  }
  EXPECT_THROW((void)CpaConfig::from_acronym("X-77", 2, small_l2()), InvariantError);
}

TEST(CpaConfig, AcronymSemantics) {
  const auto cl = CpaConfig::from_acronym("C-L", 4, small_l2());
  EXPECT_EQ(cl.enforcement, cache::EnforcementMode::kOwnerCounters);
  EXPECT_EQ(cl.replacement, cache::ReplacementKind::kLru);
  EXPECT_TRUE(cl.partitioned());

  const auto mn = CpaConfig::from_acronym("M-0.75N", 4, small_l2());
  EXPECT_EQ(mn.enforcement, cache::EnforcementMode::kWayMasks);
  EXPECT_EQ(mn.replacement, cache::ReplacementKind::kNru);
  EXPECT_DOUBLE_EQ(mn.esdh_scale, 0.75);

  const auto np = CpaConfig::from_acronym("NOPART-BT", 4, small_l2());
  EXPECT_FALSE(np.partitioned());
}

TEST(PartitionedCache, UnpartitionedHasNoProfilersOrController) {
  auto cfg = CpaConfig::from_acronym("NOPART-L", 2, small_l2());
  PartitionedCacheSystem sys(cfg);
  EXPECT_EQ(sys.controller(), nullptr);
  EXPECT_EQ(sys.current_partition(), (Partition{8, 8})) << "everyone sees all ways";
  EXPECT_THROW((void)sys.profiler(0), InvariantError);
  const auto out = sys.access(0, 0x1000, false, 0);
  EXPECT_FALSE(out.hit);
}

TEST(PartitionedCache, InitialEvenMasksApplied) {
  auto cfg = CpaConfig::from_acronym("M-L", 2, small_l2());
  PartitionedCacheSystem sys(cfg);
  EXPECT_EQ(sys.l2().way_mask(0), way_range_mask(0, 4));
  EXPECT_EQ(sys.l2().way_mask(1), way_range_mask(4, 4));
}

TEST(PartitionedCache, RepartitionUpdatesMasksFromProfiles) {
  auto cfg = CpaConfig::from_acronym("M-L", 2, small_l2());
  cfg.interval_cycles = 1000;
  cfg.sampling_ratio = 1;  // profile everything: deterministic curves
  PartitionedCacheSystem sys(cfg);
  const auto g = cfg.geometry;
  // Core 0 loops over 6 lines of one set (needs 6 ways); core 1 streams.
  std::uint64_t t1 = 1000;
  for (int round = 0; round < 300; ++round) {
    for (std::uint64_t t = 0; t < 6; ++t)
      sys.access(0, ((t << ilog2_exact(g.sets())) | 3) * g.line_bytes, false, 10);
    sys.access(1, ((t1++ << ilog2_exact(g.sets())) | 3) * g.line_bytes, false, 10);
  }
  // Cross the boundary.
  sys.access(0, 0, false, 2000);
  const auto part = sys.current_partition();
  EXPECT_GE(part[0], 6U) << "the loop thread earns its working set";
  EXPECT_EQ(sys.l2().way_mask(0), way_range_mask(0, part[0]));
  EXPECT_EQ(sys.l2().way_mask(1), way_range_mask(part[0], part[1]));
  EXPECT_FALSE(sys.controller()->history().empty());
}

TEST(PartitionedCache, OwnerCounterModeAppliesQuotas) {
  auto cfg = CpaConfig::from_acronym("C-L", 2, small_l2());
  PartitionedCacheSystem sys(cfg);
  EXPECT_EQ(sys.l2().way_quota(0), 4U);
  EXPECT_EQ(sys.l2().way_quota(1), 4U);
}

TEST(PartitionedCache, BtStrictModeProducesPow2AlignedMasks) {
  auto cfg = CpaConfig::from_acronym("M-BT", 3, small_l2());
  cfg.bt_strict_pow2 = true;
  cfg.interval_cycles = 500;
  PartitionedCacheSystem sys(cfg);
  Rng rng(6);
  for (int i = 0; i < 5000; ++i) {
    const auto core = static_cast<cache::CoreId>(rng.next_below(3));
    sys.access(core, rng.next_below(1 << 22), false, static_cast<std::uint64_t>(i));
  }
  WayMask all = 0;
  for (cache::CoreId c = 0; c < 3; ++c) {
    const WayMask m = sys.l2().way_mask(c);
    const auto count = mask_count(m);
    EXPECT_TRUE(is_pow2(count));
    EXPECT_EQ(m, way_range_mask(mask_first(m), count)) << "contiguous block";
    EXPECT_EQ(mask_first(m) % count, 0U) << "aligned block";
    EXPECT_EQ(all & m, 0ULL);
    all |= m;
  }
  EXPECT_EQ(all, full_way_mask(8));
}

TEST(PartitionedCache, AccessesFlowIntoProfilers) {
  auto cfg = CpaConfig::from_acronym("M-0.75N", 2, small_l2());
  cfg.sampling_ratio = 1;
  PartitionedCacheSystem sys(cfg);
  for (int i = 0; i < 100; ++i) sys.access(0, 0x40, false, 0);
  EXPECT_GT(sys.profiler(0).sdh().total(), 0ULL);
  EXPECT_EQ(sys.profiler(1).sdh().total(), 0ULL);
}

TEST(PartitionedCache, SamplingRatioLimitsProfiledShare) {
  auto cfg = CpaConfig::from_acronym("M-L", 2, small_l2());
  cfg.sampling_ratio = 32;
  PartitionedCacheSystem sys(cfg);
  Rng rng(8);
  for (int i = 0; i < 32000; ++i) {
    sys.access(0, rng.next_below(1 << 24), false, 0);
  }
  const double share = static_cast<double>(sys.profiler(0).sdh().total()) / 32000.0;
  EXPECT_NEAR(share, 1.0 / 32.0, 0.01);
}

TEST(PartitionedCache, RejectsMoreCoresThanWays) {
  auto cfg = CpaConfig::from_acronym("M-L", 9, small_l2());  // 8 ways only
  EXPECT_THROW(PartitionedCacheSystem{cfg}, InvariantError);
}

}  // namespace
}  // namespace plrupart::core
