// Property sweeps across (core count, associativity) for every partition
// policy: structural invariants that must hold at any hardware shape.
#include <gtest/gtest.h>

#include <tuple>

#include "plrupart/common/rng.hpp"
#include "plrupart/core/fair.hpp"
#include "plrupart/core/min_misses.hpp"
#include "plrupart/core/qos.hpp"
#include "plrupart/core/static_policy.hpp"
#include "plrupart/core/tree_rounding.hpp"

namespace plrupart::core {
namespace {

using Shape = std::tuple<std::uint32_t /*cores*/, std::uint32_t /*ways*/>;

class PartitionProperties : public ::testing::TestWithParam<Shape> {
 protected:
  [[nodiscard]] std::uint32_t cores() const { return std::get<0>(GetParam()); }
  [[nodiscard]] std::uint32_t ways() const { return std::get<1>(GetParam()); }

  [[nodiscard]] std::vector<MissCurve> random_curves(Rng& rng) const {
    std::vector<MissCurve> curves;
    for (std::uint32_t i = 0; i < cores(); ++i) {
      std::vector<double> v(ways() + 1);
      v[0] = 100.0 + rng.next_double() * 10000.0;
      for (std::uint32_t w = 1; w <= ways(); ++w)
        v[w] = v[w - 1] * (0.5 + rng.next_double() * 0.5);
      curves.emplace_back(std::move(v));
    }
    return curves;
  }
};

TEST_P(PartitionProperties, AllSolversProduceValidPartitions) {
  Rng rng(1000 + cores() * 100 + ways());
  for (int trial = 0; trial < 50; ++trial) {
    const auto curves = random_curves(rng);
    for (const auto& p :
         {min_misses_optimal(curves, ways()), min_misses_greedy(curves, ways()),
          min_misses_lookahead(curves, ways()), min_misses_tree(curves, ways())}) {
      validate_partition(p, ways());
    }
  }
}

TEST_P(PartitionProperties, OptimalNeverLosesToOtherSolvers) {
  Rng rng(2000 + cores() * 100 + ways());
  for (int trial = 0; trial < 50; ++trial) {
    const auto curves = random_curves(rng);
    const double best = partition_cost(curves, min_misses_optimal(curves, ways()));
    EXPECT_LE(best,
              partition_cost(curves, min_misses_greedy(curves, ways())) + 1e-9);
    EXPECT_LE(best,
              partition_cost(curves, min_misses_lookahead(curves, ways())) + 1e-9);
    EXPECT_LE(best, partition_cost(curves, min_misses_tree(curves, ways())) + 1e-9);
  }
}

TEST_P(PartitionProperties, FairAndQosAreValidEverywhere) {
  Rng rng(3000 + cores() * 100 + ways());
  FairPolicy fair;
  QosPolicy qos(QosTarget{.core = 0, .factor = 1.25});
  for (int trial = 0; trial < 50; ++trial) {
    const auto curves = random_curves(rng);
    validate_partition(fair.decide(curves, ways()), ways());
    validate_partition(qos.decide(curves, ways()), ways());
  }
}

TEST_P(PartitionProperties, ContiguousMasksAlwaysTile) {
  Rng rng(4000 + cores() * 100 + ways());
  for (int trial = 0; trial < 50; ++trial) {
    const auto p = min_misses_optimal(random_curves(rng), ways());
    const auto masks = contiguous_masks(p);
    WayMask all = 0;
    for (std::size_t i = 0; i < masks.size(); ++i) {
      ASSERT_EQ(mask_count(masks[i]), p[i]);
      ASSERT_EQ(all & masks[i], 0ULL);
      all |= masks[i];
    }
    ASSERT_EQ(all, full_way_mask(ways()));
  }
}

TEST_P(PartitionProperties, TreeRoundingIsVectorExpressible) {
  Rng rng(5000 + cores() * 100 + ways());
  const cache::Geometry geo{.size_bytes = 4ULL * ways() * 64,
                            .associativity = ways(),
                            .line_bytes = 64};
  cache::TreePlru tree(geo);
  for (int trial = 0; trial < 50; ++trial) {
    const auto ideal = min_misses_optimal(random_curves(rng), ways());
    const auto rounded = round_to_pow2_partition(ideal, ways());
    const auto enf = make_tree_enforcement(tree, rounded, ways());
    for (std::size_t i = 0; i < enf.masks.size(); ++i) {
      ASSERT_EQ(tree.reachable_ways(enf.vectors[i]), enf.masks[i]);
    }
  }
}

TEST_P(PartitionProperties, MoreTotalWaysNeverIncreasesOptimalCost) {
  // Monotonicity: the optimum with a bigger cache is at least as good. Needs
  // curves defined past `ways()`, so extend to 2x.
  if (ways() > 32) GTEST_SKIP();
  Rng rng(6000 + cores() * 100 + ways());
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<MissCurve> curves;
    for (std::uint32_t i = 0; i < cores(); ++i) {
      std::vector<double> v(2 * ways() + 1);
      v[0] = 100.0 + rng.next_double() * 10000.0;
      for (std::uint32_t w = 1; w <= 2 * ways(); ++w)
        v[w] = v[w - 1] * (0.5 + rng.next_double() * 0.5);
      curves.emplace_back(std::move(v));
    }
    const double small = partition_cost(curves, min_misses_optimal(curves, ways()));
    const double big = partition_cost(curves, min_misses_optimal(curves, 2 * ways()));
    EXPECT_LE(big, small + 1e-9);
  }
}

std::string shape_name(const ::testing::TestParamInfo<Shape>& info) {
  std::string name = "n";
  name += std::to_string(std::get<0>(info.param));
  name += "_w";
  name += std::to_string(std::get<1>(info.param));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionProperties,
    ::testing::Values(Shape{2, 4}, Shape{2, 16}, Shape{3, 8}, Shape{4, 16},
                      Shape{8, 16}, Shape{7, 32}, Shape{16, 64}),
    shape_name);

}  // namespace
}  // namespace plrupart::core
