// Auxiliary Tag Directory: set sampling, hit/miss semantics, pre-update
// estimates, and a digest pin of every observation per policy and shape.
#include "plrupart/core/atd.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <tuple>

#include "plrupart/common/rng.hpp"

namespace plrupart::core {
namespace {

cache::Geometry l2_16sets() {
  // 16 sets x 4 ways x 64B.
  return cache::Geometry{.size_bytes = 4096, .associativity = 4, .line_bytes = 64};
}

cache::Addr line_in_set(const cache::Geometry& g, std::uint64_t set, std::uint64_t tag) {
  return (tag << ilog2_exact(g.sets())) | set;
}

TEST(Atd, SamplesEveryRatiothSet) {
  const auto g = l2_16sets();
  Atd atd(g, cache::ReplacementKind::kLru, /*sampling_ratio=*/4);
  EXPECT_EQ(atd.sets(), 4ULL);
  int sampled = 0;
  for (std::uint64_t s = 0; s < g.sets(); ++s) {
    if (atd.is_sampled(line_in_set(g, s, 1))) {
      ++sampled;
      EXPECT_EQ(s % 4, 0ULL);
    }
  }
  EXPECT_EQ(sampled, 4);
}

TEST(Atd, UnsampledAccessReturnsNothing) {
  Atd atd(l2_16sets(), cache::ReplacementKind::kLru, 4);
  EXPECT_FALSE(atd.access(line_in_set(l2_16sets(), 1, 5)).has_value());
  EXPECT_TRUE(atd.access(line_in_set(l2_16sets(), 4, 5)).has_value());
}

TEST(Atd, SamplingRatioOneProfilesEverything) {
  const auto g = l2_16sets();
  Atd atd(g, cache::ReplacementKind::kLru, 1);
  for (std::uint64_t s = 0; s < g.sets(); ++s) {
    EXPECT_TRUE(atd.access(line_in_set(g, s, 1)).has_value());
  }
}

TEST(Atd, MissThenHitSemantics) {
  const auto g = l2_16sets();
  Atd atd(g, cache::ReplacementKind::kLru, 4);
  const auto first = atd.access(line_in_set(g, 0, 9));
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->hit);
  const auto second = atd.access(line_in_set(g, 0, 9));
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->hit);
  EXPECT_EQ(second->estimate.point, 1U) << "immediate re-reference is MRU";
}

TEST(Atd, EstimateIsPreUpdate) {
  // Access X, then Y, then X again: under LRU the second X access must see
  // stack distance 2 (one line referenced since), not 1.
  const auto g = l2_16sets();
  Atd atd(g, cache::ReplacementKind::kLru, 4);
  atd.access(line_in_set(g, 0, 1));
  atd.access(line_in_set(g, 0, 2));
  const auto obs = atd.access(line_in_set(g, 0, 1));
  ASSERT_TRUE(obs.has_value());
  ASSERT_TRUE(obs->hit);
  EXPECT_EQ(obs->estimate.point, 2U);
}

TEST(Atd, CapacityMissAfterAssociativityDistinctLines) {
  const auto g = l2_16sets();
  Atd atd(g, cache::ReplacementKind::kLru, 4);
  for (std::uint64_t t = 0; t < 4; ++t) atd.access(line_in_set(g, 0, t));
  // Tag 0 is LRU: a fifth line evicts it.
  atd.access(line_in_set(g, 0, 99));
  const auto obs = atd.access(line_in_set(g, 0, 0));
  ASSERT_TRUE(obs.has_value());
  EXPECT_FALSE(obs->hit) << "the thread would miss even with full associativity";
}

TEST(Atd, DifferentTagsSameAtdSetConflictCorrectly) {
  // Two L2 sets 4 apart map to the same ATD set only if ratio folds them —
  // they must NOT: sampling selects sets, it does not fold them.
  const auto g = l2_16sets();
  Atd atd(g, cache::ReplacementKind::kLru, 4);
  atd.access(line_in_set(g, 0, 1));
  const auto obs = atd.access(line_in_set(g, 4, 1));
  ASSERT_TRUE(obs.has_value());
  EXPECT_FALSE(obs->hit) << "set 4 is a different sampled set than set 0";
}

TEST(Atd, NruAtdReportsIntervalEstimates) {
  const auto g = l2_16sets();
  Atd atd(g, cache::ReplacementKind::kNru, 4);
  atd.access(line_in_set(g, 0, 1));
  const auto obs = atd.access(line_in_set(g, 0, 1));
  ASSERT_TRUE(obs.has_value());
  ASSERT_TRUE(obs->hit);
  EXPECT_EQ(obs->estimate.lo, 1U);
  EXPECT_GE(obs->estimate.hi, 1U);
}

TEST(Atd, RejectsBadSamplingRatio) {
  EXPECT_THROW(Atd(l2_16sets(), cache::ReplacementKind::kLru, 3), InvariantError);
  EXPECT_THROW(Atd(l2_16sets(), cache::ReplacementKind::kLru, 32), InvariantError);
}


// Observation digests over a seeded stream with heavy set conflicts, per
// replacement kind x sampling ratio x associativity. Captured from the
// stand-alone ATD tag store before it moved onto SetAssocCache: any drift in
// sampling, hit/miss, the filled way or the pre-update estimate changes them.
using GoldenParam = std::tuple<cache::ReplacementKind, std::uint32_t, std::uint32_t>;

std::string golden_key(const GoldenParam& p) {
  return cache::to_string(std::get<0>(p)) + "_r" + std::to_string(std::get<1>(p)) +
         "_w" + std::to_string(std::get<2>(p));
}

// clang-format off
const std::map<std::string, std::uint64_t> kAtdGolden = {
    {"BT_r1_w16", 0x14d18b2e5ec60c02ULL},
    {"BT_r1_w4", 0xcab3be8657588d44ULL},
    {"BT_r4_w16", 0xd874deba4dc40cddULL},
    {"BT_r4_w4", 0x82ba3c2d450da106ULL},
    {"LRU_r1_w16", 0x78c492543f9a8ec5ULL},
    {"LRU_r1_w4", 0x1b3f830d71d47e47ULL},
    {"LRU_r4_w16", 0xfc2bd2df70d74eb5ULL},
    {"LRU_r4_w4", 0xe4c3df9906d71a67ULL},
    {"NRU_r1_w16", 0x4c917ee981ebca45ULL},
    {"NRU_r1_w4", 0x903fea0a6858f2a7ULL},
    {"NRU_r4_w16", 0x9615e83ad17834dbULL},
    {"NRU_r4_w4", 0xcef065452245cd86ULL},
    {"RANDOM_r1_w16", 0xf442090e24475c6dULL},
    {"RANDOM_r1_w4", 0x28643213d03399a7ULL},
    {"RANDOM_r4_w16", 0x2a2a021cddce0666ULL},
    {"RANDOM_r4_w4", 0x6fa1ab211ee42d87ULL},
    {"SRRIP_r1_w16", 0xf4ca055022858e66ULL},
    {"SRRIP_r1_w4", 0xed5ce43d71a82d04ULL},
    {"SRRIP_r4_w16", 0xc4b8432996a58cecULL},
    {"SRRIP_r4_w4", 0xb7781b6527f79866ULL},
};
// clang-format on

class AtdGolden : public ::testing::TestWithParam<GoldenParam> {};

TEST_P(AtdGolden, ObservationDigestIsPinned) {
  const auto [kind, ratio, ways] = GetParam();
  // 64 sets; 3*A live tags per set keep every sampled set thrashing.
  const cache::Geometry g{.size_bytes = 64ULL * ways * 64, .associativity = ways,
                          .line_bytes = 64};
  Atd atd(g, kind, ratio, /*seed=*/0xa7d);
  Rng rng(20261017);
  std::uint64_t h = kFnv1a64Init;
  auto mix = [&h](std::uint64_t v) {
    h = fnv1a64(std::string_view(reinterpret_cast<const char*>(&v), sizeof v), h);
  };
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t set = rng.next_below(16) * 4 + (rng.next_bool(0.1) ? 1 : 0);
    const cache::Addr line = line_in_set(g, set, rng.next_below(3ULL * ways));
    const auto obs = atd.access(line);
    mix(obs.has_value() ? 1 : 0);
    if (!obs) continue;
    mix(obs->hit ? 1 : 0);
    mix(obs->way);
    mix(obs->estimate.lo);
    mix(obs->estimate.hi);
    mix(obs->estimate.point);
  }
  const std::string key = golden_key(GetParam());
  const auto it = kAtdGolden.find(key);
  ASSERT_NE(it, kAtdGolden.end()) << "no golden for " << key << ": 0x" << std::hex << h;
  EXPECT_EQ(h, it->second) << key << ": 0x" << std::hex << h;
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, AtdGolden,
    ::testing::Combine(::testing::Values(cache::ReplacementKind::kLru,
                                         cache::ReplacementKind::kNru,
                                         cache::ReplacementKind::kTreePlru,
                                         cache::ReplacementKind::kRandom,
                                         cache::ReplacementKind::kSrrip),
                       ::testing::Values(1U, 4U), ::testing::Values(4U, 16U)),
    [](const ::testing::TestParamInfo<GoldenParam>& p) { return golden_key(p.param); });

}  // namespace
}  // namespace plrupart::core
