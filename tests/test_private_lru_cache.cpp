// PrivateLruCache, the simulator's private L1D, against the general cache it
// replaces: SetAssocCache configured as one core, true LRU, unpartitioned.
// Every access must agree on hit, way and eviction, so the L1 filter in
// front of the shared L2 is unchanged bit for bit.
#include "plrupart/cache/private_lru_cache.hpp"

#include <gtest/gtest.h>

#include "plrupart/cache/cache.hpp"
#include "plrupart/common/rng.hpp"

namespace plrupart::cache {
namespace {

void expect_same_sequence(const Geometry& geo, std::uint64_t seed, std::uint64_t footprint_lines,
                          int ops) {
  PrivateLruCache lean(geo);
  SetAssocCache general(geo, ReplacementKind::kLru, 1, EnforcementMode::kNone, seed);
  Rng rng(seed);
  for (int i = 0; i < ops; ++i) {
    // Mostly a hot region, sometimes far away: hits, cold fills and
    // evictions all occur.
    const std::uint64_t line = rng.next_bool(0.8) ? rng.next_below(footprint_lines)
                                                  : rng.next_below(footprint_lines * 64);
    const Addr addr = (line * geo.line_bytes) + rng.next_below(geo.line_bytes);
    const bool write = rng.next_bool(0.3);
    const AccessOutcome a = lean.access(0, addr, write);
    const AccessOutcome b = general.access(0, addr, write);
    ASSERT_EQ(a.hit, b.hit) << "op " << i;
    ASSERT_EQ(a.way, b.way) << "op " << i;
    ASSERT_EQ(a.evicted_valid, b.evicted_valid) << "op " << i;
    ASSERT_EQ(a.evicted_line, b.evicted_line) << "op " << i;
    ASSERT_EQ(a.evicted_owner, b.evicted_owner) << "op " << i;
  }
}

TEST(PrivateLruCache, MatchesOneCoreLruSetAssocCacheOnSeededStreams) {
  const Geometry shapes[] = {
      {.size_bytes = 32 * 1024, .associativity = 2, .line_bytes = 128},  // the paper's L1D
      {.size_bytes = 4096, .associativity = 2, .line_bytes = 128},
      {.size_bytes = 8192, .associativity = 1, .line_bytes = 64},
      {.size_bytes = 16 * 1024, .associativity = 8, .line_bytes = 64},
      {.size_bytes = 64 * 1024, .associativity = 16, .line_bytes = 128},
  };
  for (const Geometry& geo : shapes) {
    for (const std::uint64_t seed : {1ULL, 42ULL, 20261017ULL}) {
      SCOPED_TRACE(::testing::Message() << geo.size_bytes << "B/" << geo.associativity
                                        << "-way seed " << seed);
      expect_same_sequence(geo, seed, geo.lines() * 2, 60'000);
    }
  }
}

TEST(PrivateLruCache, ResetEmptiesEveryWay) {
  const Geometry geo{.size_bytes = 4096, .associativity = 2, .line_bytes = 128};
  PrivateLruCache c(geo);
  EXPECT_FALSE(c.access(0, 0x1000).hit);
  EXPECT_TRUE(c.access(0, 0x1000).hit);
  c.reset();
  const AccessOutcome again = c.access(0, 0x1000);
  EXPECT_FALSE(again.hit);
  EXPECT_FALSE(again.evicted_valid);
  EXPECT_EQ(again.way, 0u);
}

}  // namespace
}  // namespace plrupart::cache
