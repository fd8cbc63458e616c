// Golden-equivalence replay: the statically-dispatched SoA access path must be
// bit-indistinguishable from the frozen pre-refactor reference model for every
// ReplacementKind × EnforcementMode combination, across hits, misses,
// evictions, probes, invalidations, partition updates and mid-trace resets.
//
// The shape axis aims the replay at the SWAR partial-tag filter in
// SetAssocCache::find_way, which nominates ways by their low tag byte and
// only then compares full tags:
//  * w8       8 ways (one filter word), 128 distinct tags per set;
//  * w8_wide  8 ways, 1024 distinct tags per set, so resident lines often
//             share a low tag byte and a nominated way's full tag differs;
//  * w64      64 ways (eight filter words), 2048 distinct tags per set.
// The wide shapes assert that such aliased lookups actually happened.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "plrupart/cache/cache.hpp"
#include "plrupart/common/rng.hpp"
#include "support/reference_cache.hpp"

namespace plrupart {
namespace {

using cache::EnforcementMode;
using cache::ReplacementKind;

enum class Shape : std::uint8_t { kW8, kW8Wide, kW64 };

struct ShapeParams {
  const char* name;
  std::uint32_t ways;
  std::uint64_t sets;
  std::uint64_t span;  ///< address range, in multiples of the cache's lines
};

ShapeParams params_of(Shape s) {
  switch (s) {
    case Shape::kW8Wide:
      return {"w8_wide", 8, 64, 128};
    case Shape::kW64:
      return {"w64", 64, 16, 32};
    case Shape::kW8:
      break;
  }
  return {"w8", 8, 64, 16};
}

struct Combo {
  ReplacementKind kind;
  EnforcementMode enforcement;
  Shape shape;
};

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  std::string s = to_string(info.param.kind) + "_" + to_string(info.param.enforcement) +
                  "_" + params_of(info.param.shape).name;
  for (auto& c : s) {
    if (c == '-' || c == '.') c = '_';
  }
  return s;
}

class GoldenEquivalence : public ::testing::TestWithParam<Combo> {};

void expect_same_stats(const cache::CacheStatsBundle& a, const cache::CacheStatsBundle& b) {
  ASSERT_EQ(a.per_core.size(), b.per_core.size());
  for (std::size_t c = 0; c < a.per_core.size(); ++c) {
    EXPECT_EQ(a.per_core[c].accesses, b.per_core[c].accesses) << "core " << c;
    EXPECT_EQ(a.per_core[c].hits, b.per_core[c].hits) << "core " << c;
    EXPECT_EQ(a.per_core[c].misses, b.per_core[c].misses) << "core " << c;
    EXPECT_EQ(a.per_core[c].writes, b.per_core[c].writes) << "core " << c;
    EXPECT_EQ(a.per_core[c].self_evictions, b.per_core[c].self_evictions) << "core " << c;
    EXPECT_EQ(a.per_core[c].cross_evictions, b.per_core[c].cross_evictions) << "core " << c;
  }
}

/// The tags resident in each way, mirrored from the access outcomes, to count
/// lookups whose low tag byte matches a resident line with a different tag.
class ResidentTags {
 public:
  explicit ResidentTags(const cache::Geometry& geo)
      : geo_(geo), tags_(geo.sets() * geo.associativity) {}

  [[nodiscard]] bool aliased(cache::Addr addr) const {
    const cache::Addr la = geo_.line_addr(addr);
    const std::uint64_t tag = geo_.tag(la);
    const std::uint64_t base = geo_.set_index(la) * geo_.associativity;
    for (std::uint32_t w = 0; w < geo_.associativity; ++w) {
      const auto& t = tags_[base + w];
      if (t && *t != tag && (*t & 0xff) == (tag & 0xff)) return true;
    }
    return false;
  }
  void fill(cache::Addr addr, std::uint32_t way) {
    slot(addr, way) = geo_.tag(geo_.line_addr(addr));
  }
  void drop(cache::Addr addr, std::uint32_t way) { slot(addr, way).reset(); }
  void clear() { tags_.assign(tags_.size(), std::nullopt); }

 private:
  std::optional<std::uint64_t>& slot(cache::Addr addr, std::uint32_t way) {
    return tags_[geo_.set_index(geo_.line_addr(addr)) * geo_.associativity + way];
  }

  cache::Geometry geo_;
  std::vector<std::optional<std::uint64_t>> tags_;
};

TEST_P(GoldenEquivalence, RandomTraceReplaysIdentically) {
  const auto [kind, enforcement, shape] = GetParam();
  const ShapeParams sp = params_of(shape);
  const std::uint32_t ways = sp.ways;
  const cache::Geometry geo{.size_bytes = sp.sets * ways * 128, .associativity = ways,
                            .line_bytes = 128};
  constexpr std::uint32_t kCores = 3;
  constexpr std::uint64_t kSeed = 0xc0ffee;

  cache::SetAssocCache sut(geo, kind, kCores, enforcement, kSeed);
  testing::ReferenceCache ref(geo, kind, kCores, enforcement, kSeed);
  ResidentTags resident(geo);
  std::uint64_t aliased_lookups = 0;

  Rng rng(42);
  std::vector<cache::Addr> history;
  for (int step = 0; step < 60'000; ++step) {
    // Occasionally reshape the partition, mirroring the interval controller.
    if (step % 4096 == 1000 && enforcement == EnforcementMode::kWayMasks) {
      // Three contiguous non-empty blocks over the set's ways.
      const auto cut1 = static_cast<std::uint32_t>(rng.next_in(1, ways - 2));
      const auto cut2 = static_cast<std::uint32_t>(rng.next_in(cut1 + 1, ways - 1));
      const WayMask m0 = way_range_mask(0, cut1);
      const WayMask m1 = way_range_mask(cut1, cut2 - cut1);
      const WayMask m2 = way_range_mask(cut2, ways - cut2);
      sut.set_way_mask(0, m0);
      sut.set_way_mask(1, m1);
      sut.set_way_mask(2, m2);
      ref.set_way_mask(0, m0);
      ref.set_way_mask(1, m1);
      ref.set_way_mask(2, m2);
    }
    if (step % 4096 == 2000 && enforcement == EnforcementMode::kOwnerCounters) {
      const auto q0 = static_cast<std::uint32_t>(rng.next_in(1, ways - 2));
      const auto q1 = static_cast<std::uint32_t>(rng.next_in(1, ways - 1 - q0));
      const std::uint32_t q2 = ways - q0 - q1;
      sut.set_way_quota(0, q0);
      sut.set_way_quota(1, q1);
      sut.set_way_quota(2, q2 > 0 ? q2 : 1);
      ref.set_way_quota(0, q0);
      ref.set_way_quota(1, q1);
      ref.set_way_quota(2, q2 > 0 ? q2 : 1);
    }

    if (step == 17'000 || step == 39'000) {
      // Mid-trace reset: both models must return to the same cold state.
      sut.reset();
      ref.reset();
      resident.clear();
      history.clear();
    }

    const auto op = rng.next_below(100);
    if (op < 4 && !history.empty()) {
      // Invalidate a recently-touched address (often still resident).
      const cache::Addr addr = history[rng.next_below(history.size())];
      if (const auto p = ref.probe(addr); p.hit) resident.drop(addr, p.way);
      EXPECT_EQ(sut.invalidate(addr), ref.invalidate(addr)) << "step " << step;
      continue;
    }
    if (op < 8 && !history.empty()) {
      const cache::Addr addr = history[rng.next_below(history.size())];
      aliased_lookups += resident.aliased(addr) ? 1 : 0;
      const auto ps = sut.probe(addr);
      const auto pr = ref.probe(addr);
      EXPECT_EQ(ps.hit, pr.hit) << "step " << step;
      EXPECT_EQ(ps.way, pr.way) << "step " << step;
      continue;
    }
    const auto core = static_cast<cache::CoreId>(rng.next_below(kCores));
    // Mix of reuse (history) and fresh addresses spanning the shape's range.
    cache::Addr addr;
    if (!history.empty() && rng.next_below(100) < 40) {
      addr = history[rng.next_below(history.size())];
    } else {
      addr = rng.next_below(sp.span * geo.lines()) * geo.line_bytes;
    }
    if (history.size() < 512)
      history.push_back(addr);
    else
      history[rng.next_below(history.size())] = addr;
    const bool write = rng.next_below(4) == 0;

    aliased_lookups += resident.aliased(addr) ? 1 : 0;
    const auto a = sut.access(core, addr, write);
    const auto b = ref.access(core, addr, write);
    ASSERT_EQ(a.hit, b.hit) << "step " << step;
    ASSERT_EQ(a.way, b.way) << "step " << step;
    ASSERT_EQ(a.evicted_valid, b.evicted_valid) << "step " << step;
    ASSERT_EQ(a.evicted_line, b.evicted_line) << "step " << step;
    ASSERT_EQ(a.evicted_owner, b.evicted_owner) << "step " << step;
    if (!a.hit) resident.fill(addr, a.way);

    if (step % 1024 == 0) {
      for (std::uint64_t set = 0; set < geo.sets(); set += 7) {
        for (cache::CoreId c = 0; c < kCores; ++c) {
          ASSERT_EQ(sut.owned_in_set(set, c), ref.owned_in_set(set, c))
              << "step " << step << " set " << set << " core " << c;
        }
      }
    }
  }

  expect_same_stats(sut.stats(), ref.stats());
  if (shape != Shape::kW8) {
    EXPECT_GT(aliased_lookups, 500U)
        << "the replay must exercise partial-tag matches whose full tag differs";
  }
}

std::vector<Combo> all_combos() {
  std::vector<Combo> combos;
  for (const auto kind : {ReplacementKind::kLru, ReplacementKind::kNru,
                          ReplacementKind::kTreePlru, ReplacementKind::kRandom,
                          ReplacementKind::kSrrip}) {
    for (const auto enf : {EnforcementMode::kNone, EnforcementMode::kWayMasks,
                           EnforcementMode::kOwnerCounters}) {
      for (const auto shape : {Shape::kW8, Shape::kW8Wide, Shape::kW64}) {
        combos.push_back({kind, enf, shape});
      }
    }
  }
  return combos;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, GoldenEquivalence, ::testing::ValuesIn(all_combos()),
                         combo_name);

}  // namespace
}  // namespace plrupart
