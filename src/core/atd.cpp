#include "plrupart/core/atd.hpp"

#include <bit>

namespace plrupart::core {

namespace {
[[nodiscard]] cache::Geometry sampled_geometry(const cache::Geometry& l2,
                                               std::uint32_t ratio) {
  PLRUPART_ASSERT_MSG(is_pow2(ratio), "sampling ratio must be a power of two");
  PLRUPART_ASSERT_MSG(l2.sets() % ratio == 0, "sampling ratio exceeds set count");
  cache::Geometry g = l2;
  g.size_bytes = l2.size_bytes / ratio;
  g.validate();
  return g;
}
}  // namespace

Atd::Atd(const cache::Geometry& l2_geometry, cache::ReplacementKind replacement,
         std::uint32_t sampling_ratio, std::uint64_t seed)
    : sampling_ratio_(sampling_ratio),
      tags_(sampled_geometry(l2_geometry, sampling_ratio), replacement, 1,
            cache::EnforcementMode::kNone, seed) {}

std::optional<AtdObservation> Atd::access(cache::Addr line_addr) {
  if (!is_sampled(line_addr)) return std::nullopt;
  // Dropping the (all-zero) sampling bits leaves the L2 set bits above them
  // as the ATD set index and the L2 tag above those as the ATD tag.
  const cache::Addr line = line_addr >> std::countr_zero(sampling_ratio_);
  const cache::Addr addr = line * tags_.geometry().line_bytes;

  AtdObservation obs;
  if (const cache::AccessOutcome seen = tags_.probe(addr); seen.hit) {
    // Read the estimate before the access updates the replacement state. The
    // policy's stored set count avoids the divisions Geometry::set_index hides.
    cache::ReplacementPolicy& pol = tags_.policy();
    obs.estimate = pol.estimate_position(line & (pol.sets() - 1), seen.way);
  }
  const cache::AccessOutcome out = tags_.access(0, addr);
  obs.hit = out.hit;
  obs.way = out.way;
  return obs;
}

}  // namespace plrupart::core
