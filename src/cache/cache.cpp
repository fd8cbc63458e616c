#include "plrupart/cache/cache.hpp"

#include <algorithm>

#include "plrupart/cache/lru.hpp"
#include "plrupart/cache/nru.hpp"
#include "plrupart/cache/random_repl.hpp"
#include "plrupart/cache/srrip.hpp"
#include "plrupart/cache/tree_plru.hpp"

namespace plrupart::cache {

std::string to_string(EnforcementMode m) {
  switch (m) {
    case EnforcementMode::kNone:
      return "none";
    case EnforcementMode::kWayMasks:
      return "way-masks";
    case EnforcementMode::kOwnerCounters:
      return "owner-counters";
  }
  return "?";
}

SetAssocCache::SetAssocCache(const Geometry& geo, ReplacementKind repl,
                             std::uint32_t num_cores, EnforcementMode enforcement,
                             std::uint64_t seed)
    : geo_(geo),
      num_cores_(num_cores),
      enforcement_(enforcement),
      kind_(repl),
      policy_(make_policy(repl, geo, seed)),
      masks_(num_cores, full_way_mask(geo.associativity)),
      quotas_(num_cores, geo.associativity),
      stats_(num_cores) {
  PLRUPART_ASSERT(num_cores >= 1);
  geo_.validate();
  PLRUPART_ASSERT(kind_ == policy_->kind());
  ways_ = geo_.associativity;
  line_shift_ = ilog2_exact(geo_.line_bytes);
  tag_shift_ = ilog2_exact(geo_.sets());
  set_mask_ = geo_.sets() - 1;
  all_ways_ = full_way_mask(ways_);
  partial_words_ = (ways_ + 7) / 8;
  partial_off_ = num_cores_ + 1;
  meta_stride_ = partial_off_ + partial_words_;
  tags_.assign(geo_.sets() * ways_, 0);
  set_meta_.assign(geo_.sets() * meta_stride_, 0);
}

void SetAssocCache::reset() {
  std::fill(tags_.begin(), tags_.end(), 0);
  std::fill(set_meta_.begin(), set_meta_.end(), 0);
  policy_->reset();
  stats_.reset();
}

WayMask SetAssocCache::eviction_mask(std::uint64_t set, CoreId core) const {
  // Under quota: steal from other cores' lines; at/over quota: evict own.
  // The per-core ownership bitmasks are maintained incrementally, so this
  // is O(1) in the associativity (the pre-SoA layout rescanned every way).
  const WayMask valid = valid_mask(set);
  const WayMask own = owner_ways(set, core);
  const WayMask others = valid & ~own;
  const bool under_quota = mask_count(own) < quotas_[core];
  if (under_quota && others != 0) return others;
  if (own != 0) return own;
  // Degenerate set states (core owns everything, or owns nothing while at
  // quota zero lines): fall back to any valid line.
  return valid != 0 ? valid : all_ways_;
}

template <EnforcementMode E, class Policy>
AccessOutcome SetAssocCache::access_impl(Policy& pol, CoreId core, Addr addr,
                                         bool write) {
  PLRUPART_ASSERT(core < num_cores_);
  const Addr la = addr >> line_shift_;
  const std::uint64_t set = la & set_mask_;
  const std::uint64_t tag = la >> tag_shift_;

  CoreCacheStats& cs = stats_.per_core[core];
  ++cs.accesses;
  cs.writes += static_cast<std::uint64_t>(write);

  // The scope the replacement policy sees (NRU saturation resets, fills): the
  // core's way mask under mask enforcement, the whole set otherwise. Owner
  // counters derive their victim scope from line ownership, not from here.
  const WayMask policy_scope =
      E == EnforcementMode::kWayMasks ? masks_[core] : all_ways_;

  // Hit path: a core may hit in any way, regardless of partitioning.
  if (const std::uint32_t w = find_way(set, tag); w != kNoWay) {
    ++cs.hits;
    pol.on_hit(set, w, policy_scope);
    AccessOutcome out;
    out.hit = true;
    out.way = w;
    return out;
  }

  // Miss path.
  ++cs.misses;

  // Fill an invalid way first. Invalid lines belong to nobody, so the scan is
  // scoped by the way mask (mask enforcement confines a core's fills) but not
  // by ownership quotas.
  std::uint32_t victim;
  if (const WayMask invalid = policy_scope & ~valid_mask(set); invalid != 0) {
    victim = mask_first(invalid);
  } else {
    const WayMask victim_scope = E == EnforcementMode::kOwnerCounters
                                     ? eviction_mask(set, core)
                                     : policy_scope;
    victim = pol.choose_victim(set, victim_scope);
    PLRUPART_ASSERT_MSG(mask_test(victim_scope, victim),
                        "victim escaped the enforcement mask");
  }

  AccessOutcome out;
  const std::uint64_t idx = set * ways_ + victim;
  const WayMask victim_bit = WayMask{1} << victim;
  if ((valid_mask(set) & victim_bit) != 0) {
    const CoreId prev_owner = owner_of(set, victim);
    out.evicted_valid = true;
    out.evicted_line = (tags_[idx] << tag_shift_) | set;
    out.evicted_owner = prev_owner;
    if (prev_owner == core)
      ++cs.self_evictions;
    else
      ++cs.cross_evictions;
    owner_ways(set, prev_owner) &= ~victim_bit;
  }

  tags_[idx] = tag;
  set_partial(set, victim, tag);
  valid_mask(set) |= victim_bit;
  owner_ways(set, core) |= victim_bit;

  pol.on_fill(set, victim, policy_scope);
  out.hit = false;
  out.way = victim;
  return out;
}

AccessOutcome SetAssocCache::access(CoreId core, Addr addr, bool write) {
  const auto run = [&](auto& pol) {
    switch (enforcement_) {
      case EnforcementMode::kWayMasks:
        return access_impl<EnforcementMode::kWayMasks>(pol, core, addr, write);
      case EnforcementMode::kOwnerCounters:
        return access_impl<EnforcementMode::kOwnerCounters>(pol, core, addr, write);
      case EnforcementMode::kNone:
        break;
    }
    return access_impl<EnforcementMode::kNone>(pol, core, addr, write);
  };
  // Every shipped policy is `final`: downcasting once per access on the kind
  // cached at construction (asserted against policy_->kind() there) lets the
  // whole policy update inline instead of paying 2-3 virtual calls.
  switch (kind_) {
    case ReplacementKind::kLru:
      return run(static_cast<TrueLru&>(*policy_));
    case ReplacementKind::kNru:
      return run(static_cast<Nru&>(*policy_));
    case ReplacementKind::kTreePlru:
      return run(static_cast<TreePlru&>(*policy_));
    case ReplacementKind::kRandom:
      return run(static_cast<RandomRepl&>(*policy_));
    case ReplacementKind::kSrrip:
      return run(static_cast<Srrip&>(*policy_));
  }
  PLRUPART_ASSERT_MSG(false, "unknown replacement kind");
  return run(static_cast<TrueLru&>(*policy_));  // unreachable
}

AccessOutcome SetAssocCache::probe(Addr addr) const {
  const Addr la = addr >> line_shift_;
  const std::uint64_t set = la & set_mask_;
  const std::uint64_t tag = la >> tag_shift_;
  AccessOutcome out;
  if (const std::uint32_t w = find_way(set, tag); w != kNoWay) {
    out.hit = true;
    out.way = w;
  }
  return out;
}

bool SetAssocCache::invalidate(Addr addr) {
  const Addr la = addr >> line_shift_;
  const std::uint64_t set = la & set_mask_;
  const std::uint64_t tag = la >> tag_shift_;
  const std::uint32_t w = find_way(set, tag);
  if (w == kNoWay) return false;
  const WayMask bit = WayMask{1} << w;
  owner_ways(set, owner_of(set, w)) &= ~bit;
  valid_mask(set) &= ~bit;
  return true;
}

void SetAssocCache::set_way_mask(CoreId core, WayMask mask) {
  PLRUPART_ASSERT(core < num_cores_);
  PLRUPART_ASSERT_MSG(enforcement_ == EnforcementMode::kWayMasks,
                      "way masks only apply in kWayMasks mode");
  mask &= all_ways_;
  PLRUPART_ASSERT_MSG(mask != 0, "a core needs at least one way");
  masks_[core] = mask;
}

WayMask SetAssocCache::way_mask(CoreId core) const {
  PLRUPART_ASSERT(core < num_cores_);
  return masks_[core];
}

void SetAssocCache::set_way_quota(CoreId core, std::uint32_t ways) {
  PLRUPART_ASSERT(core < num_cores_);
  PLRUPART_ASSERT_MSG(enforcement_ == EnforcementMode::kOwnerCounters,
                      "quotas only apply in kOwnerCounters mode");
  PLRUPART_ASSERT(ways >= 1 && ways <= ways_);
  quotas_[core] = ways;
}

std::uint32_t SetAssocCache::way_quota(CoreId core) const {
  PLRUPART_ASSERT(core < num_cores_);
  return quotas_[core];
}

std::uint32_t SetAssocCache::owned_in_set(std::uint64_t set, CoreId core) const {
  PLRUPART_ASSERT(core < num_cores_);
  return mask_count(owner_ways(set, core));
}

}  // namespace plrupart::cache
