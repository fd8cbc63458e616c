// Two-level memory hierarchy: private per-core L1 data caches in front of the
// shared, partitioned L2 (the paper's baseline: 32KB 2-way L1D, 2MB 16-way
// shared L2).
//
// Instruction fetch is not modeled: SPEC CPU 2000 code footprints fit the 64KB
// L1I, so instruction traffic contributes negligibly to L2 contention — the
// phenomenon under study (see DESIGN.md substitutions).
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <memory>
#include <vector>

#include "plrupart/cache/cache.hpp"
#include "plrupart/cache/private_lru_cache.hpp"
#include "plrupart/core/partitioned_cache.hpp"
#include "plrupart/sim/core_model.hpp"

namespace plrupart::sim {

struct PLRUPART_EXPORT HierarchyConfig {
  cache::Geometry l1d{.size_bytes = 32 * 1024, .associativity = 2, .line_bytes = 128};
  core::CpaConfig l2;  // num_cores inside governs the hierarchy width

  void validate() const {
    l1d.validate();
    l2.geometry.validate();
  }
};

struct PLRUPART_EXPORT HierarchyCounters {
  std::uint64_t l1_accesses = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_accesses = 0;
  std::uint64_t l2_misses = 0;
};

class PLRUPART_EXPORT MemoryHierarchy {
 public:
  explicit MemoryHierarchy(HierarchyConfig config);

  /// One data access by `core`; returns the level that satisfied it.
  AccessLevel access(cache::CoreId core, cache::Addr addr, bool write,
                     std::uint64_t now_cycles) {
    PLRUPART_ASSERT(core < l1d_.size());
    cache::AccessOutcome l2;
    return access_shared(core, addr, write, l1d_[core].access(0, addr, write).hit, now_cycles,
                         l2);
  }

  /// The shared half of access(), for a caller that ran the private L1
  /// itself (the simulator's per-core front end): count one access whose L1
  /// outcome is `l1_hit` and, on an L1 miss, access the shared L2. `l2`
  /// receives the L2 outcome (untouched on an L1 hit).
  AccessLevel access_shared(cache::CoreId core, cache::Addr addr, bool write, bool l1_hit,
                            std::uint64_t now_cycles, cache::AccessOutcome& l2) {
    HierarchyCounters& ctr = counters_[core];
    ++ctr.l1_accesses;
    if (l1_hit) return AccessLevel::kL1;
    ++ctr.l1_misses;
    ++ctr.l2_accesses;
    l2 = l2_->access(core, addr, write, now_cycles);
    if (l2.hit) return AccessLevel::kL2;
    ++ctr.l2_misses;
    return AccessLevel::kMemory;
  }

  [[nodiscard]] const HierarchyConfig& config() const noexcept { return config_; }
  [[nodiscard]] core::PartitionedCacheSystem& l2() noexcept { return *l2_; }
  [[nodiscard]] const core::PartitionedCacheSystem& l2() const noexcept { return *l2_; }
  [[nodiscard]] const cache::PrivateLruCache& l1d(cache::CoreId core) const;
  [[nodiscard]] const HierarchyCounters& counters(cache::CoreId core) const;
  /// Mutable L1 access for callers that drive the private L1s themselves
  /// (the simulator's front end; see access_shared).
  [[nodiscard]] cache::PrivateLruCache& l1d_mut(cache::CoreId core);
  [[nodiscard]] std::uint32_t num_cores() const noexcept { return config_.l2.num_cores; }

  void reset();

 private:
  HierarchyConfig config_;
  std::vector<cache::PrivateLruCache> l1d_;
  std::unique_ptr<core::PartitionedCacheSystem> l2_;
  std::vector<HierarchyCounters> counters_;
};

}  // namespace plrupart::sim
