#include "plrupart/sim/memory_hierarchy.hpp"

namespace plrupart::sim {

MemoryHierarchy::MemoryHierarchy(HierarchyConfig config) : config_(std::move(config)) {
  config_.validate();
  const std::uint32_t cores = config_.l2.num_cores;
  PLRUPART_ASSERT(cores >= 1);
  l1d_.reserve(cores);
  for (std::uint32_t i = 0; i < cores; ++i) l1d_.emplace_back(config_.l1d);
  l2_ = std::make_unique<core::PartitionedCacheSystem>(config_.l2);
  counters_.resize(cores);
}

const cache::PrivateLruCache& MemoryHierarchy::l1d(cache::CoreId core) const {
  PLRUPART_ASSERT(core < l1d_.size());
  return l1d_[core];
}

const HierarchyCounters& MemoryHierarchy::counters(cache::CoreId core) const {
  PLRUPART_ASSERT(core < counters_.size());
  return counters_[core];
}

cache::PrivateLruCache& MemoryHierarchy::l1d_mut(cache::CoreId core) {
  PLRUPART_ASSERT(core < l1d_.size());
  return l1d_[core];
}

}  // namespace plrupart::sim
