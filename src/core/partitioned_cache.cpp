#include "plrupart/core/partitioned_cache.hpp"

#include <sstream>

#include "plrupart/cache/tree_plru.hpp"
#include "plrupart/common/rng.hpp"
#include "plrupart/core/fair.hpp"
#include "plrupart/core/static_policy.hpp"
#include "plrupart/core/tree_rounding.hpp"

namespace plrupart::core {

CpaConfig CpaConfig::from_acronym(const std::string& name, std::uint32_t num_cores,
                                  cache::Geometry geometry) {
  CpaConfig c;
  c.geometry = geometry;
  c.num_cores = num_cores;
  if (name == "C-L") {
    c.replacement = cache::ReplacementKind::kLru;
    c.enforcement = cache::EnforcementMode::kOwnerCounters;
  } else if (name == "M-L") {
    c.replacement = cache::ReplacementKind::kLru;
    c.enforcement = cache::EnforcementMode::kWayMasks;
  } else if (name == "M-1.0N" || name == "M-0.75N" || name == "M-0.5N") {
    c.replacement = cache::ReplacementKind::kNru;
    c.enforcement = cache::EnforcementMode::kWayMasks;
    c.esdh_scale = name == "M-1.0N" ? 1.0 : (name == "M-0.75N" ? 0.75 : 0.5);
  } else if (name == "M-BT") {
    c.replacement = cache::ReplacementKind::kTreePlru;
    c.enforcement = cache::EnforcementMode::kWayMasks;
  } else if (name == "M-RRIP") {
    c.replacement = cache::ReplacementKind::kSrrip;
    c.enforcement = cache::EnforcementMode::kWayMasks;
  } else if (name == "NOPART-RRIP") {
    c.replacement = cache::ReplacementKind::kSrrip;
    c.enforcement = cache::EnforcementMode::kNone;
  } else if (name == "NOPART-L") {
    c.replacement = cache::ReplacementKind::kLru;
    c.enforcement = cache::EnforcementMode::kNone;
  } else if (name == "NOPART-N") {
    c.replacement = cache::ReplacementKind::kNru;
    c.enforcement = cache::EnforcementMode::kNone;
  } else if (name == "NOPART-BT") {
    c.replacement = cache::ReplacementKind::kTreePlru;
    c.enforcement = cache::EnforcementMode::kNone;
  } else if (name == "NOPART-R") {
    c.replacement = cache::ReplacementKind::kRandom;
    c.enforcement = cache::EnforcementMode::kNone;
  } else {
    PLRUPART_ASSERT_MSG(false, "unknown configuration acronym: " + name);
  }
  return c;
}

const std::vector<std::string>& CpaConfig::known_acronyms() {
  static const std::vector<std::string> names = {
      "C-L",      "M-L",      "M-1.0N",    "M-0.75N",  "M-0.5N",      "M-BT",
      "M-RRIP",   "NOPART-L", "NOPART-N",  "NOPART-BT", "NOPART-R",   "NOPART-RRIP"};
  return names;
}

std::string CpaConfig::acronym() const {
  if (!partitioned()) {
    switch (replacement) {
      case cache::ReplacementKind::kLru:
        return "NOPART-L";
      case cache::ReplacementKind::kNru:
        return "NOPART-N";
      case cache::ReplacementKind::kTreePlru:
        return "NOPART-BT";
      case cache::ReplacementKind::kRandom:
        return "NOPART-R";
      case cache::ReplacementKind::kSrrip:
        return "NOPART-RRIP";
    }
  }
  std::ostringstream os;
  os << (enforcement == cache::EnforcementMode::kOwnerCounters ? 'C' : 'M') << '-';
  switch (replacement) {
    case cache::ReplacementKind::kLru:
      os << 'L';
      break;
    case cache::ReplacementKind::kNru: {
      std::ostringstream scale;
      scale << esdh_scale;
      std::string s = scale.str();
      if (s.find('.') == std::string::npos) s += ".0";  // "1" -> "1.0"
      os << s << 'N';
      break;
    }
    case cache::ReplacementKind::kTreePlru:
      os << "BT";
      break;
    case cache::ReplacementKind::kRandom:
      os << 'R';
      break;
    case cache::ReplacementKind::kSrrip:
      os << "RRIP";
      break;
  }
  return os.str();
}

PartitionedCacheSystem::PartitionedCacheSystem(CpaConfig config)
    : config_(std::move(config)) {
  config_.geometry.validate();
  line_shift_ = ilog2_exact(config_.geometry.line_bytes);
  PLRUPART_ASSERT(config_.num_cores >= 1);
  PLRUPART_ASSERT_MSG(config_.num_cores <= config_.geometry.associativity,
                      "cannot give every core a way");

  l2_ = std::make_unique<cache::SetAssocCache>(config_.geometry, config_.replacement,
                                               config_.num_cores, config_.enforcement,
                                               config_.seed);

  if (!config_.partitioned()) return;

  profilers_.reserve(config_.num_cores);
  std::vector<Profiler*> raw;
  for (std::uint32_t i = 0; i < config_.num_cores; ++i) {
    profilers_.push_back(make_profiler(config_.profiler, config_.replacement,
                                       config_.geometry, config_.sampling_ratio,
                                       config_.esdh_scale, config_.nru_update,
                                       derive_seed(config_.seed, i)));
    raw.push_back(profilers_.back().get());
  }

  controller_ = std::make_unique<IntervalController>(
      config_.interval_cycles, config_.geometry.associativity, make_partition_policy(),
      std::move(raw), [this](const Partition& p) { apply_partition(p); },
      config_.repartition_hysteresis);
}

std::unique_ptr<PartitionPolicy> PartitionedCacheSystem::make_partition_policy() const {
  switch (config_.policy) {
    case PolicyKind::kMinMissesOptimal:
      return std::make_unique<MinMissesPolicy>(MinMissesAlgorithm::kOptimal);
    case PolicyKind::kMinMissesGreedy:
      return std::make_unique<MinMissesPolicy>(MinMissesAlgorithm::kGreedy);
    case PolicyKind::kMinMissesLookahead:
      return std::make_unique<MinMissesPolicy>(MinMissesAlgorithm::kLookahead);
    case PolicyKind::kMinMissesTree:
      return std::make_unique<TreeMinMissesPolicy>();
    case PolicyKind::kFair:
      return std::make_unique<FairPolicy>();
    case PolicyKind::kQos:
      PLRUPART_ASSERT_MSG(config_.qos.has_value(), "QoS policy needs a QosTarget");
      return std::make_unique<QosPolicy>(*config_.qos);
    case PolicyKind::kIpc:
      PLRUPART_ASSERT_MSG(config_.ipc_models.size() == config_.num_cores,
                          "IPC policy needs one IpcModel per core");
      return std::make_unique<IpcPolicy>(config_.ipc_models, config_.ipc_objective);
    case PolicyKind::kStaticEven:
      return std::make_unique<StaticEvenPolicy>();
  }
  PLRUPART_ASSERT_MSG(false, "unknown policy kind");
  return nullptr;
}

void PartitionedCacheSystem::apply_partition(const Partition& p) {
  switch (config_.enforcement) {
    case cache::EnforcementMode::kNone:
      return;
    case cache::EnforcementMode::kOwnerCounters:
      for (std::uint32_t i = 0; i < config_.num_cores; ++i)
        l2_->set_way_quota(i, p[i]);
      return;
    case cache::EnforcementMode::kWayMasks: {
      if (config_.replacement == cache::ReplacementKind::kTreePlru &&
          config_.bt_strict_pow2) {
        // Strict hardware mode: snap to power-of-two blocks a force-vector
        // pair can express.
        auto& tree = dynamic_cast<cache::TreePlru&>(l2_->policy());
        const Partition rounded =
            round_to_pow2_partition(p, config_.geometry.associativity);
        const TreeEnforcement enf =
            make_tree_enforcement(tree, rounded, config_.geometry.associativity);
        for (std::uint32_t i = 0; i < config_.num_cores; ++i)
          l2_->set_way_mask(i, enf.masks[i]);
        return;
      }
      const auto masks = contiguous_masks(p);
      for (std::uint32_t i = 0; i < config_.num_cores; ++i)
        l2_->set_way_mask(i, masks[i]);
      return;
    }
  }
}

cache::AccessOutcome PartitionedCacheSystem::access(cache::CoreId core, cache::Addr addr,
                                                    bool write, std::uint64_t now_cycles) {
  PLRUPART_ASSERT(core < config_.num_cores);
  if (config_.partitioned()) {
    profilers_[core]->record_access(addr >> line_shift_);
    controller_->tick(now_cycles);
  }
  return l2_->access(core, addr, write);
}

const Profiler& PartitionedCacheSystem::profiler(cache::CoreId core) const {
  PLRUPART_ASSERT(config_.partitioned());
  PLRUPART_ASSERT(core < profilers_.size());
  return *profilers_[core];
}

Partition PartitionedCacheSystem::current_partition() const {
  if (controller_) return controller_->current();
  // Unpartitioned: every core can use the whole cache.
  return Partition(config_.num_cores, config_.geometry.associativity);
}

std::uint64_t PartitionedCacheSystem::profiling_storage_bits(std::uint32_t tag_bits) const {
  std::uint64_t bits = 0;
  for (const auto& p : profilers_) {
    bits += p->atd().storage_bits(tag_bits);
    // SDH registers: A+1 counters; 32 bits each is the sizing used in [22].
    bits += static_cast<std::uint64_t>(config_.geometry.associativity + 1) * 32;
  }
  return bits;
}

void PartitionedCacheSystem::reset() {
  l2_->reset();
  for (auto& p : profilers_) p->reset();
}

}  // namespace plrupart::core
