// Replacement policy interface.
//
// A policy owns the per-set replacement metadata for an entire cache (LRU bits,
// NRU used bits + the cache-global replacement pointer, or BT tree bits) and is
// driven by the cache on hits and fills. Victim selection takes an `allowed`
// way mask so the same policy object serves both unpartitioned caches
// (allowed == all ways) and the paper's mask-based enforcement.
//
// `estimate_position` exposes what the profiling logic can read from the
// replacement state *before* the access updates it: exact stack positions for
// true LRU, the paper's estimated positions for NRU and BT (see StackEstimate
// for how far those estimates are from the truth).
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <memory>
#include <string>

#include "plrupart/cache/geometry.hpp"
#include "plrupart/common/bits.hpp"

namespace plrupart::cache {

enum class ReplacementKind : std::uint8_t {
  kLru,      ///< true LRU (A*log2(A) bits per set)
  kNru,      ///< UltraSPARC T2 Not-Recently-Used (A used bits + global pointer)
  kTreePlru, ///< IBM binary-tree pseudo-LRU (A-1 bits per set)
  kRandom,   ///< uniform random victim (reference baseline)
  kSrrip,    ///< 2-bit static RRIP (extension beyond the paper; 2A bits/set)
};

[[nodiscard]] PLRUPART_EXPORT std::string to_string(ReplacementKind k);

/// What the replacement state says about a line's stack position (1 = MRU ..
/// A = LRU): a range [lo, hi] and the point value the paper's profiling logic
/// would record.
///
/// The range is exact only for true LRU (lo == hi == point == the true
/// position). For the other policies it is a heuristic bucket, not a bound.
/// A shadow-LRU probe (16-way, 2M accesses, 60% hits skewed to recent lines,
/// two cores on 8-way half masks vs. unpartitioned) found the true position
/// outside [lo, hi] for:
///   * NRU: none unpartitioned, 10.3% under way masks, because the mask-scoped
///     used-bit reset breaks "used => within the U most recent lines";
///   * BT: 66% (lo == hi is the ID-decoder point estimate; mean |error| 3.1-3.3
///     positions);
///   * SRRIP: 54% (the RRPV quartile).
/// Random replacement reports the whole stack [1, A].
///
/// Only core::NruProfiler reads lo and hi; every other profiler records point.
struct PLRUPART_EXPORT StackEstimate {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  std::uint32_t point = 0;
};

class PLRUPART_EXPORT ReplacementPolicy {
 public:
  ReplacementPolicy(const Geometry& geo)
      : sets_(geo.sets()),
        ways_(geo.associativity),
        all_mask_(full_way_mask(geo.associativity)) {}
  virtual ~ReplacementPolicy() = default;

  ReplacementPolicy(const ReplacementPolicy&) = delete;
  ReplacementPolicy& operator=(const ReplacementPolicy&) = delete;

  [[nodiscard]] virtual ReplacementKind kind() const noexcept = 0;

  /// A line was re-referenced. `allowed` is the accessing core's enforcement
  /// mask (full mask when unpartitioned); NRU scopes its used-bit saturation
  /// reset to it.
  virtual void on_hit(std::uint64_t set, std::uint32_t way, WayMask allowed) = 0;

  /// A line was just installed into `way` (miss path, after victim eviction).
  virtual void on_fill(std::uint64_t set, std::uint32_t way, WayMask allowed) = 0;

  /// Choose a victim among the valid lines selected by `allowed` (non-empty).
  /// The cache fills invalid ways first, so every allowed way holds live data.
  [[nodiscard]] virtual std::uint32_t choose_victim(std::uint64_t set, WayMask allowed) = 0;

  /// Profiling-logic view of the line's stack position, computed from the
  /// replacement metadata as it stands *before* the access is applied.
  [[nodiscard]] virtual StackEstimate estimate_position(std::uint64_t set,
                                                        std::uint32_t way) const = 0;

  /// Reset all metadata to the post-power-on state.
  virtual void reset() = 0;

  [[nodiscard]] std::uint64_t sets() const noexcept { return sets_; }
  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_; }
  /// Cached full mask: the policies re-mask `allowed` with this on every
  /// access, so it must not re-derive (and re-assert) the mask each call.
  [[nodiscard]] WayMask all_ways() const noexcept { return all_mask_; }

 protected:
  std::uint64_t sets_;
  std::uint32_t ways_;
  WayMask all_mask_;
};

/// Factory covering every policy the library ships.
[[nodiscard]] PLRUPART_EXPORT std::unique_ptr<ReplacementPolicy> make_policy(ReplacementKind kind,
                                                             const Geometry& geo,
                                                             std::uint64_t seed = 0x5eed);

}  // namespace plrupart::cache
