// One core's private, unpartitioned true-LRU cache: the simulator's L1D.
//
// Computes exactly what SetAssocCache(geo, kLru, 1 core, kNone) computes --
// the same hit/way/eviction sequence -- without the machinery the shared L2
// needs: no policy dispatch, owner masks, partial-tag filter or statistics
// bundle. Two facts keep it small:
//  * nothing invalidates a line, and a miss fills the lowest invalid way
//    first, so a set's valid ways are always the prefix [0, fill);
//  * LRU stack positions are a permutation of 0..A-1 (way w starts at w), so
//    the victim of a full set is the way at position A-1.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <vector>

#include "plrupart/cache/cache.hpp"
#include "plrupart/cache/geometry.hpp"
#include "plrupart/common/bits.hpp"

namespace plrupart::cache {

class PLRUPART_EXPORT PrivateLruCache {
 public:
  explicit PrivateLruCache(const Geometry& geo)
      : geo_(geo),
        ways_(geo.associativity),
        line_shift_(ilog2_exact(geo.line_bytes)),
        tag_shift_(ilog2_exact(geo.sets())),
        set_mask_(geo.sets() - 1),
        tags_(geo.lines()),
        pos_(geo.lines()),
        fill_(geo.sets()) {
    geo.validate();
    reset();
  }

  /// One access at byte address `addr`; misses allocate. The core id and
  /// the write flag do not affect a private LRU cache; they are accepted so
  /// the call shape matches SetAssocCache::access.
  AccessOutcome access(CoreId /*core*/, Addr addr, bool /*write*/ = false) {
    const Addr la = addr >> line_shift_;
    const std::uint64_t set = la & set_mask_;
    const std::uint64_t tag = la >> tag_shift_;
    std::uint64_t* tags = tags_.data() + set * ways_;
    std::uint8_t* pos = pos_.data() + set * ways_;
    std::uint8_t& fill = fill_[set];

    AccessOutcome out;
    for (std::uint32_t w = 0; w < fill; ++w) {
      if (tags[w] == tag) {
        out.hit = true;
        out.way = w;
        promote(pos, w);
        return out;
      }
    }
    std::uint32_t victim = fill;
    if (fill < ways_) {
      ++fill;
    } else {
      victim = 0;
      while (pos[victim] != ways_ - 1) ++victim;
      out.evicted_valid = true;
      out.evicted_line = (tags[victim] << tag_shift_) | set;
    }
    tags[victim] = tag;
    promote(pos, victim);
    out.way = victim;
    return out;
  }

  /// Empty every set and restore the reset stack order.
  void reset() {
    for (std::uint64_t set = 0; set < fill_.size(); ++set)
      for (std::uint32_t w = 0; w < ways_; ++w)
        pos_[set * ways_ + w] = static_cast<std::uint8_t>(w);
    for (auto& f : fill_) f = 0;
  }

  [[nodiscard]] const Geometry& geometry() const noexcept { return geo_; }

 private:
  /// TrueLru's promotion: every line above `way`'s old position ages by one.
  void promote(std::uint8_t* pos, std::uint32_t way) const {
    const std::uint8_t old = pos[way];
    for (std::uint32_t w = 0; w < ways_; ++w)
      pos[w] = static_cast<std::uint8_t>(pos[w] + (pos[w] < old ? 1 : 0));
    pos[way] = 0;
  }

  Geometry geo_;
  std::uint32_t ways_;
  std::uint32_t line_shift_;
  std::uint32_t tag_shift_;
  std::uint64_t set_mask_;
  std::vector<std::uint64_t> tags_;  ///< [set * A + way]; valid below fill_[set]
  std::vector<std::uint8_t> pos_;    ///< [set * A + way] stack position, 0 = MRU
  std::vector<std::uint8_t> fill_;   ///< valid ways per set
};

}  // namespace plrupart::cache
