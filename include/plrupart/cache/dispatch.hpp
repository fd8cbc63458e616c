// The tag-scan path the caches run, for run manifests.
//
// Every L2/ATD/SRRIP equality scan in the library runs one portable path:
// SWAR over uint64_t words (SetAssocCache's packed 1-byte partial-tag filter,
// which the ATDs share as one-core SetAssocCaches) and the unrolled compare
// loop of tag_match_mask (SRRIP RRPVs). There is no runtime selection; this header only names that path so
// tools can stamp it into what they report.
#pragma once

#include <cstdint>
#include <string>

namespace plrupart::cache {

enum class DispatchTier : std::uint8_t {
  kSwar,
};

[[nodiscard]] inline std::string to_string(DispatchTier /*t*/) { return "swar"; }

/// The tag-scan path of this build: always kSwar.
[[nodiscard]] inline DispatchTier active_dispatch_tier() noexcept {
  return DispatchTier::kSwar;
}

}  // namespace plrupart::cache
