// Batched access entry points (see SetAssocCache::access_batch). The portable
// tiers' batch drivers are instantiated here — their own TU, so the serial
// per-op hot path's codegen (cache.cpp) stays
// untouched; the AVX batch drivers live in src/cache/simd/access_*.cpp.
#include "plrupart/cache/cache.hpp"

#include "cache/policy_visit.hpp"

#include "cache/access_impl.ipp"

namespace plrupart::cache {

void SetAssocCache::access_batch(const BatchOp* ops, std::size_t n,
                                 AccessOutcome* out) {
  access_batch(ops, n, out, stats_);
}

void SetAssocCache::access_batch(const BatchOp* ops, std::size_t n,
                                 AccessOutcome* out, CacheStatsBundle& stats) {
  switch (dispatch_) {
#if defined(PLRUPART_SIMD_AVX2)
    case DispatchTier::kAvx2:
      return access_batch_avx2(ops, n, out, stats);
#endif
#if defined(PLRUPART_SIMD_AVX512)
    case DispatchTier::kAvx512:
      return access_batch_avx512(ops, n, out, stats);
#endif
    case DispatchTier::kScalar:
      return access_batch_scalar(ops, n, out, stats);
    default:
      return access_batch_host<DispatchTier::kSwar>(ops, n, out, stats);
  }
}

}  // namespace plrupart::cache
