// The kScalar access path. The byte-loop reference tier exists for
// bit-identity proofs, not throughput, so its access_impl matrix is
// instantiated here — its own TU, like the AVX tiers — rather than inside
// cache.cpp / cache_batch.cpp: a second full
// instantiation in those TUs pushes the policy-visit switch past the
// inliner's budget and measurably regresses BM_CacheAccess on the tier that
// matters (see access_impl.ipp).
#include "plrupart/cache/cache.hpp"

#include "cache/policy_visit.hpp"

#include "cache/access_impl.ipp"

namespace plrupart::cache {

AccessOutcome SetAssocCache::access_scalar(CoreId core, Addr addr, bool write,
                                           CacheStatsBundle& stats) {
  return access_host<DispatchTier::kScalar>(core, addr, write, stats);
}

void SetAssocCache::access_batch_scalar(const BatchOp* ops, std::size_t n,
                                        AccessOutcome* out,
                                        CacheStatsBundle& stats) {
  access_batch_host<DispatchTier::kScalar>(ops, n, out, stats);
}

}  // namespace plrupart::cache
