#include "plrupart/core/profiler.hpp"

namespace plrupart::core {

std::string Profiler::name() const {
  const cache::ReplacementKind kind = atd_.policy().kind();
  const char* prefix = kind == cache::ReplacementKind::kLru ? "SDH-" : "eSDH-";
  return prefix + cache::to_string(kind);
}

std::unique_ptr<Profiler> make_profiler(cache::ReplacementKind l2_replacement,
                                        const cache::Geometry& geo,
                                        std::uint32_t sampling_ratio, double esdh_scale,
                                        NruUpdateMode nru_mode, std::uint64_t seed) {
  switch (l2_replacement) {
    case cache::ReplacementKind::kNru:
      return std::make_unique<NruProfiler>(geo, sampling_ratio, esdh_scale, nru_mode, seed);
    case cache::ReplacementKind::kRandom:
      return std::make_unique<Profiler>(geo, cache::ReplacementKind::kLru, sampling_ratio,
                                        seed);
    case cache::ReplacementKind::kLru:
    case cache::ReplacementKind::kTreePlru:
    case cache::ReplacementKind::kSrrip:
      break;
  }
  return std::make_unique<Profiler>(geo, l2_replacement, sampling_ratio, seed);
}

}  // namespace plrupart::core
