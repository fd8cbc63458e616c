#include <cmath>
#include <sstream>

#include "plrupart/core/profiler.hpp"

namespace plrupart::core {

NruProfiler::NruProfiler(const cache::Geometry& geo, std::uint32_t sampling_ratio,
                         double scale, NruUpdateMode mode, std::uint64_t seed)
    : Profiler(geo, cache::ReplacementKind::kNru, sampling_ratio, seed),
      scale_(scale),
      mode_(mode),
      smear_(mode == NruUpdateMode::kSmear ? geo.associativity + 1 : 0, 0.0) {
  PLRUPART_ASSERT_MSG(scale > 0.0 && scale <= 1.0, "eSDH scale must be in (0, 1]");
}

std::string NruProfiler::name() const {
  std::ostringstream os;
  os << "eSDH-NRU(S=" << scale_ << ')';
  return os.str();
}

void NruProfiler::on_atd_hit(const cache::StackEstimate& est) {
  const std::uint32_t assoc = sdh_.associativity();
  if (est.lo == 1) {
    // Used bit was 1: distance within [1, U]. The scaled endpoint is
    // ceil(S*U) (paper §III-A: if S*U is not an integer, select the closest
    // upper one).
    const std::uint32_t u = est.hi;
    if (mode_ == NruUpdateMode::kSmear) {
      const double w = 1.0 / static_cast<double>(u);
      for (std::uint32_t d = 1; d <= u; ++d) smear_[d - 1] += w;
      return;
    }
    auto top = static_cast<std::uint32_t>(std::ceil(scale_ * static_cast<double>(u)));
    if (top < 1) top = 1;
    if (top > assoc) top = assoc;
    if (mode_ == NruUpdateMode::kPoint) {
      sdh_.record_hit(top);
    } else {
      // kRange / kPointRecordUnused: "we increase both SDH registers r1 and
      // r2" — every register up to the scaled endpoint.
      for (std::uint32_t d = 1; d <= top; ++d) sdh_.record_hit(d);
    }
    return;
  }
  // Used bit was 0: distance within [U+1, A]. The paper records nothing —
  // incrementing every register shifts the whole curve without changing its
  // shape. kPointRecordUnused measures what recording A instead would do.
  if (mode_ == NruUpdateMode::kPointRecordUnused) {
    sdh_.record_hit(assoc);
  } else if (mode_ == NruUpdateMode::kSmear) {
    const std::uint32_t lo = est.lo;
    const double w = 1.0 / static_cast<double>(assoc - lo + 1);
    for (std::uint32_t d = lo; d <= assoc; ++d) smear_[d - 1] += w;
  }
}

MissCurve NruProfiler::smear_curve() const {
  PLRUPART_ASSERT_MSG(mode_ == NruUpdateMode::kSmear, "smear_curve needs kSmear mode");
  const std::uint32_t assoc = sdh_.associativity();
  // Fractional hit registers plus the integer miss register.
  std::vector<double> misses(assoc + 1);
  double tail = static_cast<double>(sdh_.reg(assoc + 1));
  misses[assoc] = tail;
  for (std::uint32_t w = assoc; w >= 1; --w) {
    tail += smear_[w - 1];
    misses[w - 1] = tail;
  }
  return MissCurve(std::move(misses));
}

void NruProfiler::decay() {
  Profiler::decay();
  for (auto& v : smear_) v *= 0.5;
}

}  // namespace plrupart::core
