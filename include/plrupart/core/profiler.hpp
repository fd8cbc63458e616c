// Per-thread profiling logic: ATD + (e)SDH.
//
// One Profiler instance exists per core. On every L2 access by that core the
// simulator calls record_access(); if the set is sampled the ATD reports a hit
// estimate or a miss and the SDH is updated. The ATD runs the L2's own
// replacement policy, whose estimate_position does the policy-specific work:
//
//   SDH-LRU    — exact stack distances (the classical scheme of [22]).
//   eSDH-BT    — the paper's §III-B ID/XOR/SUB estimate on the tree bits.
//   eSDH-SRRIP — RRPV-quartile estimate (extension).
//
// Profiler records StackEstimate::point for those three. NruProfiler is the
// one estimator that reads the [lo, hi] interval instead: the paper's §III-A
// eSDH with scaling factor S.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <memory>
#include <string>

#include "plrupart/core/atd.hpp"
#include "plrupart/core/miss_curve.hpp"
#include "plrupart/core/sdh.hpp"

namespace plrupart::core {

class PLRUPART_EXPORT Profiler {
 public:
  Profiler(const cache::Geometry& l2_geometry, cache::ReplacementKind atd_replacement,
           std::uint32_t sampling_ratio, std::uint64_t seed = 0x5eed)
      : atd_(l2_geometry, atd_replacement, sampling_ratio, seed),
        sdh_(l2_geometry.associativity) {}
  virtual ~Profiler() = default;

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Feed one L2 access (line-granular address) from the owner thread.
  void record_access(cache::Addr line_addr) {
    const auto obs = atd_.access(line_addr);
    if (!obs) return;  // set not sampled
    if (obs->hit)
      on_atd_hit(obs->estimate);
    else
      sdh_.record_miss();
  }

  /// Miss curve in profiled-access units; multiply by sampling_scale() for
  /// absolute L2-access units.
  [[nodiscard]] virtual MissCurve curve() const { return MissCurve::from_sdh(sdh_); }

  [[nodiscard]] double sampling_scale() const noexcept {
    return static_cast<double>(atd_.sampling_ratio());
  }

  /// Interval-boundary decay (divide every SDH register by two).
  virtual void decay() { sdh_.decay_halve(); }

  [[nodiscard]] const Sdh& sdh() const noexcept { return sdh_; }
  [[nodiscard]] const Atd& atd() const noexcept { return atd_; }
  /// "SDH-LRU" for the exact LRU profile, "eSDH-<policy>" for an estimate.
  [[nodiscard]] virtual std::string name() const;

 protected:
  /// SDH update for a sampled ATD hit: record the point estimate.
  virtual void on_atd_hit(const cache::StackEstimate& est) { sdh_.record_hit(est.point); }

  Atd atd_;
  Sdh sdh_;
};

/// How the NRU eSDH turns the [1, U] estimate interval into register updates.
enum class NruUpdateMode : std::uint8_t {
  /// Paper rule ("we increase both SDH registers r1 and r2, assuming the
  /// stack distance to be 2"): increment every register r1..r_ceil(S*U).
  /// Viewed through misses_with_ways, this spreads one unit of marginal
  /// utility across each of the first ceil(S*U) ways.
  kRange,
  /// Ablation: one increment at ceil(S * U) only — concentrates the entire
  /// utility at the interval's endpoint.
  kPoint,
  /// Ablation: spread 1/U weight over r1..rU (kept in an idealized
  /// fractional side histogram; see DESIGN.md).
  kSmear,
  /// Ablation for the used-bit==0 case: like kRange, but also record
  /// distance A when the used bit is 0 (the paper records nothing).
  kPointRecordUnused,
};

class PLRUPART_EXPORT NruProfiler final : public Profiler {
 public:
  NruProfiler(const cache::Geometry& geo, std::uint32_t sampling_ratio, double scale,
              NruUpdateMode mode = NruUpdateMode::kRange, std::uint64_t seed = 0x5eed);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double scale() const noexcept { return scale_; }

  [[nodiscard]] MissCurve smear_curve() const;  // only meaningful in kSmear mode
  /// In kSmear mode the decision curve is the fractional one.
  [[nodiscard]] MissCurve curve() const override {
    return mode_ == NruUpdateMode::kSmear ? smear_curve() : Profiler::curve();
  }
  void decay() override;

 private:
  void on_atd_hit(const cache::StackEstimate& est) override;

  double scale_;
  NruUpdateMode mode_;
  std::vector<double> smear_;  // fractional registers, kSmear mode only
};

/// The profiler the paper pairs with an L2 replacement policy: NRU gets the
/// eSDH (`esdh_scale`, `nru_mode`), every other policy a point-estimate
/// Profiler on an ATD of its own kind. Random replacement keeps no recency
/// state to profile, so it gets the closest meaningful profile, an LRU ATD.
[[nodiscard]] PLRUPART_EXPORT std::unique_ptr<Profiler> make_profiler(
    cache::ReplacementKind l2_replacement, const cache::Geometry& geo,
    std::uint32_t sampling_ratio, double esdh_scale, NruUpdateMode nru_mode,
    std::uint64_t seed);

}  // namespace plrupart::core
