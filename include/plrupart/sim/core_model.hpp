// Analytical core timing model.
//
// Substitutes the paper's out-of-order Turandot cores with cycle accounting:
// non-memory instructions retire at a sustained base IPC; a memory operation
// adds a stall charge when it misses a cache level. `stall_fraction` scales
// the raw miss penalty down to the portion an out-of-order window cannot hide
// (1.0 = fully exposed pointer chase, small values = high MLP streaming).
#pragma once

#include "plrupart/export.hpp"

#include <array>
#include <cstdint>

#include "plrupart/common/assert.hpp"

namespace plrupart::sim {

/// Where an access was satisfied.
enum class AccessLevel : std::uint8_t { kL1, kL2, kMemory };

struct PLRUPART_EXPORT CoreParams {
  double base_ipc = 2.0;        ///< sustained non-memory IPC of the 8-wide core
  double l2_hit_penalty = 11;   ///< cycles: L1 miss that hits L2 (paper Table II)
  double mem_penalty = 250;     ///< cycles: L2 miss to memory (paper Table II)
  double stall_fraction = 0.7;  ///< exposed fraction of miss penalties

  void validate() const {
    PLRUPART_ASSERT(base_ipc > 0.0);
    PLRUPART_ASSERT(l2_hit_penalty >= 0.0 && mem_penalty >= 0.0);
    PLRUPART_ASSERT(stall_fraction >= 0.0 && stall_fraction <= 1.0);
  }
};

class PLRUPART_EXPORT CoreModel {
 public:
  /// Gaps up to this many instructions are priced from a table.
  static constexpr std::uint32_t kGapTableMax = 64;

  explicit CoreModel(const CoreParams& params) : params_(params) {
    params.validate();
    // Each cached value is computed by the exact expression the per-op
    // formula used, so the accumulated cycles are bit-identical to dividing
    // by base_ipc on every op.
    for (std::uint32_t k = 0; k <= kGapTableMax; ++k)
      gap_table_[k] = static_cast<double>(k) / params_.base_ipc;
    mem_issue_ = 1.0 / params_.base_ipc;
    l2_stall_ = params_.l2_hit_penalty * params_.stall_fraction;
    mem_stall_ = params_.mem_penalty * params_.stall_fraction;
  }

  /// Cycles to retire `n` instructions at base IPC: n / base_ipc.
  [[nodiscard]] double gap_cycles(std::uint32_t n) const noexcept {
    return n <= kGapTableMax ? gap_table_[n] : static_cast<double>(n) / params_.base_ipc;
  }

  /// Commit `n` non-memory instructions.
  void commit_gap(std::uint32_t n) noexcept {
    cycles_ += gap_cycles(n);
    instructions_ += n;
  }

  /// Commit one memory instruction satisfied at `level`.
  void commit_mem(AccessLevel level) noexcept {
    cycles_ += mem_issue_;
    switch (level) {
      case AccessLevel::kL1:
        break;  // pipelined L1 hit
      case AccessLevel::kL2:
        cycles_ += l2_stall_;
        break;
      case AccessLevel::kMemory:
        cycles_ += mem_stall_;
        break;
    }
    ++instructions_;
  }

  [[nodiscard]] double cycles() const noexcept { return cycles_; }
  [[nodiscard]] std::uint64_t instructions() const noexcept { return instructions_; }
  [[nodiscard]] double ipc() const noexcept {
    return cycles_ > 0.0 ? static_cast<double>(instructions_) / cycles_ : 0.0;
  }
  [[nodiscard]] const CoreParams& params() const noexcept { return params_; }

  void reset() noexcept {
    cycles_ = 0.0;
    instructions_ = 0;
  }

 private:
  CoreParams params_;
  double cycles_ = 0.0;
  std::uint64_t instructions_ = 0;
  double mem_issue_ = 0.0;  ///< 1 / base_ipc
  double l2_stall_ = 0.0;   ///< l2_hit_penalty * stall_fraction
  double mem_stall_ = 0.0;  ///< mem_penalty * stall_fraction
  std::array<double, kGapTableMax + 1> gap_table_{};  ///< k / base_ipc
};

}  // namespace plrupart::sim
