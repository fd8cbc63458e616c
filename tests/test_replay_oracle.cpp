// CmpSimulator against the one-op-at-a-time reference replay
// (support/reference_replay.hpp), on both worker paths and in both timing
// modes. The back end folds each core's L1-hit runs out of the interleave and
// settles every core exactly where the window opens, where the last core
// freezes and where a trace error surfaces; the cases here put those points
// inside folded runs: tiny warmups and quotas, cores and traces so alike
// that clocks tie, gaps of 0 and 2^32-1, and trace errors on either side of
// the end of the run. Every SimResult field and every core's final hierarchy
// counters must match the reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "plrupart/sim/cmp_simulator.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"
#include "sim/front_end.hpp"
#include "support/reference_replay.hpp"

namespace plrupart::sim {
namespace {

using internal::FrontEndMode;
using Traces = std::vector<std::unique_ptr<TraceSource>>;

class ScopedMode {
 public:
  explicit ScopedMode(FrontEndMode m) { internal::set_front_end_mode(m); }
  ~ScopedMode() { internal::set_front_end_mode(FrontEndMode::kAuto); }
  ScopedMode(const ScopedMode&) = delete;
  ScopedMode& operator=(const ScopedMode&) = delete;
};

/// A fixed op list, repeated forever.
class LoopSource final : public TraceSource {
 public:
  LoopSource(std::vector<MemOp> ops, std::string name)
      : ops_(std::move(ops)), name_(std::move(name)) {}
  MemOp next() override { return ops_[i_++ % ops_.size()]; }
  void reset() override { i_ = 0; }
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::vector<MemOp> ops_;
  std::string name_;
  std::uint64_t i_ = 0;
};

/// Throws std::runtime_error from its `fail_at`-th next() call.
class FailingSource final : public TraceSource {
 public:
  FailingSource(std::unique_ptr<TraceSource> inner, std::uint64_t fail_at)
      : inner_(std::move(inner)), fail_at_(fail_at) {}
  MemOp next() override {
    if (calls_++ == fail_at_) throw std::runtime_error("trace read failed");
    return inner_->next();
  }
  void reset() override {
    inner_->reset();
    calls_ = 0;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<TraceSource> inner_;
  std::uint64_t fail_at_;
  std::uint64_t calls_ = 0;
};

/// `count` ops over `lines` 128-byte lines of a region at `base`, each line
/// touched `repeat` times in a row (so runs of L1 hits), with gaps cycling
/// through `gaps`.
std::vector<MemOp> script(cache::Addr base, std::uint32_t lines, std::uint32_t repeat,
                          const std::vector<std::uint32_t>& gaps, std::uint32_t count) {
  std::vector<MemOp> ops;
  std::uint64_t x = base | 1;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (i % repeat == 0) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    ops.push_back(MemOp{.addr = base + ((x >> 33) % lines) * 128 + (i % 16) * 8,
                        .write = (i % 5) == 0,
                        .gap_instrs = gaps[i % gaps.size()]});
  }
  return ops;
}

SimConfig config_for(std::uint32_t cores, const std::string& acronym, TimingMode mode,
                     std::uint64_t instr, std::uint64_t warmup) {
  SimConfig cfg;
  // Table II's L1: most ops hit it, so runs of L1 hits are long.
  cfg.hierarchy.l1d =
      cache::Geometry{.size_bytes = 32 * 1024, .associativity = 2, .line_bytes = 128};
  cfg.hierarchy.l2 = core::CpaConfig::from_acronym(
      acronym, cores,
      cache::Geometry{.size_bytes = 256 * 1024, .associativity = 16, .line_bytes = 128});
  cfg.hierarchy.l2.interval_cycles = 5'000;
  cfg.hierarchy.l2.sampling_ratio = 8;
  cfg.instr_limit = instr;
  cfg.warmup_instr = warmup;
  cfg.timing_mode = mode;
  return cfg;
}

const std::vector<std::string> kBenchmarks{"twolf", "art", "mcf", "gzip",
                                           "apsi",  "vpr", "swim", "bzip2"};

/// Catalog generators, one benchmark (and its core parameters) per core.
Traces catalog_traces(SimConfig& cfg, std::uint32_t cores, std::uint64_t seed) {
  Traces traces;
  cfg.cores.clear();
  for (std::uint32_t i = 0; i < cores; ++i) {
    const auto& profile = workloads::benchmark(kBenchmarks[i]);
    cfg.cores.push_back(profile.core);
    traces.push_back(workloads::make_trace(profile, i, seed));
  }
  return traces;
}

/// Every core runs the same script over `lines` lines with the same
/// parameters: their clocks tie until the shared L2 sets them apart. Up to
/// 256 lines stay in the L1, so every run of L1 hits fills the lookahead.
Traces identical_traces(SimConfig& cfg, std::uint32_t cores, std::uint32_t lines,
                        const std::vector<std::uint32_t>& gaps) {
  Traces traces;
  cfg.cores.assign(1, CoreParams{});
  for (std::uint32_t i = 0; i < cores; ++i)
    traces.push_back(std::make_unique<LoopSource>(script(0, lines, 6, gaps, 997), "same"));
  return traces;
}

/// A different script per core, over its own region, on cores whose misses
/// cost little: L1-hit runs then take up much of each core's time.
Traces script_traces(SimConfig& cfg, std::uint32_t cores,
                     const std::vector<std::uint32_t>& gaps) {
  Traces traces;
  cfg.cores.clear();
  for (std::uint32_t i = 0; i < cores; ++i) {
    CoreParams params;
    params.base_ipc = 1.0 + 0.5 * i;
    params.stall_fraction = 0.05;
    cfg.cores.push_back(params);
    traces.push_back(std::make_unique<LoopSource>(
        script(cache::Addr{i + 1} << 28, 300 + 40 * i, 3 + i, gaps, 500 + 37 * i),
        "script" + std::to_string(i)));
  }
  return traces;
}

/// Each core loops over `lines` lines of its own region, so after its first
/// few ops every op is an L1 hit, on cores whose base IPCs differ a little:
/// one core warms and reads far ahead while another is still warming.
Traces hot_traces(SimConfig& cfg, std::uint32_t cores, std::uint32_t lines) {
  Traces traces;
  cfg.cores.clear();
  for (std::uint32_t i = 0; i < cores; ++i) {
    CoreParams params;
    params.base_ipc = 2.0 - 0.05 * i;
    cfg.cores.push_back(params);
    traces.push_back(std::make_unique<LoopSource>(
        script(cache::Addr{i + 1} << 28, lines, 1, {0, 1, 0}, 211), "hot" + std::to_string(i)));
  }
  return traces;
}

struct Outcome {
  SimResult result;
  std::vector<HierarchyCounters> counters;
  std::string error;
  std::string error_type;
};

Outcome simulate(FrontEndMode mode, SimConfig cfg, Traces traces) {
  const ScopedMode scoped(mode);
  const auto n = static_cast<std::uint32_t>(traces.size());
  CmpSimulator sim(std::move(cfg), std::move(traces));
  Outcome out;
  try {
    out.result = sim.run();
  } catch (const std::exception& e) {
    out.error = e.what();
    out.error_type = typeid(e).name();
  }
  for (std::uint32_t c = 0; c < n; ++c) out.counters.push_back(sim.hierarchy().counters(c));
  return out;
}

void expect_counters_eq(const HierarchyCounters& want, const HierarchyCounters& got,
                        const std::string& ctx) {
  EXPECT_EQ(want.l1_accesses, got.l1_accesses) << ctx;
  EXPECT_EQ(want.l1_misses, got.l1_misses) << ctx;
  EXPECT_EQ(want.l2_accesses, got.l2_accesses) << ctx;
  EXPECT_EQ(want.l2_misses, got.l2_misses) << ctx;
}

void expect_matches(const testing::ReferenceRun& want, const Outcome& got,
                    const std::string& ctx) {
  EXPECT_EQ(want.error, got.error) << ctx;
  EXPECT_EQ(want.error_type, got.error_type) << ctx;
  const SimResult& a = want.result;
  const SimResult& b = got.result;
  ASSERT_EQ(a.threads.size(), b.threads.size()) << ctx;
  for (std::size_t i = 0; i < a.threads.size(); ++i) {
    const std::string core = ctx + " core " + std::to_string(i);
    EXPECT_EQ(a.threads[i].benchmark, b.threads[i].benchmark) << core;
    EXPECT_EQ(a.threads[i].instructions, b.threads[i].instructions) << core;
    EXPECT_EQ(a.threads[i].cycles, b.threads[i].cycles) << core;
    EXPECT_EQ(a.threads[i].ipc, b.threads[i].ipc) << core;
    expect_counters_eq(a.threads[i].mem, b.threads[i].mem, core + " window");
  }
  EXPECT_EQ(a.wall_cycles, b.wall_cycles) << ctx;
  EXPECT_EQ(a.repartitions, b.repartitions) << ctx;
  EXPECT_EQ(a.l2_config, b.l2_config) << ctx;
  EXPECT_EQ(a.simulated_accesses, b.simulated_accesses) << ctx;
  EXPECT_EQ(a.timing, b.timing) << ctx;
  EXPECT_EQ(a.timed.dram_reads, b.timed.dram_reads) << ctx;
  EXPECT_EQ(a.timed.dram_writebacks, b.timed.dram_writebacks) << ctx;
  EXPECT_EQ(a.timed.row_hits, b.timed.row_hits) << ctx;
  EXPECT_EQ(a.timed.row_misses, b.timed.row_misses) << ctx;
  EXPECT_EQ(a.timed.bank_conflicts, b.timed.bank_conflicts) << ctx;
  EXPECT_EQ(a.timed.mshr_coalesced, b.timed.mshr_coalesced) << ctx;
  EXPECT_EQ(a.timed.mshr_full_stalls, b.timed.mshr_full_stalls) << ctx;
  EXPECT_EQ(a.timed.wb_full_stalls, b.timed.wb_full_stalls) << ctx;
  EXPECT_EQ(a.timed.dram_bytes, b.timed.dram_bytes) << ctx;
  EXPECT_EQ(a.timed.mshr_peak, b.timed.mshr_peak) << ctx;
  ASSERT_EQ(want.counters.size(), got.counters.size()) << ctx;
  for (std::size_t c = 0; c < want.counters.size(); ++c)
    expect_counters_eq(want.counters[c], got.counters[c], ctx + " final core " + std::to_string(c));
}

/// Checks `make()`'s traces under `cfg` on both paths against the reference;
/// returns the reference run.
template <class MakeTraces>
testing::ReferenceRun check(const SimConfig& cfg, MakeTraces make, const std::string& ctx) {
  SimConfig ref_cfg = cfg;
  const Traces ref_traces = make(ref_cfg);
  testing::ReferenceRun want = testing::reference_replay(ref_cfg, ref_traces);
  for (const FrontEndMode mode : {FrontEndMode::kInline, FrontEndMode::kWorker}) {
    SimConfig run_cfg = cfg;
    Traces traces = make(run_cfg);
    expect_matches(want, simulate(mode, run_cfg, std::move(traces)),
                   ctx + (mode == FrontEndMode::kInline ? " inline" : " worker"));
  }
  return want;
}

std::string describe(std::uint32_t cores, TimingMode mode, std::uint64_t instr,
                     std::uint64_t warmup) {
  return std::to_string(cores) + " cores " + to_string(mode) + " instr " +
         std::to_string(instr) + " warmup " + std::to_string(warmup);
}

const std::vector<std::pair<std::uint64_t, std::uint64_t>> kSmallWindows{
    {1, 0}, {1, 1}, {3, 7}, {5, 2}, {17, 13}, {64, 1}, {1, 64}, {40, 64}, {64, 64}};

TEST(ReplayOracle, CatalogCoresWithSmallWarmupsAndQuotas) {
  for (const std::uint32_t cores : {1U, 2U, 4U, 8U}) {
    for (const TimingMode mode : {TimingMode::kFunctional, TimingMode::kTimed}) {
      for (const auto& [instr, warmup] : kSmallWindows) {
        const SimConfig cfg = config_for(cores, "M-BT", mode, instr, warmup);
        check(cfg, [&](SimConfig& c) { return catalog_traces(c, cores, 3); },
              describe(cores, mode, instr, warmup));
      }
    }
  }
}

TEST(ReplayOracle, CatalogCoresOverLongRunsAndEveryConfig) {
  for (const std::string& acronym : core::CpaConfig::known_acronyms()) {
    for (const TimingMode mode : {TimingMode::kFunctional, TimingMode::kTimed}) {
      const SimConfig cfg = config_for(4, acronym, mode, 20'000, 5'000);
      check(cfg, [&](SimConfig& c) { return catalog_traces(c, 4, 11); },
            acronym + " " + describe(4, mode, 20'000, 5'000));
    }
  }
  for (const TimingMode mode : {TimingMode::kFunctional, TimingMode::kTimed}) {
    const SimConfig cfg = config_for(8, "M-0.75N", mode, 30'000, 0);
    check(cfg, [&](SimConfig& c) { return catalog_traces(c, 8, 5); },
          describe(8, mode, 30'000, 0));
  }
}

TEST(ReplayOracle, IdenticalCoresTieTheirClocks) {
  for (const std::uint32_t cores : {2U, 4U, 8U}) {
    for (const TimingMode mode : {TimingMode::kFunctional, TimingMode::kTimed}) {
      for (const std::uint32_t lines : {16U, 600U}) {
        const std::string what = "identical, " + std::to_string(lines) + " lines, ";
        for (const auto& [instr, warmup] : kSmallWindows) {
          const SimConfig cfg = config_for(cores, "M-0.75N", mode, instr, warmup);
          check(cfg,
                [&](SimConfig& c) { return identical_traces(c, cores, lines, {0, 1, 0, 3}); },
                what + describe(cores, mode, instr, warmup));
        }
        const SimConfig cfg = config_for(cores, "C-L", mode, 3'000, 1'000);
        check(cfg,
              [&](SimConfig& c) { return identical_traces(c, cores, lines, {0, 1, 0, 3}); },
              what + describe(cores, mode, 3'000, 1'000));
      }
    }
  }
}

TEST(ReplayOracle, ZeroAndLargestGaps) {
  constexpr std::uint32_t kMax = 0xFFFF'FFFFU;
  const std::vector<std::vector<std::uint32_t>> gap_sets{
      {0}, {0, 0, 0, kMax}, {kMax}, {kMax, 0, 7, 0, 0}};
  for (const auto& gaps : gap_sets) {
    for (const std::uint32_t cores : {1U, 2U, 4U}) {
      for (const TimingMode mode : {TimingMode::kFunctional, TimingMode::kTimed}) {
        for (const auto& [instr, warmup] :
             std::vector<std::pair<std::uint64_t, std::uint64_t>>{{1, 1}, {9, 30}, {2'000, 500}}) {
          const SimConfig cfg = config_for(cores, "M-BT", mode, instr, warmup);
          check(cfg, [&](SimConfig& c) { return script_traces(c, cores, gaps); },
                "gaps " + describe(cores, mode, instr, warmup));
        }
      }
    }
  }
}

TEST(ReplayOracle, TraceErrorsBeforeAndAfterTheEndOfTheRun) {
  constexpr std::uint32_t kCores = 4;
  constexpr std::uint32_t kFailing = 2;
  const auto catalog = [](SimConfig& c) { return catalog_traces(c, kCores, 9); };
  const auto scripts = [](SimConfig& c) { return script_traces(c, kCores, {0, 2, 1}); };
  for (const TimingMode mode : {TimingMode::kFunctional, TimingMode::kTimed}) {
    for (const bool use_scripts : {false, true}) {
      const SimConfig cfg = config_for(kCores, "M-BT", mode, 3'000, 1'000);
      const auto make_clean = [&](SimConfig& c) { return use_scripts ? scripts(c) : catalog(c); };
      SimConfig clean_cfg = cfg;
      const Traces clean_traces = make_clean(clean_cfg);
      const testing::ReferenceRun clean = testing::reference_replay(clean_cfg, clean_traces);
      ASSERT_TRUE(clean.error.empty()) << clean.error;
      const std::uint64_t consumed = clean.counters[kFailing].l1_accesses;
      ASSERT_GT(consumed, 400U);
      // Around the lookahead's size, densely through the run (the failing op
      // then often starts inside other cores' folded runs), and past its end.
      std::vector<std::uint64_t> fail_ats{0, 1, 63, 64, 65, consumed - 1, consumed,
                                          consumed + 1, consumed + 70};
      for (std::uint64_t k = 100; k < 400; k += 3) fail_ats.push_back(k);
      for (const std::uint64_t fail_at : fail_ats) {
        const auto make = [&](SimConfig& c) {
          Traces traces = make_clean(c);
          traces[kFailing] =
              std::make_unique<FailingSource>(std::move(traces[kFailing]), fail_at);
          return traces;
        };
        const std::string ctx = std::string(use_scripts ? "scripts " : "catalog ") +
                                to_string(mode) + " fail_at " + std::to_string(fail_at);
        EXPECT_EQ(check(cfg, make, ctx).error.empty(), fail_at >= consumed) << ctx;
      }
    }
  }
}

TEST(ReplayOracle, TraceErrorReadAheadBeforeTheWindowsOpen) {
  // A core that has warmed while the windows are still closed reads up to a
  // lookahead of L1 hits ahead, and may read its failing op there. When
  // another core then opens the windows, the first core's quota op can lie
  // among those hits, in front of the failing op: the run must take it and
  // freeze the core, and fail only if the merge reaches the failing op.
  for (const std::uint32_t cores : {2U, 4U}) {
    for (const TimingMode mode : {TimingMode::kFunctional, TimingMode::kTimed}) {
      for (const auto& [instr, warmup] : kSmallWindows) {
        if (warmup == 0) continue;
        const SimConfig cfg = config_for(cores, "M-BT", mode, instr, warmup);
        for (std::uint32_t failing = 0; failing < cores; ++failing) {
          for (std::uint64_t fail_at = warmup; fail_at < warmup + 12; ++fail_at) {
            const auto make = [&](SimConfig& c) {
              Traces traces = hot_traces(c, cores, 2);
              traces[failing] =
                  std::make_unique<FailingSource>(std::move(traces[failing]), fail_at);
              return traces;
            };
            check(cfg, make,
                  "hot " + describe(cores, mode, instr, warmup) + " core " +
                      std::to_string(failing) + " fail_at " + std::to_string(fail_at));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace plrupart::sim
