// Timed simulation mode: the decision-match gate and the MSHR/writeback/DRAM
// edge cases.
//
// The load-bearing contract of the timed overlay is that it changes cycle
// accounting and NOTHING else: the L2 sees the exact same access stream as
// the functional replay, so the interval controller takes identical partition
// decisions at identical tick positions in both modes, for every
// configuration and workload. DecisionMatchGate pins that — the CI `timed`
// job runs this suite as the gate.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "plrupart/common/assert.hpp"
#include "plrupart/sim/cmp_simulator.hpp"
#include "plrupart/sim/timed_memory.hpp"
#include "plrupart/sim/trace_file.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"

namespace plrupart::sim {
namespace {

using workloads::benchmark;
using workloads::make_trace;

SimConfig small_config(const std::vector<std::string>& names, const char* acronym,
                       TimingMode mode, std::uint64_t instr = 30'000,
                       std::uint64_t warmup = 8'000) {
  SimConfig cfg;
  cfg.hierarchy.l1d =
      cache::Geometry{.size_bytes = 4096, .associativity = 2, .line_bytes = 128};
  cfg.hierarchy.l2 = core::CpaConfig::from_acronym(
      acronym, static_cast<std::uint32_t>(names.size()),
      cache::Geometry{.size_bytes = 256 * 1024, .associativity = 16, .line_bytes = 128});
  cfg.hierarchy.l2.interval_cycles = 25'000;
  cfg.hierarchy.l2.sampling_ratio = 8;
  cfg.instr_limit = instr;
  cfg.warmup_instr = warmup;
  cfg.timing_mode = mode;
  for (const auto& name : names) cfg.cores.push_back(benchmark(name).core);
  return cfg;
}

std::vector<std::unique_ptr<TraceSource>> traces_for(
    const std::vector<std::string>& names, std::uint64_t seed = 7) {
  std::vector<std::unique_ptr<TraceSource>> traces;
  for (std::uint32_t i = 0; i < names.size(); ++i)
    traces.push_back(make_trace(benchmark(names[i]), i, seed));
  return traces;
}

/// Run one config in `mode` and return (result, controller history).
std::pair<SimResult, std::vector<core::RepartitionEvent>> run_with_history(
    const std::vector<std::string>& names, const char* acronym, TimingMode mode,
    const SimConfig* override_cfg = nullptr) {
  SimConfig cfg = override_cfg ? *override_cfg : small_config(names, acronym, mode);
  CmpSimulator sim(std::move(cfg), traces_for(names));
  SimResult result = sim.run();
  const auto* ctrl = sim.hierarchy().l2().controller();
  std::vector<core::RepartitionEvent> history;
  if (ctrl != nullptr) history = ctrl->history();
  return {std::move(result), std::move(history)};
}

/// The gate: every repartition decision — position AND chosen allocation —
/// must be identical between the modes, and so must every functional-side
/// counter (same stream ⇒ same hit/miss record).
void expect_decisions_match(const std::vector<std::string>& names, const char* acronym) {
  const auto [functional, fh] =
      run_with_history(names, acronym, TimingMode::kFunctional);
  const auto [timed, th] = run_with_history(names, acronym, TimingMode::kTimed);
  const std::string ctx = std::string(acronym) + " (" + names[0] + "+...)";

  ASSERT_EQ(fh.size(), th.size()) << ctx << ": repartition count diverged";
  for (std::size_t i = 0; i < fh.size(); ++i) {
    EXPECT_EQ(fh[i].cycle, th[i].cycle) << ctx << ": decision " << i << " tick";
    EXPECT_EQ(fh[i].partition, th[i].partition)
        << ctx << ": decision " << i << " allocation";
  }
  EXPECT_EQ(functional.repartitions, timed.repartitions) << ctx;

  ASSERT_EQ(functional.threads.size(), timed.threads.size()) << ctx;
  for (std::size_t i = 0; i < functional.threads.size(); ++i) {
    const auto& f = functional.threads[i];
    const auto& t = timed.threads[i];
    EXPECT_EQ(f.instructions, t.instructions) << ctx << " core " << i;
    EXPECT_EQ(f.mem.l1_accesses, t.mem.l1_accesses) << ctx << " core " << i;
    EXPECT_EQ(f.mem.l1_misses, t.mem.l1_misses) << ctx << " core " << i;
    EXPECT_EQ(f.mem.l2_accesses, t.mem.l2_accesses) << ctx << " core " << i;
    EXPECT_EQ(f.mem.l2_misses, t.mem.l2_misses) << ctx << " core " << i;
  }
  EXPECT_EQ(timed.timing, TimingMode::kTimed) << ctx;
  EXPECT_EQ(functional.simulated_accesses, timed.simulated_accesses) << ctx;
}

TEST(TimedSim, DecisionMatchGateAllConfigsTwoWorkloads) {
  // Every acronym the project knows — partitioned (decision histories compared
  // entry by entry) and unpartitioned (histories empty in both modes, counters
  // still compared) — across two distinct workloads.
  const std::vector<std::vector<std::string>> mixes{{"twolf", "art"}, {"mcf", "gzip"}};
  for (const auto& names : mixes) {
    for (const auto& acronym : core::CpaConfig::known_acronyms()) {
      expect_decisions_match(names, acronym.c_str());
    }
  }
}

TEST(TimedSim, DecisionMatchFourCores) {
  expect_decisions_match({"twolf", "art", "mcf", "gzip"}, "M-BT");
}

TEST(TimedSim, ZeroLatencyDegenerateStillMatchesFunctionalDecisions) {
  // All latencies zero: every fill completes on its issue tick. The overlay
  // charges nothing, yet the decision stream must STILL be identical — the
  // gate is about stream identity, not about latency magnitude.
  const std::vector<std::string> names{"twolf", "art"};
  SimConfig zero = small_config(names, "M-0.75N", TimingMode::kTimed);
  zero.timed.l2_hit_cycles = 0;
  zero.timed.l2_miss_to_dram_cycles = 0;
  zero.timed.t_row_hit = 0;
  zero.timed.t_row_miss = 0;
  zero.timed.t_row_conflict = 0;

  const auto [functional, fh] =
      run_with_history(names, "M-0.75N", TimingMode::kFunctional);
  const auto [timed, th] =
      run_with_history(names, "M-0.75N", TimingMode::kTimed, &zero);
  ASSERT_EQ(fh.size(), th.size());
  for (std::size_t i = 0; i < fh.size(); ++i) {
    EXPECT_EQ(fh[i].cycle, th[i].cycle);
    EXPECT_EQ(fh[i].partition, th[i].partition);
  }
  for (std::size_t i = 0; i < functional.threads.size(); ++i) {
    EXPECT_EQ(functional.threads[i].mem.l2_misses, timed.threads[i].mem.l2_misses);
  }
  // With zero memory latency a thread can only be FASTER than functional mode
  // (which still charges its fixed penalties).
  for (std::size_t i = 0; i < timed.threads.size(); ++i) {
    EXPECT_LE(timed.threads[i].cycles, functional.threads[i].cycles);
  }
}

TEST(TimedSim, TimedIgnoresSimThreadsAndStaysDeterministic) {
  const std::vector<std::string> names{"twolf", "art"};
  SimConfig a = small_config(names, "M-BT", TimingMode::kTimed);
  SimConfig b = a;
  b.sim_threads = 8;  // deprecated and ignored: identical results
  CmpSimulator sim_a(std::move(a), traces_for(names));
  CmpSimulator sim_b(std::move(b), traces_for(names));
  const SimResult ra = sim_a.run();
  const SimResult rb = sim_b.run();
  EXPECT_EQ(ra.simulated_accesses, rb.simulated_accesses);
  ASSERT_EQ(ra.threads.size(), rb.threads.size());
  for (std::size_t i = 0; i < ra.threads.size(); ++i) {
    EXPECT_EQ(ra.threads[i].cycles, rb.threads[i].cycles);
    EXPECT_EQ(ra.threads[i].ipc, rb.threads[i].ipc);
  }
  EXPECT_EQ(ra.timed.dram_reads, rb.timed.dram_reads);
  EXPECT_EQ(ra.timed.dram_bytes, rb.timed.dram_bytes);
  EXPECT_EQ(ra.timed.bank_conflicts, rb.timed.bank_conflicts);
}

TEST(TimedSim, TimedCountersAreCoherent) {
  const std::vector<std::string> names{"mcf", "art"};
  SimConfig cfg = small_config(names, "M-L", TimingMode::kTimed);
  CmpSimulator sim(std::move(cfg), traces_for(names));
  const SimResult r = sim.run();
  EXPECT_EQ(r.timing, TimingMode::kTimed);
  EXPECT_GT(r.timed.dram_reads, 0u);
  EXPECT_GT(r.timed.dram_bytes, 0u);
  EXPECT_GE(r.timed.mshr_peak, 1u);
  EXPECT_LE(r.timed.mshr_peak, SimConfig{}.timed.mshrs);
  // Every DRAM service resolves to exactly one row-buffer outcome.
  EXPECT_GT(r.timed.row_hits + r.timed.row_misses + r.timed.bank_conflicts, 0u);
  EXPECT_GT(r.wall_cycles, 0.0);
}

TEST(TimedSim, LargestTraceGapIsChargedInFull) {
  // A v2 record may carry a gap of 2^32-1 instructions; with its memory op
  // that is 2^32 instructions, which the timed clock must charge in full
  // rather than wrap to a gap of zero.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("plrupart_timed_gap_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "max_gap.v2.trace").string();
  constexpr std::uint32_t kMaxGap = std::numeric_limits<std::uint32_t>::max();
  write_trace_file(path, {{.addr = 0x4000, .write = false, .gap_instrs = kMaxGap}},
                   TraceFormat::kBinaryV2);
  SimConfig cfg = small_config({"twolf"}, "NOPART-L", TimingMode::kTimed, 1, 0);
  std::vector<std::unique_ptr<TraceSource>> traces;
  traces.push_back(std::make_unique<FileTraceSource>(path));
  CmpSimulator sim(cfg, std::move(traces));
  const SimResult r = sim.run();
  std::filesystem::remove_all(dir);
  ASSERT_EQ(r.threads.size(), 1u);
  EXPECT_EQ(r.threads[0].instructions, std::uint64_t{1} << 32);
  EXPECT_GE(r.threads[0].cycles, 0x1p32 / cfg.cores[0].base_ipc);
}

// ---------------------------------------------------------------------------
// TimedMemory unit tests: MSHR-full stall, coalescing, writeback backpressure.
// A tiny one-set geometry (512 B, 4-way, 128 B lines) makes dirty-victim
// bookkeeping trivially addressable: every line maps to set 0.
// ---------------------------------------------------------------------------

cache::Geometry one_set_geo() {
  return cache::Geometry{.size_bytes = 512, .associativity = 4, .line_bytes = 128};
}

TEST(TimedMemory, MshrFullStallBlocksUntilAFillFrees) {
  TimedParams p;
  p.mshrs = 2;
  TimedMemory mem(p, one_set_geo());

  const auto t1 = mem.miss(0, 0x100, 0, false, false, 0);
  const auto t2 = mem.miss(0, 0x200, 1, false, false, 0);
  ASSERT_TRUE(t1.valid && t2.valid);
  EXPECT_EQ(mem.mshrs_pending(), 2u);
  EXPECT_EQ(mem.stats().mshr_full_stalls, 0u);

  // Third distinct-line miss at the same tick: the file is full, so the issue
  // must stall until one of the in-flight fills completes.
  const auto t3 = mem.miss(0, 0x300, 2, false, false, 0);
  ASSERT_TRUE(t3.valid);
  EXPECT_EQ(mem.stats().mshr_full_stalls, 1u);
  EXPECT_LE(mem.mshrs_pending(), 2u);
  EXPECT_EQ(mem.stats().mshr_peak, 2u);

  (void)mem.retire(t1);
  (void)mem.retire(t2);
  const std::uint64_t done3 = mem.retire(t3);
  EXPECT_GT(done3, 0u);
  EXPECT_EQ(mem.mshrs_pending(), 0u);
  EXPECT_EQ(mem.stats().dram_reads, 3u);
}

TEST(TimedMemory, SameLineMissCoalescesIntoThePendingFill) {
  TimedMemory mem(TimedParams{}, one_set_geo());
  const auto a = mem.miss(0, 0x100, 0, false, false, 0);
  // The functional cache evicted and re-missed the same line inside the fill
  // window (or another core missed it): one DRAM read, two waiters.
  const auto b = mem.miss(1, 0x100, 0, false, false, 0);
  ASSERT_TRUE(a.valid && b.valid);
  EXPECT_EQ(a.slot, b.slot);
  EXPECT_EQ(mem.stats().mshr_coalesced, 1u);
  EXPECT_EQ(mem.stats().dram_reads, 1u);
  EXPECT_EQ(mem.mshrs_pending(), 1u);

  const std::uint64_t done_a = mem.retire(a);
  const std::uint64_t done_b = mem.retire(b);
  EXPECT_EQ(done_a, done_b);  // both waiters see the same fill
}

TEST(TimedMemory, HitOnLineWithFillInFlightReturnsTheFillTicket) {
  TimedMemory mem(TimedParams{}, one_set_geo());
  const auto fill = mem.miss(0, 0x100, 0, false, false, 0);
  // Functionally this is an L2 hit (the line installed instantly), but the
  // timed fill has not arrived: the "hit" must wait on the MSHR.
  const auto hit = mem.hit(1, 0x100, 0, false);
  ASSERT_TRUE(hit.valid);
  EXPECT_EQ(hit.slot, fill.slot);
  EXPECT_EQ(mem.stats().mshr_coalesced, 1u);
  (void)mem.retire(fill);
  (void)mem.retire(hit);

  // After the fill lands, hits on the line are plain hits: invalid ticket.
  const auto late = mem.hit(100'000, 0x100, 0, false);
  EXPECT_FALSE(late.valid);
}

TEST(TimedMemory, DirtyVictimWritebackAndQueueBackpressure) {
  TimedParams p;
  p.writeback_queue = 1;
  TimedMemory mem(p, one_set_geo());

  // Dirty two ways of set 0 with write misses, waiting each fill out.
  auto w0 = mem.miss(0, 0x100, 0, true, false, 0);
  auto w1 = mem.miss(0, 0x200, 1, true, false, 0);
  (void)mem.retire(w0);
  (void)mem.retire(w1);
  EXPECT_EQ(mem.stats().dram_writebacks, 0u);

  // Evicting the dirty line in way 0 enqueues a writeback.
  const std::uint64_t t = 10'000;
  auto e0 = mem.miss(t, 0x300, 0, false, true, 0x100);
  EXPECT_EQ(mem.stats().dram_writebacks, 1u);
  EXPECT_EQ(mem.writebacks_in_flight(), 1u);

  // Evicting the second dirty line immediately after: the 1-deep writeback
  // queue is still occupied, so the miss must stall until it drains.
  auto e1 = mem.miss(t + 1, 0x400, 1, false, true, 0x200);
  EXPECT_EQ(mem.stats().wb_full_stalls, 1u);
  EXPECT_EQ(mem.stats().dram_writebacks, 2u);

  (void)mem.retire(e0);
  (void)mem.retire(e1);
  mem.drain();
  EXPECT_EQ(mem.writebacks_in_flight(), 0u);
  // A clean victim (way 2 was never written) produces no writeback.
  auto e2 = mem.miss(50'000, 0x500, 2, false, true, 0x180);
  (void)mem.retire(e2);
  EXPECT_EQ(mem.stats().dram_writebacks, 2u);
}

TEST(TimedMemory, ZeroLatencyFillsCompleteOnTheIssueTick) {
  TimedParams p;
  p.l2_miss_to_dram_cycles = 0;
  p.t_row_hit = 0;
  p.t_row_miss = 0;
  p.t_row_conflict = 0;
  TimedMemory mem(p, one_set_geo());
  const auto tk = mem.miss(42, 0x100, 0, false, false, 0);
  EXPECT_EQ(mem.retire(tk), 42u);
}

TEST(TimedMemory, RowBufferOutcomesFollowTheOpenRow) {
  TimedParams p;
  p.dram_banks = 1;
  p.row_bytes = 256;  // 2 lines per row
  TimedMemory mem(p, one_set_geo());

  // Lines 0 and 1 share row 0; line 2 lives in row 1 (single bank).
  auto a = mem.miss(0, 0, 0, false, false, 0);
  (void)mem.retire(a);
  EXPECT_EQ(mem.stats().row_misses, 1u);  // cold bank
  auto b = mem.miss(1'000, 1, 1, false, false, 0);
  (void)mem.retire(b);
  EXPECT_EQ(mem.stats().row_hits, 1u);  // same row still open
  auto c = mem.miss(2'000, 2, 2, false, false, 0);
  (void)mem.retire(c);
  EXPECT_EQ(mem.stats().bank_conflicts, 1u);  // different row: precharge first
}

TEST(TimedMemory, ValidateRejectsDegenerateParams) {
  TimedParams p;
  p.mshrs = 0;
  EXPECT_THROW(p.validate(), InvariantError);
  p = TimedParams{};
  p.dram_banks = 0;
  EXPECT_THROW(p.validate(), InvariantError);
  p = TimedParams{};
  p.writeback_queue = 0;
  EXPECT_THROW(p.validate(), InvariantError);
  // The DRAM address mapping is bit slicing: banks and rows are powers of two.
  for (const std::uint32_t banks : {3U, 6U, 12U}) {
    p = TimedParams{};
    p.dram_banks = banks;
    EXPECT_THROW(p.validate(), InvariantError) << banks << " banks";
  }
  for (const std::uint32_t row : {0U, 1000U, 3072U}) {
    p = TimedParams{};
    p.row_bytes = row;
    EXPECT_THROW(p.validate(), InvariantError) << row << " B rows";
  }
  p = TimedParams{};
  p.dram_banks = 1;
  p.row_bytes = 128;
  EXPECT_NO_THROW(p.validate());
}

TEST(TimedMemory, TimingModeStringsRoundTrip) {
  EXPECT_EQ(to_string(TimingMode::kFunctional), "functional");
  EXPECT_EQ(to_string(TimingMode::kTimed), "timed");
  EXPECT_EQ(timing_mode_from_string("functional"), TimingMode::kFunctional);
  EXPECT_EQ(timing_mode_from_string("timed"), TimingMode::kTimed);
  EXPECT_THROW((void)timing_mode_from_string("cycle-accurate"), InvariantError);
}

}  // namespace
}  // namespace plrupart::sim
