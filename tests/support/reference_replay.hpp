// Reference replay: CmpSimulator's run, one op at a time.
//
// The plain loop the simulator's back end started from: at every step the
// core with the smallest functional clock (lowest index on ties) reads its
// next op from its trace, runs it through MemoryHierarchy and commits it to
// its CoreModel. Measurement windows open for every core at the op that brings
// the last core to the warmup count; a core freezes at the op that brings it
// to its quota; the run ends when the last core freezes. Timed runs also
// price every op on a TimedMemory, with one transaction in flight per core,
// on a second clock per core.
//
// The simulator splits this loop into a front end, a back end that folds a
// core's L1 hits out of the interleave, and a pricing worker. The
// `ReplayOracle` suite (test_replay_oracle.cpp) checks every SimResult field
// and the final hierarchy counters against this model, failures included.
//
// Deliberately NOT deduplicated with src/sim/cmp_simulator.cpp: sharing code
// would let a bug in the optimized loop hide in the reference.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

#include "plrupart/sim/cmp_simulator.hpp"
#include "plrupart/sim/core_model.hpp"
#include "plrupart/sim/memory_hierarchy.hpp"
#include "plrupart/sim/timed_memory.hpp"

namespace plrupart::testing {

struct ReferenceRun {
  sim::SimResult result;                         ///< empty when the run failed
  std::vector<sim::HierarchyCounters> counters;  ///< per core, where the run ended
  std::string error;                             ///< what() of the escaping exception
  std::string error_type;                        ///< its dynamic type
};

/// Run `traces` under `config` one op at a time. Trace exceptions end the run
/// where they are thrown and are reported in the result, not rethrown.
inline ReferenceRun reference_replay(
    sim::SimConfig config, const std::vector<std::unique_ptr<sim::TraceSource>>& traces) {
  const auto n = static_cast<std::uint32_t>(traces.size());
  if (config.cores.size() == 1 && n > 1) config.cores.assign(n, config.cores.front());
  const bool timed = config.timing_mode == sim::TimingMode::kTimed;

  sim::MemoryHierarchy hierarchy(config.hierarchy);
  std::vector<sim::CoreModel> models;
  for (std::uint32_t i = 0; i < n; ++i) models.emplace_back(config.cores[i]);

  // The timed overlay: a TimedMemory and a timed clock per core.
  sim::TimedMemory memory(config.timed, config.hierarchy.l2.geometry);
  std::uint32_t line_shift = 0;
  while ((std::uint32_t{1} << line_shift) < config.hierarchy.l2.geometry.line_bytes) ++line_shift;
  struct TimedCore {
    double cycles = 0.0;
    double base = 0.0;
    double frozen = 0.0;
    sim::TimedMemory::Ticket outstanding{};
    bool in_flight = false;
  };
  std::vector<TimedCore> tcs(n);
  sim::TimedStats stats_base;
  auto retire = [&](std::uint32_t c) {
    TimedCore& tc = tcs[c];
    if (!tc.in_flight) return;
    tc.in_flight = false;
    const auto done = static_cast<double>(memory.retire(tc.outstanding));
    if (done > tc.cycles) tc.cycles += (done - tc.cycles) * config.cores[c].stall_fraction;
  };

  std::vector<std::uint64_t> base_instr(n, 0);
  std::vector<double> base_cycles(n, 0.0);
  std::vector<sim::HierarchyCounters> base_mem(n);
  std::vector<bool> warmed(n, false);
  std::vector<bool> frozen(n, false);
  bool open = config.warmup_instr == 0;
  std::uint32_t remaining = n;

  ReferenceRun run;
  std::vector<sim::ThreadResult> threads(n);
  try {
    while (remaining > 0) {
      std::uint32_t c = 0;
      for (std::uint32_t i = 1; i < n; ++i) {
        if (models[i].cycles() < models[c].cycles()) c = i;
      }
      const sim::MemOp op = traces[c]->next();
      sim::CoreModel& m = models[c];
      m.commit_gap(op.gap_instrs);
      const auto now = static_cast<std::uint64_t>(m.cycles());
      // MemoryHierarchy::access, spelled out to keep the L2 outcome.
      const bool l1_hit = hierarchy.l1d_mut(c).access(0, op.addr, op.write).hit;
      cache::AccessOutcome l2;
      m.commit_mem(hierarchy.access_shared(c, op.addr, op.write, l1_hit, now, l2));

      if (timed) {
        TimedCore& tc = tcs[c];
        tc.cycles += m.gap_cycles(std::uint64_t{op.gap_instrs} + 1);
        if (!l1_hit) {
          retire(c);
          const auto t = static_cast<std::uint64_t>(tc.cycles);
          const cache::Addr line = op.addr >> line_shift;
          if (l2.hit) {
            const auto ticket = memory.hit(t, line, l2.way, op.write);
            if (ticket.valid) {
              tc.outstanding = ticket;
              tc.in_flight = true;
            } else {
              tc.cycles +=
                  static_cast<double>(config.timed.l2_hit_cycles) * config.cores[c].stall_fraction;
            }
          } else {
            tc.outstanding =
                memory.miss(t, line, l2.way, op.write, l2.evicted_valid, l2.evicted_line);
            tc.in_flight = true;
          }
        }
      }

      if (!open) {
        if (!warmed[c] && m.instructions() >= config.warmup_instr) warmed[c] = true;
        if (std::all_of(warmed.begin(), warmed.end(), [](bool w) { return w; })) {
          open = true;
          for (std::uint32_t i = 0; i < n; ++i) {
            base_instr[i] = models[i].instructions();
            base_cycles[i] = models[i].cycles();
            base_mem[i] = hierarchy.counters(i);
          }
          if (timed) {
            for (std::uint32_t i = 0; i < n; ++i) retire(i);
            memory.mark();
            stats_base = memory.stats();
            for (TimedCore& tc : tcs) tc.base = tc.cycles;
          }
        }
        continue;
      }
      if (!frozen[c] && m.instructions() >= base_instr[c] + config.instr_limit) {
        frozen[c] = true;
        --remaining;
        sim::ThreadResult& r = threads[c];
        r.benchmark = traces[c]->name();
        r.instructions = m.instructions() - base_instr[c];
        r.cycles = m.cycles() - base_cycles[c];
        const sim::HierarchyCounters& now_mem = hierarchy.counters(c);
        r.mem.l1_accesses = now_mem.l1_accesses - base_mem[c].l1_accesses;
        r.mem.l1_misses = now_mem.l1_misses - base_mem[c].l1_misses;
        r.mem.l2_accesses = now_mem.l2_accesses - base_mem[c].l2_accesses;
        r.mem.l2_misses = now_mem.l2_misses - base_mem[c].l2_misses;
        if (timed) {
          retire(c);
          tcs[c].frozen = tcs[c].cycles;
        }
      }
    }
  } catch (const std::exception& e) {
    run.error = e.what();
    run.error_type = typeid(e).name();
  }
  for (std::uint32_t i = 0; i < n; ++i) run.counters.push_back(hierarchy.counters(i));
  if (!run.error.empty()) return run;

  sim::SimResult& out = run.result;
  out.threads = std::move(threads);
  if (timed) {
    for (std::uint32_t i = 0; i < n; ++i) out.threads[i].cycles = tcs[i].frozen - tcs[i].base;
    out.timing = sim::TimingMode::kTimed;
    out.timed = memory.stats().delta_since(stats_base);
  }
  for (sim::ThreadResult& t : out.threads) {
    t.ipc = t.cycles > 0.0 ? static_cast<double>(t.instructions) / t.cycles : 0.0;
    out.wall_cycles = std::max(out.wall_cycles, t.cycles);
  }
  for (const sim::HierarchyCounters& ctr : run.counters) out.simulated_accesses += ctr.l1_accesses;
  const auto* ctrl = hierarchy.l2().controller();
  out.repartitions = ctrl != nullptr ? ctrl->history().size() : 0;
  out.l2_config = hierarchy.l2().config().acronym();
  return run;
}

}  // namespace plrupart::testing
