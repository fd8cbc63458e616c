// CmpSimulator's replay: one loop for both timing modes.
//
// Every run is split in two. The per-core front end (sim/front_end.hpp) runs
// each core's trace source through its private L1 and hands over one record
// per op. The back end below does only the shared work: the argmin
// interleave over core clocks, the shared L2 with its profilers and interval
// controller, warmup windows, freeze at quota, and pricing. Pricing is the
// one point where the timing modes differ: FixedLatency charges CoreModel's
// fixed penalties; TimedOverlay additionally runs the event-driven
// MSHR/writeback/banked-DRAM model (TimedMemory) on a second per-core clock,
// which is what a timed run reports. Both see the same interleave (argmin
// over the FUNCTIONAL clocks) and stamp the L2 with the same `now`, so the
// shared L2 observes the exact same access stream in both modes and the
// controller takes the same partition decisions at the same accesses.
#include "plrupart/sim/cmp_simulator.hpp"

#include <algorithm>
#include <string>

#include "plrupart/common/bits.hpp"
#include "plrupart/common/error.hpp"
#include "sim/front_end.hpp"

namespace plrupart::sim {

namespace {

using internal::OpRecord;

/// Functional pricing: the fixed latencies CoreModel already charged.
struct FixedLatency {
  static constexpr const char* kRunLabel = "serial run";
  void on_op(std::uint32_t /*core*/, const CoreModel& /*model*/, const OpRecord& /*op*/,
             const cache::AccessOutcome& /*l2*/) {}
  [[nodiscard]] static double clock(const CoreModel& model, std::uint32_t /*core*/) {
    return model.cycles();
  }
  void open_window() {}
  void freeze(std::uint32_t /*core*/) {}
  void finish(SimResult& /*out*/) const {}
};

/// Timed pricing. A core keeps at most one L2 transaction in flight (its
/// `outstanding` ticket). L1 hits retire under it — hit-under-miss — and the
/// fill is awaited lazily at the core's next L2-reaching access, charging
/// only the exposed fraction of whatever latency is still uncovered at that
/// point. Cross-core concurrency is real: many cores' fills occupy MSHRs and
/// DRAM banks at once, which is where queueing, coalescing, and bank
/// conflicts come from.
class TimedOverlay {
 public:
  static constexpr const char* kRunLabel = "timed run";

  explicit TimedOverlay(const SimConfig& config)
      : config_(config),
        line_shift_(ilog2_exact(config.hierarchy.l2.geometry.line_bytes)),
        memory_(config.timed, config.hierarchy.l2.geometry),
        cores_(config.cores.size()) {}

  void on_op(std::uint32_t core, const CoreModel& model, const OpRecord& op,
             const cache::AccessOutcome& l2) {
    // Same committed instructions as the functional clock, latency from the model.
    Core& tc = cores_[core];
    const double stall = config_.cores[core].stall_fraction;
    tc.cycles += model.gap_cycles(std::uint64_t{op.gap_instrs} + 1);
    if (op.l1_hit) return;
    // One demand transaction in flight per core: the previous one must
    // retire before the next issues (L1 hits in between already proceeded).
    retire(core);
    const auto t_issue = static_cast<std::uint64_t>(tc.cycles);
    const cache::Addr line = op.addr >> line_shift_;
    if (l2.hit) {
      const auto tk = memory_.hit(t_issue, line, l2.way, op.write);
      if (tk.valid) {
        // Fill still in flight: this "hit" waits on the fill, not the array.
        tc.outstanding = tk;
        tc.has_outstanding = true;
      } else {
        tc.cycles += static_cast<double>(config_.timed.l2_hit_cycles) * stall;
      }
    } else {
      tc.outstanding =
          memory_.miss(t_issue, line, l2.way, op.write, l2.evicted_valid, l2.evicted_line);
      tc.has_outstanding = true;
    }
  }

  [[nodiscard]] double clock(const CoreModel& /*model*/, std::uint32_t core) const {
    return cores_[core].cycles;
  }

  /// Settle every in-flight transaction so the measured window starts from
  /// a clean overlay, then restart peak tracking.
  void open_window() {
    for (std::uint32_t i = 0; i < cores_.size(); ++i) retire(i);
    memory_.mark();
    stats_base_ = memory_.stats();
  }

  void freeze(std::uint32_t core) { retire(core); }  // the quota's last miss counts

  void finish(SimResult& out) const {
    out.timing = TimingMode::kTimed;
    out.timed = memory_.stats().delta_since(stats_base_);
  }

 private:
  struct Core {
    double cycles = 0.0;  ///< the timed clock (what this mode reports)
    TimedMemory::Ticket outstanding{};
    bool has_outstanding = false;
  };

  /// Await core's in-flight L2 transaction and charge the exposed remainder.
  void retire(std::uint32_t core) {
    Core& tc = cores_[core];
    if (!tc.has_outstanding) return;
    const auto done = static_cast<double>(memory_.retire(tc.outstanding));
    tc.has_outstanding = false;
    if (done > tc.cycles) tc.cycles += (done - tc.cycles) * config_.cores[core].stall_fraction;
  }

  const SimConfig& config_;
  std::uint32_t line_shift_;  ///< log2(L2 line bytes)
  TimedMemory memory_;
  std::vector<Core> cores_;
  TimedStats stats_base_;  ///< overlay counters at window open
};

/// The replay loop: the back end of every run.
template <class Pricing>
SimResult replay(const SimConfig& config, std::vector<std::unique_ptr<TraceSource>>& traces,
                 MemoryHierarchy& hierarchy, Pricing& pricing) {
  const std::uint32_t n = hierarchy.num_cores();
  std::vector<CoreModel> models;  // functional clocks: they drive the interleave
  models.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) models.emplace_back(config.cores[i]);
  std::vector<double> clocks(n, 0.0);  ///< models[i].cycles(), scanned every op

  std::vector<std::string> names(n);
  for (std::uint32_t i = 0; i < n; ++i) names[i] = traces[i]->name();

  struct Baseline {
    std::uint64_t instructions = 0;
    double cycles = 0.0;
    HierarchyCounters mem;
  };
  std::vector<Baseline> baselines(n);
  bool windows_open = config.warmup_instr == 0;
  std::vector<std::uint8_t> warmed(n, 0);
  std::uint32_t warmed_cores = 0;
  std::vector<std::uint8_t> frozen(n, 0);
  std::vector<ThreadResult> results(n);
  std::uint32_t remaining = n;
  std::uint64_t ops = 0;

  const internal::Watchdog watchdog(config.timeout_s, Pricing::kRunLabel);
  const bool has_deadline = config.timeout_s > 0.0;
  internal::FrontEnd front(traces, hierarchy, config.faults.get(), watchdog);

  while (remaining > 0) {
    if (has_deadline && (++ops & 0xfffU) == 0) watchdog.check();
    // Advance the core with the smallest local clock, lowest index on ties
    // (finished cores keep running to preserve contention, with frozen
    // statistics). Branch-free over a contiguous copy of the clocks.
    std::uint32_t core = 0;
    double min_cycles = clocks[0];
    for (std::uint32_t i = 1; i < n; ++i) {
      const bool earlier = clocks[i] < min_cycles;
      min_cycles = earlier ? clocks[i] : min_cycles;
      core = earlier ? i : core;
    }

    const OpRecord op = front.next(core);
    CoreModel& model = models[core];
    model.commit_gap(op.gap_instrs);
    const auto now = static_cast<std::uint64_t>(model.cycles());
    cache::AccessOutcome l2;
    model.commit_mem(hierarchy.access_shared(core, op.addr, op.write, op.l1_hit, now, l2));
    clocks[core] = model.cycles();
    pricing.on_op(core, model, op, l2);

    if (!windows_open) {
      // Windows open for everyone at once, when the slowest core has warmed:
      // at the op that brings the last core to warmup_instr.
      if (warmed[core] == 0 && model.instructions() >= config.warmup_instr) {
        warmed[core] = 1;
        ++warmed_cores;
      }
      if (warmed_cores == n) {
        windows_open = true;
        pricing.open_window();
        for (std::uint32_t i = 0; i < n; ++i) {
          baselines[i].instructions = models[i].instructions();
          baselines[i].cycles = pricing.clock(models[i], i);
          baselines[i].mem = hierarchy.counters(i);
        }
      }
      continue;
    }

    if (frozen[core] == 0 &&
        model.instructions() >= baselines[core].instructions + config.instr_limit) {
      frozen[core] = 1;
      --remaining;
      pricing.freeze(core);
      const Baseline& base = baselines[core];
      ThreadResult& r = results[core];
      r.benchmark = names[core];
      r.instructions = model.instructions() - base.instructions;
      r.cycles = pricing.clock(model, core) - base.cycles;
      r.ipc = r.cycles > 0.0 ? static_cast<double>(r.instructions) / r.cycles : 0.0;
      const HierarchyCounters& now_mem = hierarchy.counters(core);
      r.mem.l1_accesses = now_mem.l1_accesses - base.mem.l1_accesses;
      r.mem.l1_misses = now_mem.l1_misses - base.mem.l1_misses;
      r.mem.l2_accesses = now_mem.l2_accesses - base.mem.l2_accesses;
      r.mem.l2_misses = now_mem.l2_misses - base.mem.l2_misses;
    }
  }

  SimResult out;
  out.threads = std::move(results);
  for (const auto& t : out.threads) out.wall_cycles = std::max(out.wall_cycles, t.cycles);
  for (std::uint32_t i = 0; i < n; ++i)
    out.simulated_accesses += hierarchy.counters(i).l1_accesses;
  const auto* ctrl = hierarchy.l2().controller();
  out.repartitions = ctrl ? ctrl->history().size() : 0;
  out.l2_config = hierarchy.l2().config().acronym();
  pricing.finish(out);
  return out;
}

}  // namespace

CmpSimulator::CmpSimulator(SimConfig config, std::vector<std::unique_ptr<TraceSource>> traces)
    : config_(std::move(config)), traces_(std::move(traces)) {
  const std::uint32_t cores = config_.hierarchy.l2.num_cores;
  PLRUPART_ASSERT_MSG(traces_.size() == cores, "one trace per core required");
  PLRUPART_ASSERT(config_.instr_limit > 0);
  if (config_.cores.size() == 1 && cores > 1) {
    config_.cores.assign(cores, config_.cores.front());
  }
  PLRUPART_ASSERT_MSG(config_.cores.size() == cores, "one CoreParams per core required");
  hierarchy_ = std::make_unique<MemoryHierarchy>(config_.hierarchy);
}

SimResult CmpSimulator::run() {
  // Explicit call-once contract: the hierarchy (caches, profilers, the
  // controller's partition history) is consumed by the first run, so a second
  // run would silently produce warm-state garbage. Fail loudly instead.
  if (ran_) {
    throw InvariantError(
        "CmpSimulator::run may be called once; construct a fresh simulator "
        "for another run");
  }
  ran_ = true;

  if (config_.timing_mode == TimingMode::kTimed) {
    TimedOverlay timed(config_);
    return replay(config_, traces_, *hierarchy_, timed);
  }
  FixedLatency functional;
  return replay(config_, traces_, *hierarchy_, functional);
}

}  // namespace plrupart::sim
