// CmpSimulator's replay: one loop for both timing modes.
//
// Every run is split in two. The per-core front end (sim/front_end.hpp) runs
// each core's trace source through its private L1 and hands over one record
// per op. The back end below does only the shared work: the interleave over
// core clocks, the shared L2 with its profilers and interval controller,
// warmup windows, freeze at quota, and pricing. Pricing is the one point
// where the timing modes differ: FixedLatency charges CoreModel's fixed
// penalties; TimedPricing additionally runs the event-driven
// MSHR/writeback/banked-DRAM model (TimedMemory) on a second per-core clock,
// which is what a timed run reports, on a pricing worker once one may start
// (sim/front_end.hpp). Both see the same interleave (over the FUNCTIONAL
// clocks) and stamp the L2 with the same `now`, so the shared L2 observes the
// exact same access stream in both modes and the controller takes the same
// partition decisions at the same accesses.
//
// The interleave merges only significant ops: an L2-reaching op, the op that
// brings a core to the warmup count (windows closed) or to its quota (windows
// open), an op whose production threw, and the last op of a full lookahead.
// An L1 hit changes nothing but its own core's clocks, so the L1 hits in
// front of a core's next significant op are folded into its clock ahead of
// the merge, with CoreModel's adds in CoreModel's order, and the core's merge
// key is its clock at the start of that op. A one-op-at-a-time replay is a
// merge of the cores' op streams by (start clock, core index) in which each
// core's start clocks only grow; restricting it to a subset of the ops keeps
// their order, so the L2 sees the same accesses with the same `now`. Where
// one op reads every core's state -- the windows opening, the last core
// freezing, a front-end error being rethrown -- every other core first
// commits the folded L1 hits that start before that op in the merge order.
// Timed runs price a core's L1 hits when their run commits, just before the
// core's next significant op: one record per op on the pricing worker, the
// whole run at once inline. Either is exact, because an L1 hit touches only
// its own core's timed clock.
#include "plrupart/sim/cmp_simulator.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <string>

#include "plrupart/common/bits.hpp"
#include "plrupart/common/error.hpp"
#include "sim/front_end.hpp"

namespace plrupart::sim {

namespace {

using internal::OpRecord;
using internal::PriceKind;
using internal::PriceRecord;

/// Functional pricing: the fixed latencies CoreModel already charged, so the
/// functional clocks the replay reads are the result.
struct FixedLatency {
  static constexpr const char* kRunLabel = "serial run";
  FixedLatency(const SimConfig& /*config*/, const internal::Watchdog& /*watchdog*/) {}
  void on_op(std::uint32_t /*core*/, const OpRecord& /*op*/,
             const cache::AccessOutcome& /*l2*/) {}
  void on_l1_hits(std::uint32_t /*core*/, const OpRecord* /*ops*/, std::size_t /*count*/) {}
  void poll(std::uint64_t /*consumed*/, bool /*front_end_worker_running*/) {}
  void open_window() {}
  void freeze(std::uint32_t /*core*/) {}
  void finish(SimResult& /*out*/) {}
};

/// The timed overlay. A core keeps at most one L2 transaction in flight (its
/// `outstanding` ticket). L1 hits retire under it — hit-under-miss — and the
/// fill is awaited lazily at the core's next L2-reaching access, charging
/// only the exposed fraction of whatever latency is still uncovered at that
/// point. Cross-core concurrency is real: many cores' fills occupy MSHRs and
/// DRAM banks at once, which is where queueing, coalescing, and bank
/// conflicts come from. It keeps its own timed clock per core and records it
/// where the window opens and where each core freezes.
class TimedOverlay final : public internal::PricingSink {
 public:
  explicit TimedOverlay(const SimConfig& config)
      : config_(config),
        line_shift_(ilog2_exact(config.hierarchy.l2.geometry.line_bytes)),
        memory_(config.timed, config.hierarchy.l2.geometry),
        cores_(config.cores.size()) {
    models_.reserve(config.cores.size());
    for (const CoreParams& p : config.cores) models_.emplace_back(p);
  }

  void price(const PriceRecord* records, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) price_one(records[i]);
  }

  void price_one(const PriceRecord& r) {
    switch (r.kind) {
      case PriceKind::kOp:
        on_op(r);
        break;
      case PriceKind::kOpenWindow:
        open_window();
        break;
      case PriceKind::kFreeze:
        freeze(r.core);
        break;
    }
  }

  /// `count` L1 hits of `core` in a row: what on_op adds for each, in order,
  /// with the clock held in a register.
  void l1_hits(std::uint32_t core, const OpRecord* ops, std::size_t count) {
    const CoreModel& model = models_[core];
    double cycles = cores_[core].cycles;
    for (std::size_t i = 0; i < count; ++i)
      cycles += model.gap_cycles(std::uint64_t{ops[i].gap_instrs} + 1);
    cores_[core].cycles = cycles;
  }

  /// Each core's measured-window timed cycles; the window statistics.
  void finish(SimResult& out) const {
    for (std::size_t i = 0; i < out.threads.size(); ++i)
      out.threads[i].cycles = cores_[i].frozen - cores_[i].base;
    out.timing = TimingMode::kTimed;
    out.timed = memory_.stats().delta_since(stats_base_);
  }

 private:
  struct Core {
    double cycles = 0.0;  ///< the timed clock (what this mode reports)
    double base = 0.0;    ///< the clock when the window opened
    double frozen = 0.0;  ///< the clock when the core reached its quota
    TimedMemory::Ticket outstanding{};
    bool has_outstanding = false;
  };

  void on_op(const PriceRecord& op) {
    // Same committed instructions as the functional clock, latency from the model.
    Core& tc = cores_[op.core];
    const double stall = config_.cores[op.core].stall_fraction;
    tc.cycles += models_[op.core].gap_cycles(std::uint64_t{op.gap_instrs} + 1);
    if (op.l1_hit) return;
    // One demand transaction in flight per core: the previous one must
    // retire before the next issues (L1 hits in between already proceeded).
    retire(op.core);
    const auto t_issue = static_cast<std::uint64_t>(tc.cycles);
    const cache::Addr line = op.addr >> line_shift_;
    if (op.l2_hit) {
      const auto tk = memory_.hit(t_issue, line, op.way, op.write);
      if (tk.valid) {
        // Fill still in flight: this "hit" waits on the fill, not the array.
        tc.outstanding = tk;
        tc.has_outstanding = true;
      } else {
        tc.cycles += static_cast<double>(config_.timed.l2_hit_cycles) * stall;
      }
    } else {
      tc.outstanding = memory_.miss(t_issue, line, op.way, op.write, op.evicted_valid,
                                    op.evicted_line);
      tc.has_outstanding = true;
    }
  }

  /// Settle every in-flight transaction so the measured window starts from
  /// a clean overlay, then restart peak tracking.
  void open_window() {
    for (std::uint32_t i = 0; i < cores_.size(); ++i) retire(i);
    memory_.mark();
    stats_base_ = memory_.stats();
    for (Core& tc : cores_) tc.base = tc.cycles;
  }

  void freeze(std::uint32_t core) {
    retire(core);  // the quota's last miss counts
    cores_[core].frozen = cores_[core].cycles;
  }

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
  std::vector<CoreModel> models_;  ///< per core, for gap_cycles only
  std::vector<Core> cores_;
  TimedStats stats_base_;  ///< overlay counters at window open
};

/// Timed pricing: the overlay, priced inline until a pricing worker starts,
/// then through the worker's ring.
class TimedPricing {
 public:
  static constexpr const char* kRunLabel = "timed run";

  TimedPricing(const SimConfig& config, const internal::Watchdog& watchdog)
      : overlay_(config), pipe_(overlay_, watchdog) {}

  void on_op(std::uint32_t core, const OpRecord& op, const cache::AccessOutcome& l2) {
    submit(PriceRecord{.addr = op.addr,
                       .evicted_line = l2.evicted_line,
                       .gap_instrs = op.gap_instrs,
                       .core = core,
                       .way = static_cast<std::uint8_t>(l2.way),
                       .kind = PriceKind::kOp,
                       .write = op.write,
                       .l1_hit = op.l1_hit,
                       .l2_hit = l2.hit,
                       .evicted_valid = l2.evicted_valid});
  }
  /// Folded L1 hits: one record per op for the worker, priced directly inline.
  void on_l1_hits(std::uint32_t core, const OpRecord* ops, std::size_t count) {
    if (!pipe_.worker_running()) {
      overlay_.l1_hits(core, ops, count);
      return;
    }
    for (std::size_t i = 0; i < count; ++i) on_op(core, ops[i], cache::AccessOutcome{});
  }
  void poll(std::uint64_t consumed, bool front_end_worker_running) {
    pipe_.maybe_start_worker(consumed, front_end_worker_running);
  }
  void open_window() { submit(marker(PriceKind::kOpenWindow, 0)); }
  void freeze(std::uint32_t core) { submit(marker(PriceKind::kFreeze, core)); }
  void finish(SimResult& out) {
    pipe_.drain();
    overlay_.finish(out);
  }

 private:
  static PriceRecord marker(PriceKind kind, std::uint32_t core) {
    PriceRecord r{};
    r.kind = kind;
    r.core = core;
    return r;
  }

  void submit(const PriceRecord& r) {
    if (pipe_.worker_running()) {
      pipe_.push(r);
    } else {
      overlay_.price_one(r);
    }
  }

  TimedOverlay overlay_;
  internal::PricingPipe pipe_;
};

/// Records the back end reads ahead of the merge per core (1 KiB).
constexpr std::uint32_t kLookahead = 64;
/// An instruction count no core reaches: no warmup or quota op ahead.
constexpr std::uint64_t kNever = ~std::uint64_t{0};

using Clock = CoreModel::Clock;

/// One core's records read ahead of the merge. buf[head, sig) are L1 hits
/// folded into `next`; buf[sig] is the core's next significant op. When
/// sig == len it is the op whose production threw: `error`, read ahead of
/// the merge. A set `error` may sit behind a significant op (a quota op
/// among hits that were folded before the windows opened); it is rethrown
/// only once the ops in front of it are taken.
struct Lookahead {
  std::array<OpRecord, kLookahead> buf;
  std::uint32_t head = 0;
  std::uint32_t sig = 0;
  std::uint32_t len = 0;  ///< records read into buf
  std::exception_ptr error;
  Clock at;    ///< the clock with every op before buf[head] committed
  Clock next;  ///< the clock at the start of buf[sig]
};

/// The replay loop: the back end of every run.
template <class Pricing>
SimResult replay(const SimConfig& config, std::vector<std::unique_ptr<TraceSource>>& traces,
                 MemoryHierarchy& hierarchy) {
  const std::uint32_t n = hierarchy.num_cores();
  std::vector<CoreModel> models;  ///< the charges; each core's clock is in `ahead`
  models.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) models.emplace_back(config.cores[i]);
  std::vector<Lookahead> ahead(n);
  std::vector<double> keys(n);  ///< each core's next.cycles: the merge's keys

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
  Pricing pricing(config, watchdog);
  internal::FrontEnd front(traces, hierarchy, config.faults.get(), watchdog);

  // Count and price `core`'s folded L1 hits buf[head, end); their clock adds
  // are already made. (An L1 hit never reaches the L2, so access_shared
  // ignores `now`.)
  auto commit_l1_hits = [&](std::uint32_t core, std::uint32_t end) {
    Lookahead& la = ahead[core];
    cache::AccessOutcome l2;
    for (std::uint32_t i = la.head; i < end; ++i)
      (void)hierarchy.access_shared(core, la.buf[i].addr, la.buf[i].write, true, 0, l2);
    pricing.on_l1_hits(core, &la.buf[la.head], end - la.head);
    la.head = end;
  };

  // Read `core`'s records from its head up to its next significant op: an
  // L2-reaching op, the op that reaches the warmup count (windows closed) or
  // the quota (windows open), the op whose production threw, or the last
  // slot of the lookahead. The L1 hits before it are folded into `next`.
  auto scan = [&](std::uint32_t core) {
    Lookahead& la = ahead[core];
    const CoreModel& cost = models[core];
    const std::uint64_t target =
        !windows_open ? (warmed[core] != 0 ? kNever : config.warmup_instr)
                      : (frozen[core] != 0 ? kNever
                                           : baselines[core].instructions + config.instr_limit);
    Clock clock = la.at;
    std::uint32_t i = la.head;
    for (;; ++i) {
      if (i == la.len) {
        if (la.error) break;
        try {
          la.buf[i] = front.next(core);
        } catch (...) {
          la.error = std::current_exception();  // rethrown only if the merge gets here
          break;
        }
        ++la.len;
      }
      const OpRecord& op = la.buf[i];
      if (!op.l1_hit || clock.instructions + op.gap_instrs + 1 >= target ||
          i + 1 == kLookahead)
        break;
      cost.commit_gap(clock, op.gap_instrs);
      cost.commit_mem(clock, AccessLevel::kL1);
    }
    la.sig = i;
    la.next = clock;
    keys[core] = clock.cycles;
  };

  // Commit every other core's folded L1 hits that start before (`start`,
  // `core`) in the merge order, so all cores stand where a one-op-at-a-time
  // replay stands at that op. Needed where one op reads every core's state.
  auto settle_others = [&](std::uint32_t core, double start) {
    for (std::uint32_t d = 0; d < n; ++d) {
      if (d == core) continue;
      Lookahead& la = ahead[d];
      const CoreModel& cost = models[d];
      std::uint32_t end = la.head;
      for (; end < la.sig; ++end) {
        if (la.at.cycles > start || (la.at.cycles == start && d > core)) break;
        cost.commit_gap(la.at, la.buf[end].gap_instrs);
        cost.commit_mem(la.at, AccessLevel::kL1);
      }
      commit_l1_hits(d, end);
    }
  };

  for (std::uint32_t i = 0; i < n; ++i) scan(i);
  while (remaining > 0) {
    // Advance the core whose next significant op starts first, lowest index
    // on ties (finished cores keep running to preserve contention, with
    // frozen statistics). Each core's start clocks only grow, so this merge
    // takes the significant ops in the order a merge of all ops would, and
    // the L2 sees the same access stream. Branch-free over the keys.
    std::uint32_t core = 0;
    double min_cycles = keys[0];
    for (std::uint32_t i = 1; i < n; ++i) {
      const bool earlier = keys[i] < min_cycles;
      min_cycles = earlier ? keys[i] : min_cycles;
      core = earlier ? i : core;
    }

    Lookahead& la = ahead[core];
    const std::uint64_t before = ops;
    ops += la.sig - la.head + 1;
    if ((ops >> 12) != (before >> 12)) {
      if (has_deadline) watchdog.check();
      pricing.poll(ops, front.worker_running());
    }
    commit_l1_hits(core, la.sig);
    if (la.sig == la.len) {  // the op whose production threw
      settle_others(core, min_cycles);
      std::rethrow_exception(la.error);
    }
    const OpRecord& op = la.buf[la.sig];
    const CoreModel& cost = models[core];
    Clock& clock = la.at;
    clock = la.next;
    cost.commit_gap(clock, op.gap_instrs);
    const auto now = static_cast<std::uint64_t>(clock.cycles);
    cache::AccessOutcome l2;
    cost.commit_mem(clock, hierarchy.access_shared(core, op.addr, op.write, op.l1_hit, now, l2));
    pricing.on_op(core, op, l2);
    la.head = la.sig + 1;  // records past it remain when a window opened in its run
    if (la.head == la.len) la.head = la.len = 0;

    if (!windows_open) {
      // Windows open for everyone at once, when the slowest core has warmed:
      // at the op that brings the last core to warmup_instr.
      if (warmed[core] == 0 && clock.instructions >= config.warmup_instr) {
        warmed[core] = 1;
        ++warmed_cores;
      }
      if (warmed_cores == n) {
        windows_open = true;
        settle_others(core, min_cycles);
        pricing.open_window();
        for (std::uint32_t i = 0; i < n; ++i) {
          baselines[i].instructions = ahead[i].at.instructions;
          baselines[i].cycles = ahead[i].at.cycles;
          baselines[i].mem = hierarchy.counters(i);
        }
        for (std::uint32_t i = 0; i < n; ++i) {
          if (i != core) scan(i);  // re-fold what is left under the quota rule
        }
      }
      scan(core);
      continue;
    }

    if (frozen[core] == 0 &&
        clock.instructions >= baselines[core].instructions + config.instr_limit) {
      frozen[core] = 1;
      --remaining;
      pricing.freeze(core);
      const Baseline& base = baselines[core];
      ThreadResult& r = results[core];
      r.benchmark = names[core];
      r.instructions = clock.instructions - base.instructions;
      r.cycles = clock.cycles - base.cycles;
      const HierarchyCounters& now_mem = hierarchy.counters(core);
      r.mem.l1_accesses = now_mem.l1_accesses - base.mem.l1_accesses;
      r.mem.l1_misses = now_mem.l1_misses - base.mem.l1_misses;
      r.mem.l2_accesses = now_mem.l2_accesses - base.mem.l2_accesses;
      r.mem.l2_misses = now_mem.l2_misses - base.mem.l2_misses;
      if (remaining == 0) {
        settle_others(core, min_cycles);  // the run ends here for every core
        break;
      }
    }
    scan(core);
  }

  SimResult out;
  out.threads = std::move(results);
  pricing.finish(out);  // timed: the overlay's clocks replace the functional ones
  for (auto& t : out.threads) {
    t.ipc = t.cycles > 0.0 ? static_cast<double>(t.instructions) / t.cycles : 0.0;
    out.wall_cycles = std::max(out.wall_cycles, t.cycles);
  }
  for (std::uint32_t i = 0; i < n; ++i)
    out.simulated_accesses += hierarchy.counters(i).l1_accesses;
  const auto* ctrl = hierarchy.l2().controller();
  out.repartitions = ctrl ? ctrl->history().size() : 0;
  out.l2_config = hierarchy.l2().config().acronym();
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

  if (config_.timing_mode == TimingMode::kTimed)
    return replay<TimedPricing>(config_, traces_, *hierarchy_);
  return replay<FixedLatency>(config_, traces_, *hierarchy_);
}

}  // namespace plrupart::sim
