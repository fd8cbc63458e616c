// perfbench_probe: the benchmark's own instrument over plrupart's public API.
//
//   perfbench_probe info
//       One JSON object: library version, active dispatch tier, whether
//       PLRUPART_FORCE_DISPATCH is set, compiler, build type, and the sweep
//       CSV header of each timing mode (the header the CLI must write).
//
//   perfbench_probe record --seed N --ops N --dir D --benchmarks a,b,... [--spans]
//       Record one binary v2 trace per benchmark (core i gets benchmark i)
//       from the synthetic generator. Prints one JSON object with the largest
//       recorded gap and, with --spans, the generator's span totals.
//
//   perfbench_probe layers <matrix flags> --threads T [--journal DIR] --out PREFIX
//       Runs every job of the matrix twice over a T-thread job pool:
//         1. untraced, through CmpSimulator::run() exactly as runner::execute
//            builds it, timing construction, run and output (CSV rows plus a
//            journal record) per job: the runner layer and the untraced wall;
//         2. traced, through a replay of the simulator's loop made of public
//            calls (MemoryHierarchy::l1d_mut(), l2(), CoreModel, TimedMemory)
//            with spans around each layer's call.
//       Writes PREFIX.run.csv and PREFIX.replay.csv (the caller compares both
//       with the CLI's CSV, so the spans never describe a different program)
//       and prints the per-layer metrics as one JSON object.
//
// Matrix flags mirror the CLI: --workload IDS | --trace FILES, --configs,
// --l2-kb-sweep, --instr, --warmup, --interval, --seed, --timing.
//
// Spans are sampled: one memory operation in kSampleOneIn is timed end to end
// (trace source, L1, L2, timed overlay), and each layer's time is its sampled
// mean times its exact call count. Each span subtracts the calibrated cost of
// one clock read. Controller ticks are rare and expensive, so every L2 access
// that can tick (its time stamp reached the next interval boundary) is timed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "plrupart/cache/dispatch.hpp"
#include "plrupart/core/partitioned_cache.hpp"
#include "plrupart/runner/journal.hpp"
#include "plrupart/runner/run_spec.hpp"
#include "plrupart/runner/sweep_executor.hpp"
#include "plrupart/sim/cmp_simulator.hpp"
#include "plrupart/sim/trace_file.hpp"
#include "plrupart/version.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"
#include "plrupart/workloads/trace_workload.hpp"
#include "plrupart/workloads/workload_table.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace plrupart;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSampleOneIn = 64;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// ---------------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) throw std::runtime_error("unexpected argument " + key);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }
  [[nodiscard]] bool has(const std::string& k) const { return values_.count(k) != 0; }
  [[nodiscard]] std::string str(const std::string& k) const {
    const auto it = values_.find(k);
    if (it == values_.end()) throw std::runtime_error("missing flag " + k);
    return it->second;
  }
  [[nodiscard]] std::uint64_t u64(const std::string& k) const {
    return std::stoull(str(k));
  }

 private:
  std::map<std::string, std::string> values_;
};

std::vector<std::string> split(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  for (std::string item; std::getline(ss, item, ',');)
    if (!item.empty()) out.push_back(item);
  return out;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// One JSON object of numbers, in insertion order.
class JsonNumbers {
 public:
  void add(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    body_ += (body_.empty() ? "" : ", ") + json_str(key) + ": " + buf;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Span ledger
// ---------------------------------------------------------------------------

/// Cost of one steady_clock read, subtracted from every span: the cheapest of
/// a few batches, so a preempted batch does not inflate it.
double calibrate_clock_ns() {
  constexpr int kBatches = 8;
  constexpr int kReads = 20000;
  double best = std::numeric_limits<double>::infinity();
  for (int b = 0; b < kBatches; ++b) {
    const auto start = Clock::now();
    Clock::time_point last = start;
    for (int i = 0; i < kReads; ++i) last = Clock::now();
    best = std::min(best, ns_between(start, last) / kReads);
  }
  return best;
}

struct Span {
  std::uint64_t calls = 0;    ///< every call into the layer
  std::uint64_t sampled = 0;  ///< calls that were timed
  double ns = 0.0;            ///< summed time of the timed calls

  void add(double span_ns) {
    ++sampled;
    ns += span_ns;
  }
  [[nodiscard]] double mean_ns() const { return sampled ? ns / static_cast<double>(sampled) : 0.0; }
  [[nodiscard]] double total_ns() const { return mean_ns() * static_cast<double>(calls); }
  void merge(const Span& o) {
    calls += o.calls;
    sampled += o.sampled;
    ns += o.ns;
  }
};

/// Chained timestamps over one sampled op: the time between two consecutive
/// laps, less one clock read, belongs to exactly one span.
class Stopwatch {
 public:
  explicit Stopwatch(double clock_ns) : clock_ns_(clock_ns) {}
  void start() { mark_ = Clock::now(); }
  double lap() {
    const auto t = Clock::now();
    const double d = ns_between(mark_, t) - clock_ns_;
    mark_ = t;
    return std::max(0.0, d);
  }
  /// One self-contained span, for calls timed outside a sampled op.
  [[nodiscard]] double since(Clock::time_point t0) const {
    return std::max(0.0, ns_between(t0, Clock::now()) - clock_ns_);
  }

 private:
  double clock_ns_;
  Clock::time_point mark_{};
};

struct Ledger {
  Span driver;      ///< the replay loop's own work, per op
  Span generator;   ///< SyntheticTrace::next
  Span trace_file;  ///< FileTraceSource::next
  Span l1;          ///< private L1 SetAssocCache::access
  Span l2;          ///< PartitionedCacheSystem::access that did not tick
  Span overlay;     ///< TimedMemory calls of one L2-reaching op
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t ticks = 0;
  std::uint64_t ticks_changed = 0;
  double tick_access_ns = 0.0;  ///< summed time of the accesses that ticked
  std::uint64_t wraps = 0;
  double replay_ns = 0.0;            ///< wall time of the replay loops
  std::uint64_t timed_calls = 0;     ///< miss + hit + retire
  std::uint64_t timed_requests = 0;  ///< miss + hit
  sim::TimedStats timed;             ///< whole-run overlay counters

  void merge(const Ledger& o) {
    driver.merge(o.driver);
    generator.merge(o.generator);
    trace_file.merge(o.trace_file);
    l1.merge(o.l1);
    l2.merge(o.l2);
    overlay.merge(o.overlay);
    l1_hits += o.l1_hits;
    l2_hits += o.l2_hits;
    ticks += o.ticks;
    ticks_changed += o.ticks_changed;
    tick_access_ns += o.tick_access_ns;
    wraps += o.wraps;
    replay_ns += o.replay_ns;
    timed_calls += o.timed_calls;
    timed_requests += o.timed_requests;
    add_timed(o.timed);
  }
  void add_timed(const sim::TimedStats& t) {
    timed.mshr_coalesced += t.mshr_coalesced;
    timed.mshr_full_stalls += t.mshr_full_stalls;
    timed.row_hits += t.row_hits;
    timed.row_misses += t.row_misses;
    timed.bank_conflicts += t.bank_conflicts;
  }
};

/// xorshift64: picks the sampled ops without aliasing the core interleave.
class Sampler {
 public:
  bool next() noexcept {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_ % kSampleOneIn == 0;
  }

 private:
  std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
};

// ---------------------------------------------------------------------------
// Job inputs: the exact configuration runner::execute builds
// ---------------------------------------------------------------------------

struct JobInputs {
  sim::SimConfig cfg;
  std::vector<std::unique_ptr<sim::TraceSource>> traces;
  std::vector<const sim::FileTraceSource*> files;  ///< non-owning, for wrap counts
};

JobInputs make_inputs(const runner::RunSpec& spec) {
  JobInputs in;
  sim::SimConfig& cfg = in.cfg;
  cfg.hierarchy.l1d = spec.l1d;
  cfg.hierarchy.l2 = core::CpaConfig::from_acronym(spec.config, spec.workload.threads(), spec.l2);
  cfg.hierarchy.l2.interval_cycles = spec.interval_cycles;
  cfg.hierarchy.l2.sampling_ratio = spec.sampling_ratio;
  cfg.hierarchy.l2.seed = spec.seed;
  cfg.instr_limit = spec.instr;
  cfg.warmup_instr = spec.warmup;
  cfg.sim_threads = spec.sim_threads;
  cfg.timing_mode = spec.timing;
  for (std::uint32_t core = 0; core < spec.workload.threads(); ++core) {
    if (spec.workload.trace_backed()) {
      cfg.cores.push_back(workloads::trace_core_params());
      auto src = std::make_unique<sim::FileTraceSource>(spec.workload.traces[core]);
      in.files.push_back(src.get());
      in.traces.push_back(std::move(src));
    } else {
      const auto& profile = workloads::benchmark(spec.workload.benchmarks[core]);
      cfg.cores.push_back(profile.core);
      in.traces.push_back(workloads::make_trace(profile, core, spec.seed));
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// Traced replay: CmpSimulator's serial and timed loops, rebuilt from public
// calls with a span around each layer. The decision logic (argmin interleave,
// aligned warmup windows, freeze at quota, timed overlay with one transaction
// in flight per core) follows the library loop line by line; the CSV
// cross-check in run.py proves it.
// ---------------------------------------------------------------------------

sim::SimResult traced_replay(const runner::RunSpec& spec, Ledger& led, double clock_ns) {
  JobInputs in = make_inputs(spec);
  const sim::SimConfig& cfg = in.cfg;
  sim::MemoryHierarchy h(cfg.hierarchy);
  const std::uint32_t n = h.num_cores();
  const bool timed = cfg.timing_mode == sim::TimingMode::kTimed;
  const cache::Geometry& l2geo = cfg.hierarchy.l2.geometry;
  const core::IntervalController* ctrl = h.l2().controller();
  std::uint64_t next_boundary = cfg.hierarchy.l2.interval_cycles;

  std::vector<sim::CoreModel> models;
  models.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) models.emplace_back(cfg.cores[i]);
  std::vector<sim::HierarchyCounters> ctr(n);

  std::optional<sim::TimedMemory> memory;
  if (timed) memory.emplace(cfg.timed, l2geo);
  struct TimedCore {
    double cycles = 0.0;
    sim::TimedMemory::Ticket outstanding{};
    bool has_outstanding = false;
  };
  std::vector<TimedCore> tcores(n);
  auto charge_retire = [&](std::uint32_t core) {
    TimedCore& tc = tcores[core];
    if (!tc.has_outstanding) return;
    ++led.timed_calls;
    const auto done = static_cast<double>(memory->retire(tc.outstanding));
    tc.has_outstanding = false;
    if (done > tc.cycles) tc.cycles += (done - tc.cycles) * cfg.cores[core].stall_fraction;
  };

  struct Baseline {
    std::uint64_t instructions = 0;
    double cycles = 0.0;
    sim::HierarchyCounters mem;
  };
  std::vector<Baseline> baselines(n);
  bool windows_open = cfg.warmup_instr == 0;
  sim::TimedStats stats_base;
  std::vector<bool> frozen(n, false);
  std::vector<sim::ThreadResult> results(n);
  std::uint32_t remaining = n;
  Sampler sampler;
  Stopwatch sw(clock_ns);
  Span& source = in.files.empty() ? led.generator : led.trace_file;

  const auto start = Clock::now();
  while (remaining > 0) {
    const bool sample = sampler.next();
    if (sample) sw.start();
    std::uint32_t core = 0;
    double min_cycles = std::numeric_limits<double>::infinity();
    for (std::uint32_t i = 0; i < n; ++i) {
      if (models[i].cycles() < min_cycles) {
        min_cycles = models[i].cycles();
        core = i;
      }
    }
    ++led.driver.calls;
    ++source.calls;
    if (sample) led.driver.ns += sw.lap();

    const sim::MemOp op = in.traces[core]->next();
    if (sample) source.add(sw.lap());

    models[core].commit_gap(op.gap_instrs);
    const auto now = static_cast<std::uint64_t>(models[core].cycles());
    sim::HierarchyCounters& c = ctr[core];
    ++c.l1_accesses;
    ++led.l1.calls;
    if (sample) led.driver.ns += sw.lap();

    const cache::AccessOutcome l1 = h.l1d_mut(core).access(0, op.addr, op.write);
    if (sample) led.l1.add(sw.lap());

    sim::AccessLevel level = sim::AccessLevel::kL1;
    cache::AccessOutcome l2{};
    if (l1.hit) {
      ++led.l1_hits;
    } else {
      ++c.l1_misses;
      ++c.l2_accesses;
      ++led.l2.calls;
      // The controller ticks inside an access whose stamp reached the next
      // interval boundary; time every such access, sampled or not.
      const bool tick_due = ctrl != nullptr && now >= next_boundary;
      const std::size_t history_before = ctrl ? ctrl->history().size() : 0;
      const core::Partition before = tick_due ? ctrl->current() : core::Partition{};
      if (sample) led.driver.ns += sw.lap();
      const auto t0 = (tick_due && !sample) ? Clock::now() : Clock::time_point{};
      l2 = h.l2().access(core, op.addr, op.write, now);
      const double l2_ns = sample ? sw.lap() : tick_due ? sw.since(t0) : 0.0;
      if (ctrl != nullptr && ctrl->history().size() != history_before) {
        if (!tick_due) throw std::runtime_error("controller ticked off the interval grid");
        ++led.ticks;
        if (ctrl->current() != before) ++led.ticks_changed;
        led.tick_access_ns += l2_ns;
        while (next_boundary <= now) next_boundary += cfg.hierarchy.l2.interval_cycles;
      } else if (sample) {
        led.l2.add(l2_ns);
      }
      if (l2.hit) {
        ++led.l2_hits;
        level = sim::AccessLevel::kL2;
      } else {
        ++c.l2_misses;
        level = sim::AccessLevel::kMemory;
      }
    }
    models[core].commit_mem(level);

    if (timed) {
      TimedCore& tc = tcores[core];
      const sim::CoreParams& cp = cfg.cores[core];
      tc.cycles += (static_cast<double>(op.gap_instrs) + 1.0) / cp.base_ipc;
      if (!l1.hit) {
        ++led.overlay.calls;
        ++led.timed_requests;
        ++led.timed_calls;
        if (sample) led.driver.ns += sw.lap();
        charge_retire(core);
        const auto t_issue = static_cast<std::uint64_t>(tc.cycles);
        const cache::Addr line = l2geo.line_addr(op.addr);
        if (l2.hit) {
          const auto tk = memory->hit(t_issue, line, l2.way, op.write);
          if (tk.valid) {
            tc.outstanding = tk;
            tc.has_outstanding = true;
          } else {
            tc.cycles += static_cast<double>(cfg.timed.l2_hit_cycles) * cp.stall_fraction;
          }
        } else {
          tc.outstanding =
              memory->miss(t_issue, line, l2.way, op.write, l2.evicted_valid, l2.evicted_line);
          tc.has_outstanding = true;
        }
        if (sample) led.overlay.add(sw.lap());
      }
    }

    if (!windows_open) {
      std::uint64_t min_instr = models[0].instructions();
      for (std::uint32_t i = 1; i < n; ++i) min_instr = std::min(min_instr, models[i].instructions());
      if (min_instr >= cfg.warmup_instr) {
        windows_open = true;
        if (timed) {
          for (std::uint32_t i = 0; i < n; ++i) charge_retire(i);
        }
        for (std::uint32_t i = 0; i < n; ++i) {
          baselines[i].instructions = models[i].instructions();
          baselines[i].cycles = timed ? tcores[i].cycles : models[i].cycles();
          baselines[i].mem = ctr[i];
        }
        if (timed) {
          memory->mark();
          stats_base = memory->stats();
        }
      }
    } else if (!frozen[core] &&
               models[core].instructions() >= baselines[core].instructions + cfg.instr_limit) {
      frozen[core] = true;
      --remaining;
      if (timed) charge_retire(core);
      const Baseline& base = baselines[core];
      sim::ThreadResult& r = results[core];
      r.benchmark = in.traces[core]->name();
      r.instructions = models[core].instructions() - base.instructions;
      r.cycles = (timed ? tcores[core].cycles : models[core].cycles()) - base.cycles;
      r.ipc = r.cycles > 0.0 ? static_cast<double>(r.instructions) / r.cycles : 0.0;
      r.mem.l1_accesses = ctr[core].l1_accesses - base.mem.l1_accesses;
      r.mem.l1_misses = ctr[core].l1_misses - base.mem.l1_misses;
      r.mem.l2_accesses = ctr[core].l2_accesses - base.mem.l2_accesses;
      r.mem.l2_misses = ctr[core].l2_misses - base.mem.l2_misses;
    }
    if (sample) {
      led.driver.ns += sw.lap();
      ++led.driver.sampled;
    }
  }
  led.replay_ns += ns_between(start, Clock::now());

  sim::SimResult out;
  out.threads = std::move(results);
  for (const auto& t : out.threads) out.wall_cycles = std::max(out.wall_cycles, t.cycles);
  out.repartitions = ctrl ? ctrl->history().size() : 0;
  out.l2_config = h.l2().config().acronym();
  if (timed) {
    out.timing = sim::TimingMode::kTimed;
    out.timed = memory->stats().delta_since(stats_base);
    led.add_timed(memory->stats());
  }
  for (const auto* f : in.files) led.wraps += f->loops_completed();
  return out;
}

// ---------------------------------------------------------------------------
// Job pool
// ---------------------------------------------------------------------------

/// Run fn(job, worker) for every job on `threads` workers pulling from one
/// shared counter (the runner's dynamic schedule). Returns the pool's wall ns.
template <typename Fn>
double run_pool(std::size_t jobs, std::size_t threads, Fn fn) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto start = Clock::now();
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      try {
        for (std::size_t i; (i = next.fetch_add(1)) < jobs;) fn(i, w);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        next.store(jobs);
      }
    });
  }
  for (auto& t : workers) t.join();
  if (error) std::rethrow_exception(error);
  return ns_between(start, Clock::now());
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void write_csv_file(const std::string& path, const std::vector<runner::JobResult>& results) {
  std::ofstream out(path, std::ios::binary);
  runner::write_csv(out, results);
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

runner::RunMatrix parse_matrix(const Args& a) {
  runner::RunMatrix m;
  m.configs = split(a.str("--configs"));
  m.l2_kb.clear();
  for (const auto& kb : split(a.str("--l2-kb-sweep"))) m.l2_kb.push_back(std::stoull(kb));
  m.l1d = cache::Geometry{.size_bytes = 32 * 1024, .associativity = 2, .line_bytes = m.line};
  m.instr = a.u64("--instr");
  m.warmup = a.u64("--warmup");
  m.interval_cycles = a.u64("--interval");
  m.seed = a.u64("--seed");
  m.timing = sim::timing_mode_from_string(a.str("--timing"));
  if (a.has("--trace")) {
    m.workloads.push_back(workloads::workload_from_traces(split(a.str("--trace"))));
  } else {
    for (const auto& id : split(a.str("--workload"))) {
      const auto& all = workloads::all_workloads();
      const auto it = std::find_if(all.begin(), all.end(),
                                   [&](const workloads::Workload& w) { return w.id == id; });
      if (it == all.end()) throw std::runtime_error("unknown workload " + id);
      m.workloads.push_back(*it);
    }
  }
  return m;
}

int cmd_layers(const Args& a) {
  const runner::RunMatrix matrix = parse_matrix(a);
  const std::vector<runner::RunSpec> jobs = matrix.expand();
  const std::size_t threads = std::max<std::uint64_t>(1, a.u64("--threads"));
  const std::string out = a.str("--out");
  const double clock_ns = calibrate_clock_ns();

  // Phase 1: untraced jobs through the library's simulator, plus output.
  std::unique_ptr<runner::RunJournal> journal;
  if (a.has("--journal")) journal = std::make_unique<runner::RunJournal>(a.str("--journal"), jobs, false);
  std::vector<runner::JobResult> run_results(jobs.size());
  std::vector<double> job_ms(jobs.size()), setup_ms(jobs.size()), sim_ms(jobs.size()),
      output_ms(jobs.size());
  const double pool_ns = run_pool(jobs.size(), threads, [&](std::size_t i, std::size_t) {
    const auto t0 = Clock::now();
    JobInputs in = make_inputs(jobs[i]);
    sim::CmpSimulator simulator(std::move(in.cfg), std::move(in.traces));
    const auto t1 = Clock::now();
    runner::JobResult jr{jobs[i], simulator.run()};
    const auto t2 = Clock::now();
    const std::string rows = runner::sweep_csv_rows(jr);
    if (journal) journal->record(i, rows);
    const auto t3 = Clock::now();
    setup_ms[i] = ns_between(t0, t1) / 1e6;
    sim_ms[i] = ns_between(t1, t2) / 1e6;
    output_ms[i] = ns_between(t2, t3) / 1e6;
    job_ms[i] = ns_between(t0, t3) / 1e6;
    run_results[i] = std::move(jr);
  });
  write_csv_file(out + ".run.csv", run_results);

  // Phase 2: the traced replay of every job, same pool width.
  std::vector<Ledger> ledgers(threads);
  std::vector<runner::JobResult> replay_results(jobs.size());
  run_pool(jobs.size(), threads, [&](std::size_t i, std::size_t w) {
    replay_results[i] = runner::JobResult{jobs[i], traced_replay(jobs[i], ledgers[w], clock_ns)};
  });
  write_csv_file(out + ".replay.csv", replay_results);
  Ledger led;
  for (const auto& l : ledgers) led.merge(l);

  double busy_ms = 0.0;
  double untraced_ns = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    busy_ms += job_ms[i];
    untraced_ns += sim_ms[i] * 1e6;
  }

  // Layer times from the sampled spans; shares are of their sum, the replay
  // time left once the clock reads are taken out.
  const double driver_ns = led.driver.total_ns();
  const double gen_ns = led.generator.total_ns();
  const double file_ns = led.trace_file.total_ns();
  const double l1_ns = led.l1.total_ns();
  const double l2_ns = led.l2.total_ns();
  const double ns_per_tick =
      led.ticks ? std::max(0.0, led.tick_access_ns / static_cast<double>(led.ticks) - led.l2.mean_ns())
                : 0.0;
  const double ctrl_ns = ns_per_tick * static_cast<double>(led.ticks);
  const double timed_ns = led.overlay.total_ns();
  const double total = driver_ns + gen_ns + file_ns + l1_ns + l2_ns + ctrl_ns + timed_ns;
  auto share = [&](double ns) { return total > 0.0 ? ns / total : 0.0; };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  JsonNumbers j;
  j.add("workloads.next.calls", static_cast<double>(led.generator.calls));
  j.add("workloads.next.ns", gen_ns);
  j.add("workloads.share", share(gen_ns));
  j.add("trace_file.next.calls", static_cast<double>(led.trace_file.calls));
  j.add("trace_file.next.ns", file_ns);
  j.add("trace_file.share", share(file_ns));
  j.add("trace_file.wraps", static_cast<double>(led.wraps));
  j.add("sim.driver.self_ns_per_op", led.driver.mean_ns());
  j.add("sim.driver.share", share(driver_ns));
  j.add("cache.l1.accesses", static_cast<double>(led.l1.calls));
  j.add("cache.l1.hit_ratio", ratio(static_cast<double>(led.l1_hits), static_cast<double>(led.l1.calls)));
  j.add("cache.l1.ns", l1_ns);
  j.add("cache.l1.share", share(l1_ns));
  j.add("core.l2.accesses", static_cast<double>(led.l2.calls));
  j.add("core.l2.hit_ratio", ratio(static_cast<double>(led.l2_hits), static_cast<double>(led.l2.calls)));
  j.add("core.l2.ns", l2_ns);
  j.add("core.l2.share", share(l2_ns));
  j.add("core.controller.ticks", static_cast<double>(led.ticks));
  j.add("core.controller.changed_ratio",
        ratio(static_cast<double>(led.ticks_changed), static_cast<double>(led.ticks)));
  j.add("core.controller.ns_per_tick", ns_per_tick);
  j.add("core.controller.share", share(ctrl_ns));
  const double row_services = static_cast<double>(led.timed.row_hits + led.timed.row_misses +
                                                  led.timed.bank_conflicts);
  j.add("timed.calls", static_cast<double>(led.timed_calls));
  j.add("timed.ns", timed_ns);
  j.add("timed.share", share(timed_ns));
  j.add("timed.coalesced_ratio", ratio(static_cast<double>(led.timed.mshr_coalesced),
                                       static_cast<double>(led.timed_requests)));
  j.add("timed.row_hit_ratio", ratio(static_cast<double>(led.timed.row_hits), row_services));
  j.add("timed.mshr_full_stalls", static_cast<double>(led.timed.mshr_full_stalls));
  j.add("runner.job_ms.p50", percentile(job_ms, 0.5));
  j.add("runner.job_ms.p90", percentile(job_ms, 0.9));
  j.add("runner.setup_ms", mean(setup_ms));
  j.add("runner.output_ms", mean(output_ms));
  j.add("runner.pool_idle_share",
        std::max(0.0, 1.0 - busy_ms * 1e6 / (static_cast<double>(threads) * pool_ns)));
  j.add("trace.overhead_ratio", ratio(led.replay_ns, untraced_ns));
  std::printf("%s\n", j.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// record / info
// ---------------------------------------------------------------------------

int cmd_record(const Args& a) {
  const auto benchmarks = split(a.str("--benchmarks"));
  const std::uint64_t seed = a.u64("--seed");
  const std::uint64_t ops = a.u64("--ops");
  const std::filesystem::path dir = a.str("--dir");
  const bool spans = a.has("--spans");
  const double clock_ns = spans ? calibrate_clock_ns() : 0.0;
  std::filesystem::create_directories(dir);

  const auto start = Clock::now();
  Span gen;
  Sampler sampler;
  std::uint32_t max_gap = 0;
  for (std::size_t core = 0; core < benchmarks.size(); ++core) {
    auto src = workloads::make_trace(workloads::benchmark(benchmarks[core]),
                                     static_cast<std::uint32_t>(core), seed);
    sim::TraceWriter writer((dir / (benchmarks[core] + ".trace")).string(),
                            sim::TraceFormat::kBinaryV2);
    for (std::uint64_t k = 0; k < ops; ++k) {
      const bool sample = spans && sampler.next();
      ++gen.calls;
      const auto t0 = sample ? Clock::now() : Clock::time_point{};
      const sim::MemOp op = src->next();
      if (sample) gen.add(std::max(0.0, ns_between(t0, Clock::now()) - clock_ns));
      max_gap = std::max(max_gap, op.gap_instrs);
      writer.append(op);
    }
    writer.close();
  }
  const double total = ns_between(start, Clock::now());
  JsonNumbers j;
  j.add("max_gap", max_gap);
  if (spans) {
    j.add("workloads.next.calls", static_cast<double>(gen.calls));
    j.add("workloads.next.ns", gen.total_ns());
    j.add("workloads.share", total > 0.0 ? gen.total_ns() / total : 0.0);
  }
  std::printf("%s\n", j.str().c_str());
  return 0;
}

std::string joined_header(sim::TimingMode mode) {
  std::string line;
  for (const auto& col : runner::sweep_csv_header(mode)) line += (line.empty() ? "" : ",") + col;
  return line;
}

int cmd_info() {
  const char* forced = std::getenv("PLRUPART_FORCE_DISPATCH");
  std::printf(
      "{\"version\": %s, \"dispatch_tier\": %s, \"force_dispatch\": %s, \"compiler\": %s, "
      "\"build_type\": %s, \"header_functional\": %s, \"header_timed\": %s}\n",
      json_str(kVersionString).c_str(),
      json_str(cache::to_string(cache::active_dispatch_tier())).c_str(),
      forced ? json_str(forced).c_str() : "null",
#if defined(__clang__)
      json_str(std::string("clang ") + __clang_version__).c_str(),
#elif defined(__GNUC__)
      json_str(std::string("gcc ") + __VERSION__).c_str(),
#else
      json_str("unknown").c_str(),
#endif
      json_str(PERFBENCH_BUILD_TYPE).c_str(),
      json_str(joined_header(sim::TimingMode::kFunctional)).c_str(),
      json_str(joined_header(sim::TimingMode::kTimed)).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    const Args args(argc, argv, 2);
    if (cmd == "info") return cmd_info();
    if (cmd == "record") return cmd_record(args);
    if (cmd == "layers") return cmd_layers(args);
    std::fprintf(stderr, "usage: perfbench_probe info | record ... | layers ...\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
    return 1;
  }
}
