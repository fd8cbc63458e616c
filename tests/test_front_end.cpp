// The simulator's per-core front end: the inline path and the worker-thread
// path must be indistinguishable from outside. Same SimResult for short and
// long runs in both timing modes; trace errors and injected `worker` faults
// surface on the replay thread at exactly the op where a one-op-at-a-time
// replay would raise them, and not at all when the run ends first; the
// watchdog fires while the replay waits on the worker. Runs the worker path
// under the TSan tier.
#include "sim/front_end.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "plrupart/common/error.hpp"
#include "plrupart/common/fault_inject.hpp"
#include "plrupart/runner/run_spec.hpp"
#include "plrupart/runner/sweep_executor.hpp"
#include "plrupart/sim/cmp_simulator.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"
#include "plrupart/workloads/workload_table.hpp"

namespace plrupart::sim {
namespace {

using internal::FrontEndMode;

/// Forces one front-end path for the scope of a test.
class ScopedMode {
 public:
  explicit ScopedMode(FrontEndMode m) { internal::set_front_end_mode(m); }
  ~ScopedMode() { internal::set_front_end_mode(FrontEndMode::kAuto); }
  ScopedMode(const ScopedMode&) = delete;
  ScopedMode& operator=(const ScopedMode&) = delete;
};

const std::vector<std::string> kMix{"twolf", "art", "mcf", "gzip"};

SimConfig config_for(const std::vector<std::string>& names, const std::string& acronym,
                     TimingMode mode, std::uint64_t instr, std::uint64_t warmup) {
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
  for (const auto& name : names) cfg.cores.push_back(workloads::benchmark(name).core);
  return cfg;
}

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

/// Sleeps in every next() call after the first `fast_ops`.
class SlowSource final : public TraceSource {
 public:
  SlowSource(std::unique_ptr<TraceSource> inner, std::uint64_t fast_ops)
      : inner_(std::move(inner)), fast_ops_(fast_ops) {}
  MemOp next() override {
    if (calls_++ >= fast_ops_) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return inner_->next();
  }
  void reset() override {
    inner_->reset();
    calls_ = 0;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<TraceSource> inner_;
  std::uint64_t fast_ops_;
  std::uint64_t calls_ = 0;
};

std::vector<std::unique_ptr<TraceSource>> traces_for(const std::vector<std::string>& names,
                                                     std::uint64_t seed = 7) {
  std::vector<std::unique_ptr<TraceSource>> traces;
  for (std::uint32_t i = 0; i < names.size(); ++i)
    traces.push_back(workloads::make_trace(workloads::benchmark(names[i]), i, seed));
  return traces;
}

struct Outcome {
  SimResult result;
  std::vector<HierarchyCounters> counters;  ///< per core, when the run ended
  std::string error;                        ///< what() of the escaping exception
};

Outcome run(FrontEndMode mode, SimConfig cfg, std::vector<std::unique_ptr<TraceSource>> traces) {
  const ScopedMode scoped(mode);
  const std::uint32_t n = static_cast<std::uint32_t>(traces.size());
  CmpSimulator sim(std::move(cfg), std::move(traces));
  Outcome out;
  try {
    out.result = sim.run();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  for (std::uint32_t c = 0; c < n; ++c) out.counters.push_back(sim.hierarchy().counters(c));
  return out;
}

void expect_same(const Outcome& a, const Outcome& b, const std::string& ctx) {
  EXPECT_EQ(a.error, b.error) << ctx;
  ASSERT_EQ(a.result.threads.size(), b.result.threads.size()) << ctx;
  for (std::size_t i = 0; i < a.result.threads.size(); ++i) {
    const ThreadResult& x = a.result.threads[i];
    const ThreadResult& y = b.result.threads[i];
    EXPECT_EQ(x.benchmark, y.benchmark) << ctx << " core " << i;
    EXPECT_EQ(x.instructions, y.instructions) << ctx << " core " << i;
    EXPECT_EQ(x.cycles, y.cycles) << ctx << " core " << i;
    EXPECT_EQ(x.ipc, y.ipc) << ctx << " core " << i;
    EXPECT_EQ(x.mem.l1_accesses, y.mem.l1_accesses) << ctx << " core " << i;
    EXPECT_EQ(x.mem.l1_misses, y.mem.l1_misses) << ctx << " core " << i;
    EXPECT_EQ(x.mem.l2_accesses, y.mem.l2_accesses) << ctx << " core " << i;
    EXPECT_EQ(x.mem.l2_misses, y.mem.l2_misses) << ctx << " core " << i;
  }
  EXPECT_EQ(a.result.wall_cycles, b.result.wall_cycles) << ctx;
  EXPECT_EQ(a.result.repartitions, b.result.repartitions) << ctx;
  EXPECT_EQ(a.result.simulated_accesses, b.result.simulated_accesses) << ctx;
  EXPECT_EQ(a.result.l2_config, b.result.l2_config) << ctx;
  EXPECT_EQ(a.result.timed.dram_reads, b.result.timed.dram_reads) << ctx;
  EXPECT_EQ(a.result.timed.dram_writebacks, b.result.timed.dram_writebacks) << ctx;
  EXPECT_EQ(a.result.timed.mshr_coalesced, b.result.timed.mshr_coalesced) << ctx;
  EXPECT_EQ(a.result.timed.row_hits, b.result.timed.row_hits) << ctx;
  ASSERT_EQ(a.counters.size(), b.counters.size()) << ctx;
  for (std::size_t c = 0; c < a.counters.size(); ++c) {
    EXPECT_EQ(a.counters[c].l1_accesses, b.counters[c].l1_accesses) << ctx << " core " << c;
    EXPECT_EQ(a.counters[c].l2_misses, b.counters[c].l2_misses) << ctx << " core " << c;
  }
}

TEST(FrontEnd, WorkerAndInlineAgreeForEveryConfigOnShortRuns) {
  const std::vector<std::string> names{"twolf", "art"};
  for (const auto& acronym : core::CpaConfig::known_acronyms()) {
    for (const TimingMode mode : {TimingMode::kFunctional, TimingMode::kTimed}) {
      const auto inline_run =
          run(FrontEndMode::kInline, config_for(names, acronym, mode, 6'000, 1'500),
              traces_for(names));
      const auto worker_run =
          run(FrontEndMode::kWorker, config_for(names, acronym, mode, 6'000, 1'500),
              traces_for(names));
      ASSERT_TRUE(inline_run.error.empty()) << inline_run.error;
      expect_same(inline_run, worker_run, acronym + " " + to_string(mode));
    }
  }
}

TEST(FrontEnd, WorkerAndInlineAgreeOnLongFourCoreRuns) {
  // Far past the 64 Ki-op threshold, so the automatic rule may start a worker
  // too: all three paths must agree.
  for (const TimingMode mode : {TimingMode::kFunctional, TimingMode::kTimed}) {
    const SimConfig cfg = config_for(kMix, "M-BT", mode, 400'000, 100'000);
    const auto inline_run = run(FrontEndMode::kInline, cfg, traces_for(kMix));
    const std::uint64_t started = internal::front_end_workers_started();
    const auto worker_run = run(FrontEndMode::kWorker, cfg, traces_for(kMix));
    EXPECT_EQ(internal::front_end_workers_started(), started + 1)
        << "the forced worker path did not start a worker";
    const auto auto_run = run(FrontEndMode::kAuto, cfg, traces_for(kMix));
    ASSERT_TRUE(inline_run.error.empty()) << inline_run.error;
    EXPECT_GT(inline_run.result.simulated_accesses, internal::FrontEnd::kWorkerAfterOps);
    expect_same(inline_run, worker_run, "worker " + to_string(mode));
    expect_same(inline_run, auto_run, "auto " + to_string(mode));
  }
}

TEST(FrontEnd, ZeroWarmupAndSingleCoreRunsAgree) {
  // Degenerate corners: no warmup baseline snapshot, and a one-core "CMP"
  // (argmin always picks core 0, one lane gets the whole ring budget).
  const std::vector<std::string> names{"twolf"};
  const SimConfig cfg = config_for(names, "NOPART-BT", TimingMode::kFunctional, 300'000, 0);
  const auto inline_run = run(FrontEndMode::kInline, cfg, traces_for(names));
  const auto worker_run = run(FrontEndMode::kWorker, cfg, traces_for(names));
  ASSERT_TRUE(inline_run.error.empty()) << inline_run.error;
  expect_same(inline_run, worker_run, "NOPART-BT 1-core warmup=0");
}

TEST(FrontEnd, SecondRunThrowsInvariantErrorOnBothPaths) {
  // run() consumes the hierarchy (warm caches, controller history); calling
  // it again must fail loudly with InvariantError, not return warm garbage.
  const std::vector<std::string> names{"twolf", "art"};
  for (const FrontEndMode mode : {FrontEndMode::kInline, FrontEndMode::kWorker}) {
    const ScopedMode scoped(mode);
    CmpSimulator sim(config_for(names, "M-BT", TimingMode::kFunctional, 5'000, 0),
                     traces_for(names));
    (void)sim.run();
    EXPECT_THROW((void)sim.run(), InvariantError);
  }
}

TEST(FrontEnd, InlineModeNeverStartsAWorker) {
  const SimConfig cfg = config_for(kMix, "M-0.75N", TimingMode::kFunctional, 200'000, 0);
  const std::uint64_t started = internal::front_end_workers_started();
  const auto r = run(FrontEndMode::kInline, cfg, traces_for(kMix));
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(internal::front_end_workers_started(), started);
}

TEST(FrontEnd, TraceErrorSurfacesAtExactlyItsOpOnBothPaths) {
  // Reference: how many ops each core consumes in a clean run.
  const SimConfig cfg = config_for(kMix, "M-BT", TimingMode::kFunctional, 30'000, 5'000);
  const auto clean = run(FrontEndMode::kInline, cfg, traces_for(kMix));
  ASSERT_TRUE(clean.error.empty()) << clean.error;
  constexpr std::uint32_t kCore = 2;
  const std::uint64_t consumed = clean.counters[kCore].l1_accesses;
  ASSERT_GT(consumed, 1000u);

  auto failing_traces = [&](std::uint64_t fail_at) {
    auto traces = traces_for(kMix);
    traces[kCore] = std::make_unique<FailingSource>(std::move(traces[kCore]), fail_at);
    return traces;
  };
  // Fails mid-run: the replay has consumed exactly fail_at ops of that core.
  for (const std::uint64_t fail_at : {std::uint64_t{0}, std::uint64_t{17}, consumed / 2,
                                      consumed - 1}) {
    const auto a = run(FrontEndMode::kInline, cfg, failing_traces(fail_at));
    const auto b = run(FrontEndMode::kWorker, cfg, failing_traces(fail_at));
    EXPECT_EQ(a.error, "trace read failed") << "fail_at=" << fail_at;
    EXPECT_EQ(a.counters[kCore].l1_accesses, fail_at);
    expect_same(a, b, "fail_at=" + std::to_string(fail_at));
  }
  // The failing op lies past the end of the run: no error at all, even though
  // the front end may have produced (and failed on) it ahead of the replay.
  for (const std::uint64_t fail_at : {consumed, consumed + 5, consumed + 300}) {
    const auto a = run(FrontEndMode::kInline, cfg, failing_traces(fail_at));
    const auto b = run(FrontEndMode::kWorker, cfg, failing_traces(fail_at));
    EXPECT_EQ(a.error, "") << "fail_at=" << fail_at;
    expect_same(clean, a, "inline fail_at=" + std::to_string(fail_at));
    expect_same(clean, b, "worker fail_at=" + std::to_string(fail_at));
  }
}

TEST(FrontEnd, WorkerFaultsFireAtTheSameOpOnBothPaths) {
  const SimConfig base = config_for(kMix, "M-0.75N", TimingMode::kFunctional, 30'000, 5'000);
  const auto clean = run(FrontEndMode::kInline, base, traces_for(kMix));
  ASSERT_TRUE(clean.error.empty());
  FaultSpec spec;
  spec.probability[static_cast<std::size_t>(FaultSite::kWorker)] = 2e-5;
  int fired = 0;
  int quiet = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SimConfig cfg = base;
    cfg.faults = std::make_shared<FaultPlan>(spec, seed);
    const auto a = run(FrontEndMode::kInline, cfg, traces_for(kMix));
    const auto b = run(FrontEndMode::kWorker, cfg, traces_for(kMix));
    expect_same(a, b, "plan seed " + std::to_string(seed));
    // Whether a fault must fire follows from the plan alone: the first
    // firing op of some core lies inside what that core consumes.
    bool expect_fire = false;
    for (std::uint32_t c = 0; c < kMix.size(); ++c) {
      for (std::uint64_t k = 0; k < clean.counters[c].l1_accesses; ++k)
        expect_fire = expect_fire || cfg.faults->should_fire(FaultSite::kWorker, k, c);
    }
    if (!expect_fire) {
      ++quiet;
      EXPECT_EQ(a.error, "") << "seed " << seed;
      expect_same(clean, a, "quiet plan seed " + std::to_string(seed));
      continue;
    }
    ++fired;
    ASSERT_NE(a.error.find("injected worker fault at front end, core "), std::string::npos)
        << a.error;
    // The firing op is the first one the replay did not consume, and no op
    // the replay did consume fired.
    std::istringstream msg(a.error.substr(a.error.find("core ") + 5));
    std::uint32_t core = 0;
    msg >> core;
    const std::string opp = "opportunity ";
    const std::uint64_t op = std::stoull(a.error.substr(a.error.find(opp) + opp.size()));
    ASSERT_LT(core, kMix.size());
    EXPECT_EQ(a.counters[core].l1_accesses, op) << a.error;
    for (std::uint32_t c = 0; c < kMix.size(); ++c) {
      for (std::uint64_t k = 0; k < a.counters[c].l1_accesses; ++k)
        ASSERT_FALSE(cfg.faults->should_fire(FaultSite::kWorker, k, c))
            << "consumed op " << k << " of core " << c << " should have fired";
    }
  }
  EXPECT_GT(fired, 0) << "no plan seed fired inside the run; adjust the probability";
  EXPECT_GT(quiet, 0) << "every plan seed fired; adjust the probability";
}

TEST(FrontEnd, WatchdogFiresWhileTheReplayWaitsOnTheWorker) {
  SimConfig cfg = config_for(kMix, "M-BT", TimingMode::kFunctional, 200'000, 0);
  cfg.timeout_s = 0.2;
  auto traces = traces_for(kMix);
  traces[1] = std::make_unique<SlowSource>(std::move(traces[1]), 2'000);
  const auto start = std::chrono::steady_clock::now();
  const auto r = run(FrontEndMode::kWorker, std::move(cfg), std::move(traces));
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_NE(r.error.find("watchdog deadline"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("serial run"), std::string::npos) << r.error;
  // The replay stalls on core 1 within a few thousand ops; without the poll
  // in the wait it would sleep through ~200k slow ops.
  EXPECT_LT(secs, 30.0);
}

TEST(FrontEnd, ConcurrentSweepJobsMatchTheInlineCsv) {
  // Several jobs at once, each long enough for the automatic rule to consider
  // a worker: workers and replays of different jobs contend for CPUs.
  runner::RunMatrix m;
  m.configs = {"M-BT", "NOPART-L", "M-0.75N"};
  m.workloads = {workloads::workloads_2t()[0], workloads::workloads_2t()[1]};
  m.l2_kb = {128};
  m.l1d = cache::Geometry{.size_bytes = 4096, .associativity = 2, .line_bytes = 128};
  m.instr = 150'000;
  m.warmup = 20'000;
  m.interval_cycles = 40'000;
  m.sampling_ratio = 8;
  m.seed = 3;
  const auto jobs = m.expand();
  auto csv = [&](FrontEndMode mode, std::size_t threads) {
    const ScopedMode scoped(mode);
    runner::SweepOptions opts;
    opts.threads = threads;
    std::ostringstream os;
    runner::SweepExecutor(opts).run_csv(jobs, os);
    return os.str();
  };
  const std::string reference = csv(FrontEndMode::kInline, 1);
  EXPECT_EQ(csv(FrontEndMode::kAuto, 3), reference);
  EXPECT_EQ(csv(FrontEndMode::kWorker, 3), reference);
}

}  // namespace
}  // namespace plrupart::sim
