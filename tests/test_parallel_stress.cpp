// TSan-facing stress suite: hammers the two places std::thread concurrency
// lives today — common/parallel.hpp and runner::SweepExecutor — so the
// ThreadSanitizer tier (PLRUPART_SANITIZE=thread) has real contention to bite
// on, together with the simulator's per-run front-end worker threads, which
// start inside sweep jobs whenever a CPU is spare: any new cross-thread
// sharing that reaches these paths shows up here first.
//
// The suite is deliberately repetition-heavy (many rounds x many thread
// counts): TSan finds races by observing conflicting access pairs, so one
// quiet fan-out proves much less than fifty contended ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "plrupart/cache/geometry.hpp"
#include "plrupart/runner/run_spec.hpp"
#include "plrupart/runner/sweep_executor.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"
#include "plrupart/workloads/workload_table.hpp"

namespace plrupart {
namespace {

/// The thread counts the issue contract names: serial fallback, minimal
/// contention, oversubscribed (8 >> this container's cores), and whatever the
/// host really has.
std::vector<std::size_t> stress_thread_counts() {
  return {1, 2, 8, default_parallelism()};
}

TEST(ParallelStress, RepeatedFanOutCoversEveryIndexAtEveryThreadCount) {
  constexpr std::size_t kItems = 256;
  constexpr int kRounds = 25;
  for (const std::size_t threads : stress_thread_counts()) {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::atomic<int>> hits(kItems);
      parallel_for(
          kItems, [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
          threads);
      for (std::size_t i = 0; i < kItems; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " round=" << round
                                     << " index=" << i;
    }
  }
}

TEST(ParallelStress, UnevenWorkWritesToDisjointSlotsWithoutRaces) {
  // Each body writes plain (non-atomic) memory, but only its own slot; the
  // work per item varies wildly so the dynamic queue actually rebalances.
  // Under TSan this certifies the fork-join edges of parallel_for: the final
  // reads on the calling thread must happen-after every worker write.
  constexpr std::size_t kItems = 192;
  for (const std::size_t threads : stress_thread_counts()) {
    std::vector<std::uint64_t> out(kItems, 0);
    parallel_for(
        kItems,
        [&](std::size_t i) {
          std::uint64_t acc = 0;
          const std::uint64_t spin = 1 + (i % 31) * 97;
          for (std::uint64_t k = 0; k < spin * 50; ++k) acc += k * k + i;
          out[i] = acc;
        },
        threads);
    for (std::size_t i = 0; i < kItems; ++i)
      ASSERT_NE(out[i], 0u) << "threads=" << threads << " index=" << i;
  }
}

TEST(ParallelStress, SharedAtomicAccumulationUnderContention) {
  constexpr std::size_t kItems = 10'000;
  for (const std::size_t threads : stress_thread_counts()) {
    std::atomic<std::uint64_t> sum{0};
    parallel_for(
        kItems, [&](std::size_t i) { sum.fetch_add(i, std::memory_order_relaxed); },
        threads);
    EXPECT_EQ(sum.load(), kItems * (kItems - 1) / 2) << "threads=" << threads;
  }
}

TEST(ParallelStress, EveryWorkerThrowingPropagatesExactlyOneException) {
  // All bodies throw concurrently: the first-error latch in parallel_for is
  // itself shared mutable state worth hammering. Whatever wins the race must
  // be one of the thrown values, and the pool must still join cleanly.
  constexpr std::size_t kItems = 64;
  for (const std::size_t threads : stress_thread_counts()) {
    for (int round = 0; round < 10; ++round) {
      bool caught = false;
      try {
        parallel_for(
            kItems,
            [](std::size_t i) { throw std::runtime_error("w" + std::to_string(i)); },
            threads);
      } catch (const std::runtime_error& e) {
        caught = true;
        const std::string msg = e.what();
        ASSERT_EQ(msg.front(), 'w');
        const std::size_t idx = std::stoul(msg.substr(1));
        ASSERT_LT(idx, kItems);
      }
      ASSERT_TRUE(caught) << "threads=" << threads << " round=" << round;
    }
  }
}

TEST(ParallelStress, ExceptionAmidHealthyWorkersStillJoins) {
  constexpr std::size_t kItems = 512;
  for (const std::size_t threads : stress_thread_counts()) {
    std::atomic<std::size_t> ran{0};
    EXPECT_THROW(
        parallel_for(
            kItems,
            [&](std::size_t i) {
              if (i == kItems / 2) throw std::logic_error("mid-flight failure");
              ran.fetch_add(1, std::memory_order_relaxed);
            },
            threads),
        std::logic_error);
    // Everything that did run completed before the join; no lost updates.
    EXPECT_LE(ran.load(), kItems - 1);
  }
}

TEST(ParallelStress, NestedFanOutDoesNotDeadlockOrRace) {
  // Inner fan-outs spawn their own pools; nothing in parallel_for is global,
  // so nesting must compose. Kept small: this multiplies threads.
  std::vector<std::atomic<int>> hits(64);
  parallel_for(
      8,
      [&](std::size_t outer) {
        parallel_for(
            8,
            [&](std::size_t inner) {
              hits[outer * 8 + inner].fetch_add(1, std::memory_order_relaxed);
            },
            /*threads=*/2);
      },
      /*threads=*/4);
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

// --- SweepExecutor under contention -----------------------------------------

/// Small but real matrix: every job simulates, so worker threads spend real
/// time inside the cache/ATD core while others fan out around them.
runner::RunMatrix stress_matrix() {
  runner::RunMatrix m;
  m.configs = {"NOPART-L", "M-0.75N"};
  const auto& all = workloads::workloads_2t();
  m.workloads = {all[0], all[1], all[2]};
  m.l2_kb = {128, 256};
  m.l1d = cache::Geometry{.size_bytes = 4096, .associativity = 2, .line_bytes = 128};
  m.instr = 6'000;
  m.warmup = 1'500;
  m.interval_cycles = 20'000;
  m.sampling_ratio = 8;
  m.seed = 1234;
  return m;
}

std::string csv_of(const std::vector<runner::JobResult>& results) {
  std::ostringstream os;
  runner::write_csv(os, results);
  return os.str();
}

TEST(SweepExecutorStress, CsvByteIdenticalAcrossAllThreadCounts) {
  const auto jobs = stress_matrix().expand();
  std::string reference;
  for (const std::size_t threads : stress_thread_counts()) {
    const runner::SweepExecutor ex({.threads = threads, .progress = false,
                                    .journal_dir = {}, .faults = {}});
    const std::string csv = csv_of(ex.run(jobs));
    if (reference.empty()) {
      reference = csv;
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(csv, reference) << "threads=" << threads;
    }
  }
}

TEST(SweepExecutorStress, ProgressLinesStayWholeUnderOversubscription) {
  // --progress writes one fprintf per finished job from whichever worker
  // finished it. Each line must come out whole (glibc locks the FILE* per
  // call) and the completion counters must be a permutation of 1..N even
  // though completion order is nondeterministic.
  const auto jobs = stress_matrix().expand();
  const std::size_t total = jobs.size();
  const runner::SweepExecutor ex({.threads = 8, .progress = true,
                                  .journal_dir = {}, .faults = {}});
  ::testing::internal::CaptureStderr();
  const auto results = ex.run(jobs);
  const std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_EQ(results.size(), total);

  std::istringstream is(err);
  std::string line;
  std::multiset<std::size_t> counters;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++lines;
    ASSERT_TRUE(line.starts_with("plrupart: [")) << "mangled line: " << line;
    ASSERT_NE(line.find("] "), std::string::npos) << line;
    ASSERT_NE(line.find(" done ("), std::string::npos) << "interleaved line: " << line;
    // The rate names what it counts: every simulated access per wall second.
    ASSERT_TRUE(line.ends_with("M sim acc/s)")) << "truncated line: " << line;
    const std::size_t open = line.find('[');
    const std::size_t slash = line.find('/', open);
    counters.insert(std::stoul(line.substr(open + 1, slash - open - 1)));
  }
  EXPECT_EQ(lines, total);
  std::multiset<std::size_t> expected;
  for (std::size_t n = 1; n <= total; ++n) expected.insert(n);
  EXPECT_EQ(counters, expected) << "stderr was:\n" << err;
}

TEST(SweepExecutorStress, ShardRunsMergeToUnshardedBytesAtAnyThreadCount) {
  const auto m = stress_matrix();
  const runner::SweepExecutor serial({.threads = 1, .journal_dir = {}, .faults = {}});
  const std::string full = csv_of(serial.run(m.expand()));

  for (const std::size_t n_shards : {2u, 3u}) {
    // Each shard simulated with its own contended pool, as a fleet would.
    std::vector<std::string> shard_csvs(n_shards);
    for (std::size_t s = 0; s < n_shards; ++s) {
      const runner::SweepExecutor ex({.threads = 8, .journal_dir = {}, .faults = {}});
      shard_csvs[s] = csv_of(ex.run(m.shard(s, n_shards)));
    }
    std::vector<std::istringstream> streams(shard_csvs.begin(), shard_csvs.end());
    std::vector<std::istream*> ptrs;
    std::vector<std::string> names;
    for (std::size_t s = 0; s < n_shards; ++s) {
      ptrs.push_back(&streams[s]);
      names.push_back("shard" + std::to_string(s));
    }
    std::ostringstream merged;
    runner::merge_csv_streams(ptrs, names, merged);
    EXPECT_EQ(merged.str(), full) << "n_shards=" << n_shards;
  }
}

TEST(SweepExecutorStress, EmptyJobListIsANoop) {
  const runner::SweepExecutor ex({.threads = 8, .progress = true,
                                  .journal_dir = {}, .faults = {}});
  EXPECT_TRUE(ex.run({}).empty());
}

TEST(SweepExecutorStress, TimedProgressLinesReportSimulatedCycleRate) {
  // Timed jobs are much slower per access than functional ones, so an
  // acc/s-only progress line would read as a regression; the line must carry
  // the simulated cycle rate alongside.
  runner::RunMatrix m = stress_matrix();
  m.configs = {"M-0.75N"};
  m.workloads.resize(1);
  m.l2_kb = {128};
  m.timing = sim::TimingMode::kTimed;
  const auto jobs = m.expand();
  const runner::SweepExecutor ex({.threads = 1, .progress = true,
                                  .journal_dir = {}, .faults = {}});
  ::testing::internal::CaptureStderr();
  const auto results = ex.run(jobs);
  const std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_EQ(results.size(), jobs.size());

  std::istringstream is(err);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++lines;
    ASSERT_TRUE(line.starts_with("plrupart: [")) << "mangled line: " << line;
    EXPECT_NE(line.find("M sim acc/s, "), std::string::npos) << "line: " << line;
    EXPECT_TRUE(line.ends_with("M cyc/s)")) << "line: " << line;
  }
  EXPECT_EQ(lines, jobs.size());
}

}  // namespace
}  // namespace plrupart
