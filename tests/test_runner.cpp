// The sweep engine's contracts: canonical expansion order, position-derived
// per-job seeds, sharding invariants (disjoint, exhaustive, split-independent),
// thread-count-independent CSV output, shard-merge validation, and the same
// determinism guarantees for trace-backed (file-driven) workloads.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "plrupart/common/assert.hpp"
#include "plrupart/runner/run_spec.hpp"
#include "plrupart/runner/sweep_executor.hpp"
#include "plrupart/sim/trace_file.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"
#include "plrupart/workloads/trace_workload.hpp"
#include "plrupart/workloads/workload_table.hpp"

namespace plrupart {
namespace {

/// A sweep on `threads` workers, every other option at its default.
runner::SweepExecutor executor(std::size_t threads) {
  return runner::SweepExecutor({.threads = threads, .journal_dir = {}, .faults = {}});
}

/// A configs × workloads × sizes matrix small enough to simulate in tests.
runner::RunMatrix small_matrix() {
  runner::RunMatrix m;
  m.configs = {"NOPART-L", "M-0.75N"};
  const auto& all = workloads::workloads_2t();
  m.workloads = {all[0], all[1], all[2]};
  m.l2_kb = {128, 256};
  m.l1d = cache::Geometry{.size_bytes = 4096, .associativity = 2, .line_bytes = 128};
  m.instr = 20'000;
  m.warmup = 5'000;
  m.interval_cycles = 40'000;
  m.sampling_ratio = 8;
  m.seed = 99;
  return m;
}

TEST(RunMatrix, ExpandsInCanonicalOrder) {
  const auto m = small_matrix();
  const auto jobs = m.expand();
  ASSERT_EQ(jobs.size(), m.size());
  ASSERT_EQ(jobs.size(), 2u * 3u * 2u);
  for (std::size_t wi = 0; wi < m.workloads.size(); ++wi)
    for (std::size_t ci = 0; ci < m.configs.size(); ++ci)
      for (std::size_t li = 0; li < m.l2_kb.size(); ++li) {
        const auto& job = jobs[m.index_of(wi, ci, li)];
        EXPECT_EQ(job.job_index, m.index_of(wi, ci, li));
        EXPECT_EQ(job.workload.id, m.workloads[wi].id);
        EXPECT_EQ(job.config, m.configs[ci]);
        EXPECT_EQ(job.l2.size_bytes, m.l2_kb[li] * 1024);
      }
  // The workload axis is outermost: job 0..3 all belong to the first workload.
  for (std::size_t k = 0; k < 4; ++k) EXPECT_EQ(jobs[k].workload.id, m.workloads[0].id);
}

TEST(RunMatrix, SeedsAreSharedPerWorkloadRowAndDistinctAcrossRows) {
  const auto m = small_matrix();
  const auto jobs = m.expand();
  for (std::size_t wi = 0; wi < m.workloads.size(); ++wi) {
    const auto row_seed = m.job_seed(wi);
    for (std::size_t ci = 0; ci < m.configs.size(); ++ci)
      for (std::size_t li = 0; li < m.l2_kb.size(); ++li)
        EXPECT_EQ(jobs[m.index_of(wi, ci, li)].seed, row_seed);
  }
  EXPECT_NE(m.job_seed(0), m.job_seed(1));
  EXPECT_NE(m.job_seed(1), m.job_seed(2));
}

TEST(RunMatrix, JobKeyNamesWorkloadConfigAndSize) {
  const auto jobs = small_matrix().expand();
  EXPECT_EQ(jobs[0].key(), jobs[0].workload.id + "|NOPART-L|128");
}

TEST(RunMatrix, ShardsArePairwiseDisjointAndExhaustive) {
  const auto m = small_matrix();
  const auto full = m.expand();
  for (const std::size_t n : {1u, 2u, 3u, 5u, 12u, 17u}) {
    std::set<std::uint64_t> seen;
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto slice = m.shard(i, n);
      total += slice.size();
      for (std::size_t k = 0; k < slice.size(); ++k) {
        const auto& job = slice[k];
        EXPECT_TRUE(seen.insert(job.job_index).second)
            << "job " << job.job_index << " appears in two shards of split n=" << n;
        if (k > 0) {
          EXPECT_LT(slice[k - 1].job_index, job.job_index);
        }
        // The spec — including its seed — is identical to the full matrix's:
        // seeds are independent of the shard split.
        const auto& ref = full[job.job_index];
        EXPECT_EQ(job.seed, ref.seed);
        EXPECT_EQ(job.config, ref.config);
        EXPECT_EQ(job.workload.id, ref.workload.id);
        EXPECT_EQ(job.l2.size_bytes, ref.l2.size_bytes);
      }
    }
    EXPECT_EQ(total, full.size()) << "shard union != full matrix for n=" << n;
    EXPECT_EQ(seen.size(), full.size());
  }
}

TEST(RunMatrix, ShardRejectsBadSplit) {
  const auto m = small_matrix();
  EXPECT_THROW((void)m.shard(2, 2), InvariantError);
  EXPECT_THROW((void)m.shard(0, 0), InvariantError);
}

TEST(RunMatrix, ValidateRejectsBadInput) {
  auto m = small_matrix();
  m.configs = {"NOT-A-CONFIG"};
  EXPECT_THROW(m.validate(), InvariantError);
  m = small_matrix();
  m.configs.clear();
  EXPECT_THROW(m.validate(), InvariantError);
  m = small_matrix();
  m.assoc = 1;  // 2-thread workloads cannot fit a 1-way L2
  EXPECT_THROW(m.validate(), InvariantError);
}

/// Full matrix -> CSV at a given thread count.
std::string csv_at_threads(const runner::RunMatrix& m, std::size_t threads) {
  runner::SweepOptions opts;
  opts.threads = threads;
  const auto results = runner::SweepExecutor(opts).run(m.expand());
  std::ostringstream os;
  runner::write_csv(os, results);
  return os.str();
}

TEST(SweepExecutor, CsvIsByteIdenticalAtAnyThreadCount) {
  const auto m = small_matrix();
  const auto serial = csv_at_threads(m, 1);
  const auto parallel4 = csv_at_threads(m, 4);
  EXPECT_EQ(serial, parallel4);
  EXPECT_NE(serial.find("\n0,"), std::string::npos) << "expected job-0 rows";
}

TEST(SweepExecutor, MergedShardCsvsEqualTheUnshardedRun) {
  const auto m = small_matrix();
  const auto unsharded = csv_at_threads(m, 1);

  std::vector<std::string> shard_csvs;
  for (std::size_t i = 0; i < 2; ++i) {
    const auto results = executor(2).run(m.shard(i, 2));
    std::ostringstream os;
    runner::write_csv(os, results);
    shard_csvs.push_back(os.str());
  }

  std::istringstream s0(shard_csvs[0]), s1(shard_csvs[1]);
  std::ostringstream merged;
  runner::merge_csv_streams({&s1, &s0}, {"s1", "s0"}, merged);  // order-insensitive
  EXPECT_EQ(merged.str(), unsharded);
}

TEST(MergeCsv, RejectsDuplicateJobKeys) {
  const auto m = small_matrix();
  const auto results = executor(2).run(m.shard(0, 2));
  std::ostringstream os;
  runner::write_csv(os, results);
  std::istringstream a(os.str()), b(os.str());
  std::ostringstream merged;
  EXPECT_THROW(runner::merge_csv_streams({&a, &b}, {"a", "b"}, merged), InvariantError);
}

TEST(MergeCsv, RejectsDuplicatedPerCoreBlockWithinOneShard) {
  // A rerun appended to the same file (`plrupart ... >> shard.csv`) repeats a
  // job's whole core block; adjacent-pair checks alone would miss it because
  // consecutive cores still differ (0,1,0,1).
  const auto m = small_matrix();
  const auto results = executor(1).run(m.expand());
  std::ostringstream os;
  runner::write_csv(os, results);
  const auto csv = os.str();
  const auto header_end = csv.find('\n');
  const auto body = csv.substr(header_end + 1);
  std::istringstream doubled(csv + body);  // every job's block appears twice
  std::ostringstream merged;
  EXPECT_THROW(runner::merge_csv_streams({&doubled}, {"doubled"}, merged),
               InvariantError);
}

// ---------------------------------------------------------------------------
// Trace-backed workloads: captured files must compose with every sweep-engine
// contract exactly like catalog workloads.
// ---------------------------------------------------------------------------

class TraceBackedMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("plrupart_runner_trace_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    // Two recorded benchmarks, one per core, deliberately in different
    // formats so the sweep exercises both decoders.
    record("gzip", 0, trace_a(), sim::TraceFormat::kTextV1);
    record("twolf", 1, trace_b(), sim::TraceFormat::kBinaryV2);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string trace_a() const { return (dir_ / "a.trace").string(); }
  [[nodiscard]] std::string trace_b() const { return (dir_ / "b.trace").string(); }

  void record(const char* bench, std::uint32_t core, const std::string& path,
              sim::TraceFormat format) const {
    const auto trace = workloads::make_trace(workloads::benchmark(bench), core, 5);
    sim::write_trace_file(path, sim::record_trace(*trace, 30'000), format);
  }

  /// A configs x one-trace-workload x sizes matrix, small enough for tests.
  [[nodiscard]] runner::RunMatrix trace_matrix() const {
    runner::RunMatrix m;
    m.configs = {"NOPART-L", "M-0.75N"};
    m.workloads = {workloads::workload_from_traces({trace_a(), trace_b()})};
    m.l2_kb = {128, 256};
    m.l1d = cache::Geometry{.size_bytes = 4096, .associativity = 2, .line_bytes = 128};
    m.instr = 20'000;
    m.warmup = 5'000;
    m.interval_cycles = 40'000;
    m.sampling_ratio = 8;
    m.seed = 99;
    return m;
  }

  std::filesystem::path dir_;
};

TEST_F(TraceBackedMatrixTest, CsvIsByteIdenticalAcrossThreadCountsAndShardMerges) {
  const auto m = trace_matrix();
  const auto serial = csv_at_threads(m, 1);
  EXPECT_EQ(serial, csv_at_threads(m, 4))
      << "trace-backed sweep must not depend on the worker count";
  EXPECT_NE(serial.find("trace:a.trace+b.trace"), std::string::npos)
      << "workload id should name the trace files";
  EXPECT_NE(serial.find("a.trace"), std::string::npos)
      << "per-core benchmark column should carry the trace basename";

  std::vector<std::string> shard_csvs;
  for (std::size_t i = 0; i < 2; ++i) {
    const auto results = executor(2).run(m.shard(i, 2));
    std::ostringstream os;
    runner::write_csv(os, results);
    shard_csvs.push_back(os.str());
  }
  std::istringstream s0(shard_csvs[0]), s1(shard_csvs[1]);
  std::ostringstream merged;
  runner::merge_csv_streams({&s1, &s0}, {"s1", "s0"}, merged);
  EXPECT_EQ(merged.str(), serial)
      << "sharded trace-backed sweep must merge back to the unsharded CSV";
}

TEST_F(TraceBackedMatrixTest, TraceWorkloadsComposeWithCatalogWorkloadsInOneMatrix) {
  auto m = trace_matrix();
  m.workloads.push_back(workloads::workloads_2t()[0]);  // mixed axis
  const auto csv = csv_at_threads(m, 2);
  EXPECT_NE(csv.find("trace:a.trace+b.trace"), std::string::npos);
  EXPECT_NE(csv.find("2T_01"), std::string::npos);
  EXPECT_EQ(csv, csv_at_threads(m, 1));
}

TEST(TraceWorkload, DisambiguatesCollidingBasenamesAcrossDirectories) {
  // Different captures sharing a file name must stay distinguishable in the
  // CSV; co-running the same path keeps its plain name.
  const auto collide = workloads::workload_from_traces({"a/x.trace", "b/x.trace"});
  EXPECT_EQ(collide.benchmarks, (std::vector<std::string>{"x.trace@0", "x.trace@1"}));
  EXPECT_EQ(collide.id, "trace:x.trace@0+x.trace@1");
  const auto copies = workloads::workload_from_traces({"a/x.trace", "a/x.trace"});
  EXPECT_EQ(copies.benchmarks, (std::vector<std::string>{"x.trace", "x.trace"}));
}

TEST_F(TraceBackedMatrixTest, ValidateFailsFastOnBadTraceFiles) {
  auto m = trace_matrix();
  m.workloads = {workloads::workload_from_traces({(dir_ / "missing.trace").string()})};
  EXPECT_THROW(m.validate(), InvariantError);

  // Present but malformed: validate() must catch it before any job runs.
  const auto bad = (dir_ / "bad.trace").string();
  std::ofstream(bad) << "# plrupart-trace v1\nnot a record\n";
  m.workloads = {workloads::workload_from_traces({bad})};
  EXPECT_THROW(m.validate(), InvariantError);

  // Core-count mismatch between traces and benchmarks is rejected.
  auto w = workloads::workload_from_traces({trace_a()});
  w.benchmarks.push_back("phantom");
  m.workloads = {w};
  EXPECT_THROW(m.validate(), InvariantError);
}

TEST(MergeCsv, RejectsHeaderMismatchAndMissingShards) {
  std::istringstream bad_header("not,the,schema\n");
  std::ostringstream out;
  EXPECT_THROW(runner::merge_csv_streams({&bad_header}, {"bad"}, out), InvariantError);

  // A lone shard 1/2 is missing job 0 -> incomplete shard set.
  const auto m = small_matrix();
  const auto results = executor(2).run(m.shard(1, 2));
  std::ostringstream os;
  runner::write_csv(os, results);
  std::istringstream lonely(os.str());
  std::ostringstream merged;
  EXPECT_THROW(runner::merge_csv_streams({&lonely}, {"s1"}, merged), InvariantError);
}

}  // namespace
}  // namespace plrupart
