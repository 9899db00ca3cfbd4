// Tests for the experiment engine: JSON serialization, the
// work-stealing thread pool, grid expansion, validation, and run-level
// error capture in the sweep runner.
#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/experiment_spec.h"
#include "exp/json.h"
#include "exp/result_sink.h"
#include "exp/sweep_runner.h"
#include "trace/workloads.h"
#include "util/thread_pool.h"

namespace dmasim {
namespace {

SweepOptions ThreadedOptions(int threads) {
  SweepOptions options;
  options.threads = threads;
  return options;
}

WorkloadSpec TinyWorkload() {
  WorkloadSpec spec = OltpStorageSpec();
  spec.duration = 5 * kMillisecond;
  return spec;
}

// ---------------------------------------------------------------- JSON.

TEST(JsonTest, ScalarsAndEscaping) {
  EXPECT_EQ(Json().Dump(), "null");
  EXPECT_EQ(Json(true).Dump(), "true");
  EXPECT_EQ(Json(42).Dump(), "42");
  EXPECT_EQ(Json(1.5).Dump(), "1.5");
  EXPECT_EQ(Json("a\"b\n").Dump(), "\"a\\\"b\\n\"");
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  Json json = Json::Object();
  json.Set("zebra", 1);
  json.Set("apple", 2);
  EXPECT_EQ(json.Dump(false), "{\"zebra\":1,\"apple\":2}");
  json.Set("zebra", 3);  // Overwrite keeps position.
  EXPECT_EQ(json.Dump(false), "{\"zebra\":3,\"apple\":2}");
}

TEST(JsonTest, NestedPrettyPrinting) {
  Json json = Json::Object();
  Json inner = Json::Array();
  inner.Append(1);
  inner.Append(2);
  json.Set("xs", std::move(inner));
  EXPECT_EQ(json.Dump(true), "{\n  \"xs\": [\n    1,\n    2\n  ]\n}");
}

TEST(JsonTest, FindReturnsMember) {
  Json json = Json::Object();
  json.Set("k", 7);
  ASSERT_NE(json.Find("k"), nullptr);
  EXPECT_EQ(json.Find("k")->Dump(), "7");
  EXPECT_EQ(json.Find("missing"), nullptr);
}

TEST(JsonTest, DoubleRoundTripPrecision) {
  const double value = 0.1234567890123456789;
  Json json(value);
  EXPECT_EQ(std::stod(json.Dump()), value);
}

// ---------------------------------------------------------- ThreadPool.

TEST(ThreadPoolTest, ExecutesEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count]() { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count]() { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count]() { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, TasksCanSubmitTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&pool, &count]() {
      count.fetch_add(1);
      pool.Submit([&count]() { count.fetch_add(1); });
    });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  std::atomic<int> count{0};
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&count]() { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1);
}

// ------------------------------------------------------- Grid expansion.

TEST(ExpandGridTest, InjectsOneBaselinePerCell) {
  ExperimentSpec spec;
  spec.workloads = {TinyWorkload()};
  spec.schemes = {TaScheme()};
  spec.cp_limits = {0.05, 0.10};
  const RunGrid grid = ExpandGrid(spec);
  ASSERT_EQ(grid.cell_count, 1);
  ASSERT_EQ(grid.runs.size(), 3u);  // Baseline + 2 CP points.
  EXPECT_TRUE(grid.runs[0].is_baseline);
  EXPECT_FALSE(grid.runs[1].is_baseline);
  EXPECT_EQ(grid.runs[1].cp_limit, 0.05);
  EXPECT_EQ(grid.runs[2].cp_limit, 0.10);
}

TEST(ExpandGridTest, BaselineSchemeDoesNotDuplicateBaseline) {
  ExperimentSpec spec;
  spec.workloads = {TinyWorkload()};
  spec.schemes = {BaselineScheme(), TaScheme()};
  spec.cp_limits = {0.10};
  const RunGrid grid = ExpandGrid(spec);
  int baselines = 0;
  for (const RunPlan& plan : grid.runs) baselines += plan.is_baseline;
  EXPECT_EQ(baselines, 1);
  EXPECT_EQ(grid.runs.size(), 2u);
}

TEST(ExpandGridTest, CrossProductCountsAndDenseIds) {
  ExperimentSpec spec;
  spec.workloads = {TinyWorkload(), SyntheticStorageSpec()};
  spec.schemes = {TaScheme(), TaPlScheme(2)};
  spec.cp_limits = {0.05, 0.10};
  spec.seeds = {1, 2};
  const RunGrid grid = ExpandGrid(spec);
  // Cells: 2 workloads x 2 seeds = 4; runs/cell = 1 + 2 x 2 = 5.
  EXPECT_EQ(grid.cell_count, 4);
  ASSERT_EQ(grid.runs.size(), 20u);
  for (std::size_t i = 0; i < grid.runs.size(); ++i) {
    EXPECT_EQ(grid.runs[i].run_id, static_cast<int>(i));
  }
}

TEST(ExpandGridTest, SeedAxisRederivesServerSeed) {
  ExperimentSpec spec;
  spec.workloads = {TinyWorkload()};
  spec.schemes = {};
  spec.seeds = {7, 8};
  const RunGrid grid = ExpandGrid(spec);
  ASSERT_EQ(grid.runs.size(), 2u);
  EXPECT_EQ(grid.runs[0].workload.seed, 7u);
  EXPECT_EQ(grid.runs[1].workload.seed, 8u);
  EXPECT_NE(grid.runs[0].options.server.seed,
            grid.runs[1].options.server.seed);
}

TEST(ExpandGridTest, HardwareAxesOverrideTemplate) {
  ExperimentSpec spec;
  spec.workloads = {TinyWorkload()};
  spec.schemes = {};
  spec.chip_counts = {16, 64};
  spec.bus_counts = {2};
  const RunGrid grid = ExpandGrid(spec);
  ASSERT_EQ(grid.runs.size(), 2u);
  EXPECT_EQ(grid.runs[0].options.memory.chips, 16);
  EXPECT_EQ(grid.runs[1].options.memory.chips, 64);
  EXPECT_EQ(grid.runs[0].options.memory.bus_count, 2);
}

TEST(ExpandGridTest, TaKnobAxesApplyToDependentRunsOnly) {
  ExperimentSpec spec;
  spec.workloads = {TinyWorkload()};
  spec.schemes = {TaScheme()};
  spec.cp_limits = {0.10};
  spec.epoch_lengths = {10 * kMicrosecond, 100 * kMicrosecond};
  spec.gather_depth_factors = {1.0, 2.0};
  const RunGrid grid = ExpandGrid(spec);
  ASSERT_EQ(grid.runs.size(), 5u);  // Baseline + 2 x 2.
  EXPECT_TRUE(grid.runs[0].is_baseline);
  std::set<std::pair<Tick, double>> combos;
  for (std::size_t i = 1; i < grid.runs.size(); ++i) {
    const RunPlan& plan = grid.runs[i];
    EXPECT_EQ(plan.options.memory.dma.ta.epoch_length, plan.epoch_length);
    EXPECT_EQ(plan.options.memory.dma.ta.gather_depth_factor,
              plan.gather_depth_factor);
    combos.insert({plan.epoch_length, plan.gather_depth_factor});
  }
  EXPECT_EQ(combos.size(), 4u);
}

TEST(ValidateOptionsTest, CatchesBadConfigurations) {
  SimulationOptions options;
  EXPECT_EQ(ValidateOptions(options), "");
  options.memory.chips = 0;
  EXPECT_NE(ValidateOptions(options), "");

  options = SimulationOptions();
  options.memory.dma.pl.enabled = true;
  options.memory.dma.pl.groups = 99;  // > chips.
  EXPECT_NE(ValidateOptions(options), "");
}

// ------------------------------------------------------------- Runner.

TEST(SweepRunnerTest, FailedConfigDoesNotAbortSweep) {
  ExperimentSpec spec;
  spec.workloads = {TinyWorkload()};
  spec.schemes = {TaPlScheme(2)};
  spec.cp_limits = {0.10};
  spec.chip_counts = {32, -1};  // Second cell is invalid.

  SweepRunner runner(ThreadedOptions(2));
  const SweepResults sweep = runner.Run(spec);
  ASSERT_EQ(sweep.records.size(), 4u);
  EXPECT_EQ(sweep.summary.ok, 2);       // Valid cell's baseline + TA-PL.
  EXPECT_EQ(sweep.summary.failed, 1);   // Invalid baseline.
  EXPECT_EQ(sweep.summary.skipped, 1);  // Its dependent run.

  const RunRecord* bad_baseline = sweep.FindBaseline(1);
  ASSERT_NE(bad_baseline, nullptr);
  EXPECT_EQ(bad_baseline->status, RunRecord::Status::kFailed);
  EXPECT_FALSE(bad_baseline->error.empty());
}

TEST(SweepRunnerTest, CellWhoseWorkloadOutgrowsItsMemoryFailsAlone) {
  ExperimentSpec spec;
  spec.workloads = {TinyWorkload()};  // Draws from 2^17 pages.
  spec.schemes = {TaPlScheme(2)};
  spec.cp_limits = {0.10};
  spec.chip_counts = {16, 32};  // 16 chips hold 2^16 pages.

  SweepRunner runner(ThreadedOptions(2));
  const SweepResults sweep = runner.Run(spec);
  ASSERT_EQ(sweep.records.size(), 4u);
  EXPECT_EQ(sweep.summary.ok, 2);
  EXPECT_EQ(sweep.summary.failed, 1);
  EXPECT_EQ(sweep.summary.skipped, 1);

  const RunRecord* small = sweep.FindBaseline(0);
  ASSERT_NE(small, nullptr);
  EXPECT_EQ(small->status, RunRecord::Status::kFailed);
  EXPECT_EQ(small->error,
            "the workload draws from 131072 pages, but the memory holds "
            "65536 (16 chips of 4096 pages)");
  const RunRecord* paper = sweep.FindBaseline(1);
  ASSERT_NE(paper, nullptr);
  EXPECT_TRUE(paper->ok());
}

TEST(SweepRunnerTest, ComputesDeltasAndMu) {
  ExperimentSpec spec;
  spec.workloads = {TinyWorkload()};
  spec.schemes = {TaScheme()};
  spec.cp_limits = {0.10};

  SweepRunner runner(ThreadedOptions(1));
  const SweepResults sweep = runner.Run(spec);
  const RunRecord* baseline = sweep.FindBaseline(0);
  const RunRecord* ta = sweep.Find(spec.workloads[0].name, TaScheme(), 0.10);
  ASSERT_NE(baseline, nullptr);
  ASSERT_NE(ta, nullptr);
  ASSERT_TRUE(baseline->ok());
  ASSERT_TRUE(ta->ok());
  EXPECT_FALSE(baseline->has_baseline_delta);
  EXPECT_TRUE(ta->has_baseline_delta);
  EXPECT_GT(ta->mu, 0.0);
  EXPECT_EQ(ta->energy_savings,
            ta->results.EnergySavingsVs(baseline->results));
}

TEST(SweepRunnerTest, SinksSeeEveryRunAndSortedCompletion) {
  class CountingSink : public ResultSink {
   public:
    void OnRunComplete(const RunRecord&) override { ++streamed; }
    void OnSweepComplete(const SweepSummary& summary,
                         const std::vector<RunRecord>& records) override {
      ++completed;
      for (std::size_t i = 0; i < records.size(); ++i) {
        sorted &= records[i].plan.run_id == static_cast<int>(i);
      }
      total = summary.ok + summary.failed + summary.skipped;
    }
    int streamed = 0;
    int completed = 0;
    int total = 0;
    bool sorted = true;
  };

  ExperimentSpec spec;
  spec.workloads = {TinyWorkload()};
  spec.schemes = {TaScheme(), TaPlScheme(2)};
  spec.cp_limits = {0.05, 0.10};

  CountingSink sink;
  SweepRunner runner(ThreadedOptions(4));
  runner.AddSink(&sink);
  const SweepResults sweep = runner.Run(spec);
  EXPECT_EQ(sink.streamed, static_cast<int>(sweep.records.size()));
  EXPECT_EQ(sink.completed, 1);
  EXPECT_EQ(sink.total, static_cast<int>(sweep.records.size()));
  EXPECT_TRUE(sink.sorted);
}

TEST(SweepRunnerTest, NdjsonStreamsOneLinePerRun) {
  ExperimentSpec spec;
  spec.workloads = {TinyWorkload()};
  spec.schemes = {TaScheme()};
  spec.cp_limits = {0.10};

  std::ostringstream stream;
  NdjsonStreamSink sink(&stream);
  SweepRunner runner(ThreadedOptions(2));
  runner.AddSink(&sink);
  runner.Run(spec);

  int lines = 0;
  std::string line;
  std::istringstream reader(stream.str());
  while (std::getline(reader, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 2);
}

}  // namespace
}  // namespace dmasim
