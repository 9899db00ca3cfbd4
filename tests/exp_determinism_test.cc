// Determinism regression tests.
//
// The repository's reproducibility contract has two layers:
//   1. one simulation is a pure function of (SimulationOptions, seed) —
//      re-running it yields bit-identical SimulationResults;
//   2. the sweep engine adds no nondeterminism — an N-thread sweep
//      matches a 1-thread sweep run for run, down to the serialized
//      JSON bytes (host timing fields excluded).
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "exp/result_sink.h"
#include "exp/sweep_runner.h"
#include "server/simulation_driver.h"
#include "trace/workloads.h"
#include "util/fnv.h"

namespace dmasim {
namespace {

SweepOptions ThreadedOptions(int threads) {
  SweepOptions options;
  options.threads = threads;
  return options;
}

WorkloadSpec SmallWorkload(WorkloadSpec spec) {
  spec.duration = 8 * kMillisecond;
  return spec;
}

void ExpectIdenticalResults(const SimulationResults& a,
                            const SimulationResults& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.duration, b.duration);
  for (int i = 0; i < kEnergyBucketCount; ++i) {
    const auto bucket = static_cast<EnergyBucket>(i);
    EXPECT_EQ(a.energy.Of(bucket), b.energy.Of(bucket))
        << "energy bucket " << EnergyBucketName(bucket);
  }
  EXPECT_EQ(a.utilization_factor, b.utilization_factor);
  EXPECT_EQ(a.client_response.Count(), b.client_response.Count());
  EXPECT_EQ(a.client_response.Sum(), b.client_response.Sum());
  EXPECT_EQ(a.chunk_service.Sum(), b.chunk_service.Sum());
  EXPECT_EQ(a.transfer_latency.Sum(), b.transfer_latency.Sum());
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.gated_requests, b.gated_requests);
  EXPECT_EQ(a.controller.transfers_completed,
            b.controller.transfers_completed);
  EXPECT_EQ(a.server.reads, b.server.reads);
  EXPECT_EQ(a.hottest_chip_share, b.hottest_chip_share);
}

TEST(DeterminismTest, RepeatedRunIsBitIdentical) {
  const WorkloadSpec spec = SmallWorkload(OltpStorageSpec());
  SimulationOptions options;
  options.memory.dma.ta.enabled = true;
  options.memory.dma.ta.mu = 2.0;
  options.memory.dma.pl.enabled = true;

  const SimulationResults first = RunWorkload(spec, options);
  const SimulationResults second = RunWorkload(spec, options);
  ExpectIdenticalResults(first, second);
  EXPECT_GT(first.energy.Total().joules(), 0.0);
  EXPECT_GT(first.executed_events, 0u);
}

TEST(DeterminismTest, DifferentSeedsDiffer) {
  WorkloadSpec spec = SmallWorkload(SyntheticStorageSpec());
  SimulationOptions options;
  const SimulationResults first = RunWorkload(spec, options);
  spec.seed = 999;
  const SimulationResults second = RunWorkload(spec, options);
  EXPECT_NE(first.executed_events, second.executed_events);
}

ExperimentSpec DeterminismSweepSpec() {
  ExperimentSpec spec;
  spec.name = "determinism";
  spec.workloads = {SmallWorkload(OltpStorageSpec()),
                    SmallWorkload(SyntheticStorageSpec())};
  spec.schemes = {TaScheme(), TaPlScheme(2)};
  spec.cp_limits = {0.05, 0.10};
  spec.seeds = {1, 2};
  // 4 cells x (1 + 4) = 20 runs.
  return spec;
}

TEST(DeterminismTest, ParallelSweepMatchesSerialRunForRun) {
  const ExperimentSpec spec = DeterminismSweepSpec();

  SweepRunner serial(ThreadedOptions(1));
  const SweepResults serial_sweep = serial.Run(spec);
  SweepRunner parallel(ThreadedOptions(4));
  const SweepResults parallel_sweep = parallel.Run(spec);

  ASSERT_EQ(serial_sweep.records.size(), parallel_sweep.records.size());
  ASSERT_EQ(serial_sweep.summary.ok,
            static_cast<int>(serial_sweep.records.size()));
  for (std::size_t i = 0; i < serial_sweep.records.size(); ++i) {
    const RunRecord& a = serial_sweep.records[i];
    const RunRecord& b = parallel_sweep.records[i];
    ASSERT_EQ(a.plan.run_id, b.plan.run_id);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.mu, b.mu);
    EXPECT_EQ(a.energy_savings, b.energy_savings);
    EXPECT_EQ(a.response_degradation, b.response_degradation);
    ExpectIdenticalResults(a.results, b.results);
  }
}

TEST(DeterminismTest, PinnedConfigChecksumIsStableAcrossKernelChanges) {
  // Byte-level anchor across event-kernel changes: this sweep's JSON was
  // produced by the original binary-heap + std::function kernel, and its
  // FNV-1a checksum was pinned before the calendar-queue/coalescing
  // overhaul. Any kernel change that alters event ordering, energy
  // integration, or serialization shows up here as a checksum mismatch.
  ExperimentSpec spec;
  spec.name = "pinned";
  spec.workloads = {SmallWorkload(OltpStorageSpec()),
                    SmallWorkload(SyntheticStorageSpec())};
  spec.schemes = {TaScheme(), TaPlScheme(2)};
  spec.cp_limits = {0.05, 0.10};
  spec.seeds = {1, 2};

  SweepRunner runner(ThreadedOptions(2));
  const SweepResults sweep = runner.Run(spec);
  const std::string json =
      SweepToJson(sweep.summary, sweep.records, /*include_timing=*/false)
          .Dump(true);

  Fnv1a hash;
  hash.MixBytes(json);

  // Re-running the same sweep must reproduce the bytes in-process on
  // every platform.
  const SweepResults again = SweepRunner(ThreadedOptions(2)).Run(spec);
  EXPECT_EQ(json, SweepToJson(again.summary, again.records,
                              /*include_timing=*/false)
                      .Dump(true));

#if defined(__GNUC__) && !defined(__clang__)
  // The absolute pin is compiler-gated: double rounding in libm-free
  // paths is identical for a given toolchain, but other compilers may
  // legally produce different last-bit doubles (and therefore different
  // serialized bytes).
  EXPECT_EQ(json.size(), 43447u);
  EXPECT_EQ(hash.hash(), 6942302054424692086ULL);
#endif
}

TEST(DeterminismTest, ChunkRunCoalescingIsArtifactInvisible) {
  // The coalescing fast path must be a pure wall-clock optimization:
  // running the same workload with coalescing forced off yields the
  // identical artifact, down to the logical event count. Only the
  // stepped (real queue pop) count may differ.
  const WorkloadSpec spec = SmallWorkload(SyntheticStorageSpec());
  SimulationOptions options;
  options.memory.dma.ta.enabled = true;
  options.memory.dma.ta.mu = 2.0;
  options.memory.dma.pl.enabled = true;

  SimulationOptions off = options;
  off.memory.coalesce_chunk_runs = false;

  const SimulationResults with_runs = RunWorkload(spec, options);
  const SimulationResults without_runs = RunWorkload(spec, off);
  ExpectIdenticalResults(with_runs, without_runs);
  EXPECT_EQ(with_runs.executed_events, without_runs.executed_events);
  // Coalescing can only reduce real pops, never add them.
  EXPECT_LE(with_runs.stepped_events, without_runs.stepped_events);
}

TEST(DeterminismTest, ParallelSweepJsonIsByteIdenticalToSerial) {
  const ExperimentSpec spec = DeterminismSweepSpec();

  SweepRunner serial(ThreadedOptions(1));
  const SweepResults serial_sweep = serial.Run(spec);
  SweepRunner parallel(ThreadedOptions(3));
  const SweepResults parallel_sweep = parallel.Run(spec);

  const std::string serial_json =
      SweepToJson(serial_sweep.summary, serial_sweep.records,
                  /*include_timing=*/false)
          .Dump(true);
  const std::string parallel_json =
      SweepToJson(parallel_sweep.summary, parallel_sweep.records,
                  /*include_timing=*/false)
          .Dump(true);
  EXPECT_EQ(serial_json, parallel_json);
  EXPECT_NE(serial_json.find("\"runs\""), std::string::npos);
}

}  // namespace
}  // namespace dmasim
