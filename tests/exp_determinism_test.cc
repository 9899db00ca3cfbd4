// Determinism regression tests.
//
// The repository's reproducibility contract has two layers:
//   1. one simulation is a pure function of (SimulationOptions, seed) —
//      re-running it yields bit-identical SimulationResults;
//   2. the sweep engine adds no nondeterminism — an N-thread sweep
//      matches a 1-thread sweep run for run, down to the serialized
//      JSON bytes (host timing fields excluded).
#include <bit>
#include <cstdint>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "exp/result_sink.h"
#include "exp/sweep_runner.h"
#include "mon/scheme_parser.h"
#include "results_compare.h"
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

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(DeterminismTest, PinnedDatabaseRunIsStable) {
  // Byte-level anchor for the CPU-access path, which neither the pinned
  // sweep (OLTP-St and Synthetic-St) nor the monitored pin (OLTP-St)
  // reaches: one OLTP-Db run, 233 CPU accesses per transfer, whose
  // energy buckets, mean client response and event counts are pinned to
  // the bit. Kernel and chip-queue changes must leave every value here
  // unchanged, stepped events included. At mu 2.0 this trace gates no
  // request; mu 20 gates 722, so the pin covers DMA-TA's slack releases
  // beside the CPU-priority path.
  WorkloadSpec spec = OltpDatabaseSpec();
  spec.duration = 10 * kMillisecond;
  const Trace trace = GenerateWorkload(spec);

  SimulationOptions options;
  options.memory.dma.ta.enabled = true;
  options.memory.dma.ta.mu = 20.0;
  options.memory.dma.pl.enabled = true;
  const SimulationResults r =
      RunTrace(trace, spec.miss_ratio, spec.duration, options, spec.name);
  EXPECT_GT(r.server.cpu_accesses, 0u);

#if defined(__GNUC__) && !defined(__clang__)
  // Compiler-gated for the same reason as the pinned sweep checksum.
  constexpr std::uint64_t kEnergyBits[kEnergyBucketCount] = {
      0x3f62e06789512284ULL, 0x3f5db9ed8280b068ULL, 0x3f1ec44669ff4dcdULL,
      0x3f23a9b1fee3f606ULL, 0x3f6534e4656d1896ULL, 0x0ULL};
  for (int i = 0; i < kEnergyBucketCount; ++i) {
    const auto bucket = static_cast<EnergyBucket>(i);
    EXPECT_EQ(Bits(r.energy.Of(bucket).joules()), kEnergyBits[i])
        << "energy bucket " << EnergyBucketName(bucket) << " = " << std::hex
        << Bits(r.energy.Of(bucket).joules());
  }
  EXPECT_EQ(Bits(r.client_response.Mean()), 0x41862c5f24f52ee0ULL)
      << std::hex << Bits(r.client_response.Mean());
  EXPECT_EQ(r.executed_events, 640921u);
  // Group chunk runs moved only this count (611,314 -> 611,213), and so
  // did retiring a chip's chain end inline (611,213 -> 596,584).
  EXPECT_EQ(r.stepped_events, 596584u);
  EXPECT_EQ(r.server.cpu_accesses, 247725u);
  EXPECT_EQ(r.gated_requests, 722u);
  EXPECT_EQ(r.releases_by_slack, 722u);
  // The run's one layout round fires at its last tick (10 ms plus the
  // 10 ms drain), so none of its 90 moves is served: they are pending,
  // not counted, and the Migration bucket above is 0 J.
  EXPECT_EQ(r.controller.migrations, 0u);
  EXPECT_EQ(r.controller.migrations_pending, 90u);
#endif
}

TEST(DeterminismTest, PinnedLayoutRoundsAreStable) {
  // Byte-level anchor for PL's layout rounds: 200 ms of OLTP-St (ten
  // 20 ms rounds, the eighth of which also ages the oracle counts),
  // planned from the oracle counts and from the monitor's regions with
  // 2 and 3 groups. Planner, popularity-index and hotness-error changes
  // must leave every value here unchanged.
  WorkloadSpec spec = OltpStorageSpec();
  spec.duration = 200 * kMillisecond;
  const Trace trace = GenerateWorkload(spec);
  const SchemeParseResult schemes = ParseSchemeString(
      "1 1 8 * 0 migrate-hot\n"
      "64 * 0 1 4 pin-cold\n"
      "* * 0 0 8 demote-chip\n");
  ASSERT_TRUE(schemes.ok()) << schemes.error;

  struct Pin {
    bool monitored;
    int groups;
    std::uint64_t energy_bits[kEnergyBucketCount];
    std::uint64_t response_bits;
    std::uint64_t migrations;
    std::uint64_t deferred_migrations;
    std::uint64_t hotness_error_bits;
  };
  // The hotness error of an oracle run is never computed: -1.0.
  constexpr Pin kPins[] = {
      {false, 2,
       {0x3f80952c2a330ac0ULL, 0x3f9107833e205261ULL, 0x3f03a726caeffd94ULL,
        0x3f44c3ff358d24feULL, 0x3f97a1f4bbfe6b8fULL, 0x3f57a7e7652979afULL},
       0x41fb65521a05102dULL, 940u, 0u, 0xbff0000000000000ULL},
      {false, 3,
       {0x3f80a0d9764ad850ULL, 0x3f91b5eb764e03eaULL, 0x3f04499f418a74eeULL,
        0x3f45d44e335a436eULL, 0x3f97c31b63e4fc66ULL, 0x3f6149f6bb8014ebULL},
       0x41fc01ddfa54e5d9ULL, 1374u, 0u, 0xbff0000000000000ULL},
      {true, 2,
       {0x3f80b2f806d9b20fULL, 0x3f91f1c7954bf05aULL, 0x3f0442bd135ada2bULL,
        0x3f45c79ded751090ULL, 0x3f97c1d28a2f9b2aULL, 0x3f2a933a6b1c133eULL},
       0x41fba42c04364ce1ULL, 132u, 0u, 0x3fdef7bd4064db64ULL},
      {true, 3,
       {0x3f80c7e8255ca1e4ULL, 0x3f925be01b8634c6ULL, 0x3f04dd9d2fc44825ULL,
        0x3f46ccf67d9f36bfULL, 0x3f97e0d27b28010fULL, 0x3f321e908ed8f5e7ULL},
       0x41fbaca37ed85891ULL, 180u, 0u, 0x3fde8c9ca11d69c8ULL},
  };
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(std::string(pin.monitored ? "monitored" : "oracle") +
                 " groups " + std::to_string(pin.groups));
    SimulationOptions options;
    options.memory.dma.ta.enabled = true;
    options.memory.dma.ta.mu = 2.0;
    options.memory.dma.pl.enabled = true;
    options.memory.dma.pl.groups = pin.groups;
    options.memory.monitor.enabled = pin.monitored;
    if (pin.monitored) options.memory.monitor.rules = schemes.rules;
    const SimulationResults r =
        RunTrace(trace, spec.miss_ratio, spec.duration, options, spec.name);
    EXPECT_GT(r.controller.migrations, 0u);

#if defined(__GNUC__) && !defined(__clang__)
    // Compiler-gated for the same reason as the pinned sweep checksum.
    for (int i = 0; i < kEnergyBucketCount; ++i) {
      const auto bucket = static_cast<EnergyBucket>(i);
      EXPECT_EQ(Bits(r.energy.Of(bucket).joules()), pin.energy_bits[i])
          << "energy bucket " << EnergyBucketName(bucket) << " = "
          << std::hex << Bits(r.energy.Of(bucket).joules());
    }
    EXPECT_EQ(Bits(r.client_response.Mean()), pin.response_bits)
        << std::hex << Bits(r.client_response.Mean());
    EXPECT_EQ(r.controller.migrations, pin.migrations);
    EXPECT_EQ(r.controller.deferred_migrations, pin.deferred_migrations);
    EXPECT_EQ(Bits(r.monitor.hotness_error), pin.hotness_error_bits)
        << std::hex << Bits(r.monitor.hotness_error);
#endif
  }
}

// Chunk-run coalescing must be a pure host-time optimization: the same
// trace run with coalescing forced off (the strict two-events-per-chunk
// execution) yields the same SimulationResults in every field, doubles
// to the bit, down to the logical event count. Only the real queue pops
// (stepped events and the calendar counters) may differ, and only
// downwards. Returns {stepped with runs, stepped without}.
std::pair<std::uint64_t, std::uint64_t> ExpectCoalescingInvisible(
    const Trace& trace, const WorkloadSpec& spec,
    const SimulationOptions& options) {
  SimulationOptions off = options;
  off.memory.coalesce_chunk_runs = false;
  const SimulationResults with_runs =
      RunTrace(trace, spec.miss_ratio, spec.duration, options, spec.name);
  const SimulationResults without_runs =
      RunTrace(trace, spec.miss_ratio, spec.duration, off, spec.name);
  ExpectSameOutcome(with_runs, without_runs);
  EXPECT_LE(with_runs.stepped_events, without_runs.stepped_events);
  return {with_runs.stepped_events, without_runs.stepped_events};
}

TEST(DeterminismTest, ChunkRunCoalescingIsArtifactInvisible) {
  const WorkloadSpec spec = SmallWorkload(SyntheticStorageSpec());
  SimulationOptions options;
  options.memory.dma.ta.enabled = true;
  options.memory.dma.ta.mu = 2.0;
  options.memory.dma.pl.enabled = true;
  ExpectCoalescingInvisible(GenerateWorkload(spec), spec, options);
}

TEST(DeterminismTest, ChunkRunCoalescingIsInvisibleOnTheMonitoredBenchmark) {
  // The oltp-st-mon benchmark's configuration at 60 ms: DMA-TA-PL(2) with
  // the hot_cold.scheme monitor, mu calibrated at CP-Limit 10% from the
  // baseline. PL concentrates traffic on a few hot chips, so most runs
  // are groups of several transfers streaming from several buses.
  WorkloadSpec spec = OltpStorageSpec();
  spec.duration = 60 * kMillisecond;
  const Trace trace = GenerateWorkload(spec);
  const SchemeParseResult schemes = ParseSchemeFile(
      std::string(DMASIM_SOURCE_DIR) + "/examples/schemes/hot_cold.scheme");
  ASSERT_TRUE(schemes.ok()) << schemes.error;

  SimulationOptions options;
  const SimulationResults baseline =
      RunTrace(trace, spec.miss_ratio, spec.duration, options, spec.name);
  options.memory.dma.ta.enabled = true;
  options.memory.dma.ta.mu = Calibrate(baseline).MuFor(0.10);
  options.memory.dma.pl.enabled = true;
  options.memory.monitor.enabled = true;
  options.memory.monitor.rules = schemes.rules;
  const auto [with_runs, without_runs] =
      ExpectCoalescingInvisible(trace, spec, options);
  // The group runs fire: at most three pops in four of the per-chunk run.
  EXPECT_LE(4 * with_runs, 3 * without_runs);
}

TEST(DeterminismTest, ChunkRunCoalescingIsInvisibleWhileGating) {
  // DMA-TA alone at a mu that gates thousands of first requests, so runs
  // start and stop around gated chips, releases and epochs.
  WorkloadSpec spec = OltpStorageSpec();
  spec.duration = 60 * kMillisecond;
  const Trace trace = GenerateWorkload(spec);
  SimulationOptions options;
  options.memory.dma.ta.enabled = true;
  options.memory.dma.ta.mu = 20.0;
  const SimulationResults gated =
      RunTrace(trace, spec.miss_ratio, spec.duration, options, spec.name);
  EXPECT_GT(gated.gated_requests, 1000u);
  ExpectCoalescingInvisible(trace, spec, options);
}

TEST(DeterminismTest, ChunkRunCoalescingIsInvisibleOnDss) {
  // DSS-St's long scans keep several transfers streaming to one chip.
  WorkloadSpec spec = DssStorageSpec();
  spec.duration = 20 * kMillisecond;
  SimulationOptions options;
  options.memory.dma.ta.enabled = true;
  options.memory.dma.ta.mu = 2.0;
  options.memory.dma.pl.enabled = true;
  ExpectCoalescingInvisible(GenerateWorkload(spec), spec, options);
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
