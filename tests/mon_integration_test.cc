// End-to-end acceptance tests for the online access monitor: on the
// paper's OLTP storage workload, DMA-TA-PL fed by the monitored
// popularity estimate must recover at least 90% of the energy saving the
// oracle tracker achieves, at no more than 1% simulated monitoring
// overhead -- and a monitored run must be exactly reproducible.
#include <bit>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "mon/scheme_parser.h"
#include "server/simulation_driver.h"
#include "trace/workloads.h"

namespace dmasim {
namespace {

// Short enough to keep the suite fast, long enough for the monitor to
// pass several aging horizons (the recovery margin is stable from
// ~200 ms on; see examples/monitor_eval.cpp for the full experiment).
constexpr Tick kDuration = 200 * kMillisecond;
constexpr double kCpLimit = 0.10;

SimulationOptions MonitoredOptions(const SimulationOptions& oracle_options) {
  SimulationOptions options = oracle_options;
  options.memory.monitor.enabled = true;
  const SchemeParseResult schemes = ParseSchemeString(
      "1 1 8 * 0 migrate-hot\n"
      "64 * 0 1 4 pin-cold\n"
      "* * 0 0 8 demote-chip\n");
  EXPECT_TRUE(schemes.ok()) << schemes.error;
  options.memory.monitor.rules = schemes.rules;
  return options;
}

TEST(MonitorIntegrationTest, MonitoredPlRecoversOracleSavings) {
  WorkloadSpec spec = OltpStorageSpec();
  spec.duration = kDuration;
  const Trace trace = GenerateWorkload(spec);

  SimulationOptions options;
  const SimulationResults baseline = RunTrace(
      trace, spec.miss_ratio, spec.duration, options, spec.name);
  const CpCalibration calibration = Calibrate(baseline);

  SimulationOptions oracle_options = options;
  oracle_options.memory.dma.ta.enabled = true;
  oracle_options.memory.dma.ta.mu = calibration.MuFor(kCpLimit);
  oracle_options.memory.dma.pl.enabled = true;
  const SimulationResults oracle = RunTrace(
      trace, spec.miss_ratio, spec.duration, oracle_options, spec.name);

  const SimulationResults monitored =
      RunTrace(trace, spec.miss_ratio, spec.duration,
               MonitoredOptions(oracle_options), spec.name);

  const double oracle_savings = oracle.EnergySavingsVs(baseline);
  const double monitored_savings = monitored.EnergySavingsVs(baseline);
  ASSERT_GT(oracle_savings, 0.0);

  // The ISSUE acceptance gates.
  EXPECT_GE(monitored_savings, 0.9 * oracle_savings)
      << "monitored PL recovers only "
      << 100.0 * monitored_savings / oracle_savings
      << "% of the oracle saving";
  EXPECT_LE(monitored.monitor.overhead_fraction, 0.01);

  // The monitored run must also stay inside the calibrated CP-Limit.
  EXPECT_LE(monitored.ResponseDegradationVs(baseline), kCpLimit);

  // Monitor summary plumbed through the driver.
  EXPECT_TRUE(monitored.monitor.enabled);
  EXPECT_FALSE(oracle.monitor.enabled);
  EXPECT_GT(monitored.monitor.probes, 0u);
  EXPECT_GT(monitored.monitor.observations, 0u);
  EXPECT_GT(monitored.monitor.aggregations, 0u);
  EXPECT_GE(monitored.monitor.hotness_error, 0.0);
  EXPECT_LE(monitored.monitor.hotness_error, 1.0);
  EXPECT_GT(monitored.controller.migrations, 0u);

  // Scheme labels distinguish the popularity sources; the suffix appears
  // only when the monitor is on (default artifacts keep their bytes).
  EXPECT_NE(monitored.scheme.find("DMA-TA-PL"), std::string::npos);
  EXPECT_NE(monitored.scheme.find("+mon"), std::string::npos);
  EXPECT_EQ(oracle.scheme.find("+mon"), std::string::npos);
}

TEST(MonitorIntegrationTest, DeepDemoteSchemeRunsAndApplies) {
  WorkloadSpec spec = OltpStorageSpec();
  spec.duration = 100 * kMillisecond;
  const Trace trace = GenerateWorkload(spec);

  SimulationOptions options;
  options.memory.monitor.enabled = true;
  // Idle thresholds beyond the run horizon: the scheme action is the
  // only way down, so the depth suffix is what decides the reached
  // states (with the defaults, idle chips free-fall to powerdown long
  // before the first aggregation and there is nothing left to demote).
  options.thresholds.active_to_standby = kSecond;
  options.thresholds.standby_to_nap = kSecond;
  options.thresholds.nap_to_powerdown = kSecond;
  // A tight aggregation cadence and a short streak so chips that woke
  // for a burst and went quiet are caught while still Active (chips
  // that never woke sit in Powerdown and are refused — they have no
  // lower state).
  options.memory.monitor.aggregation_interval = kMillisecond;
  const SchemeParseResult schemes = ParseSchemeString(
      "* * 0 0 2 demote-chip:2\n");
  ASSERT_TRUE(schemes.ok()) << schemes.error;
  options.memory.monitor.rules = schemes.rules;

  const SimulationResults deep = RunTrace(
      trace, spec.miss_ratio, spec.duration, options, spec.name);
  EXPECT_GT(deep.monitor.demotions_requested, 0u);
  EXPECT_GT(deep.monitor.demotions_applied, 0u);

  // The deeper target must change the power outcome versus the same
  // rule at depth 1: strictly more energy in the low-power buckets is
  // not guaranteed in general, but the runs must at least differ — a
  // depth suffix that parses but changes nothing would be dead config.
  SimulationOptions shallow_options = options;
  const SchemeParseResult shallow_schemes = ParseSchemeString(
      "* * 0 0 2 demote-chip\n");
  ASSERT_TRUE(shallow_schemes.ok()) << shallow_schemes.error;
  shallow_options.memory.monitor.rules = shallow_schemes.rules;
  const SimulationResults shallow = RunTrace(
      trace, spec.miss_ratio, spec.duration, shallow_options, spec.name);
  EXPECT_NE(deep.energy.Total(), shallow.energy.Total());
}

TEST(MonitorDeterminismTest, MonitoredRunIsReproducible) {
  WorkloadSpec spec = OltpStorageSpec();
  spec.duration = 50 * kMillisecond;
  const Trace trace = GenerateWorkload(spec);

  SimulationOptions options;
  options.memory.dma.ta.enabled = true;
  options.memory.dma.ta.mu = 2.0;
  options.memory.dma.pl.enabled = true;
  const SimulationOptions monitored = MonitoredOptions(options);

  const SimulationResults a = RunTrace(
      trace, spec.miss_ratio, spec.duration, monitored, spec.name);
  const SimulationResults b = RunTrace(
      trace, spec.miss_ratio, spec.duration, monitored, spec.name);

  EXPECT_EQ(a.energy.Total(), b.energy.Total());
  EXPECT_EQ(a.controller.migrations, b.controller.migrations);
  EXPECT_EQ(a.monitor.probes, b.monitor.probes);
  EXPECT_EQ(a.monitor.observations, b.monitor.observations);
  EXPECT_EQ(a.monitor.splits, b.monitor.splits);
  EXPECT_EQ(a.monitor.merges, b.monitor.merges);
  EXPECT_EQ(a.monitor.regions, b.monitor.regions);
  EXPECT_EQ(a.monitor.scheme_matches, b.monitor.scheme_matches);
  EXPECT_EQ(a.monitor.overhead_fraction, b.monitor.overhead_fraction);
  EXPECT_EQ(a.monitor.hotness_error, b.monitor.hotness_error);
}

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(MonitorDeterminismTest, PinnedMonitoredRunIsStable) {
  // Byte-level anchor for the monitor's sampling machinery: one monitored
  // OLTP-St run whose energy buckets, mean client response, logical event
  // count and every MonitorSummary field are pinned to the bit. The pins
  // were recorded with one probe event per sampling tick; the armed
  // probes must reproduce them (only stepped_events and the calendar
  // counters may move).
  WorkloadSpec spec = OltpStorageSpec();
  spec.duration = 60 * kMillisecond;
  const Trace trace = GenerateWorkload(spec);

  SimulationOptions options;
  options.memory.dma.ta.enabled = true;
  options.memory.dma.ta.mu = 2.0;
  options.memory.dma.pl.enabled = true;
  const SimulationOptions monitored = MonitoredOptions(options);
  const SimulationResults r = RunTrace(trace, spec.miss_ratio, spec.duration,
                                       monitored, spec.name);

  // Closed form, on every compiler: one probe per sampling tick.
  EXPECT_EQ(r.monitor.probes,
            static_cast<std::uint64_t>(
                r.duration / monitored.memory.monitor.sampling_interval));
  EXPECT_GT(r.controller.migrations, 0u);

#if defined(__GNUC__) && !defined(__clang__)
  // Compiler-gated for the same reason as the pinned sweep checksum
  // (exp_determinism_test.cc): other compilers may legally round doubles
  // differently in the last bit.
  constexpr std::uint64_t kEnergyBits[kEnergyBucketCount] = {
      0x3f636f2ec825ae84ULL, 0x3f75382cec789c94ULL, 0x3ee8a3f6fbdb9449ULL,
      0x3f2b588c004f6b59ULL, 0x3f7f682db1d14ccdULL, 0x3f25be4711d12713ULL};
  for (int i = 0; i < kEnergyBucketCount; ++i) {
    const auto bucket = static_cast<EnergyBucket>(i);
    EXPECT_EQ(Bits(r.energy.Of(bucket).joules()), kEnergyBits[i])
        << "energy bucket " << EnergyBucketName(bucket) << " = " << std::hex
        << Bits(r.energy.Of(bucket).joules());
  }
  EXPECT_EQ(Bits(r.client_response.Mean()), 0x41ee905733ab7b52ULL)
      << std::hex << Bits(r.client_response.Mean());
  EXPECT_EQ(r.executed_events, 195426u);

  const MonitorSummary& m = r.monitor;
  EXPECT_TRUE(m.enabled);
  EXPECT_EQ(m.regions, 1024);
  EXPECT_EQ(m.probes, 70000u);
  EXPECT_EQ(m.observations, 3089u);
  EXPECT_EQ(m.splits, 1630u);
  EXPECT_EQ(m.merges, 2264u);
  EXPECT_EQ(m.aggregations, 35u);
  EXPECT_EQ(m.scheme_matches, 359u);
  EXPECT_EQ(m.demotions_requested, 0u);
  EXPECT_EQ(m.demotions_applied, 0u);
  EXPECT_EQ(Bits(m.overhead_fraction), 0x3f7a930a8f689f82ULL)
      << std::hex << Bits(m.overhead_fraction);
  EXPECT_EQ(Bits(m.hotness_error), 0x3fd8085543bdddedULL)
      << std::hex << Bits(m.hotness_error);
#endif
}

}  // namespace
}  // namespace dmasim
