// End-to-end tests of the runtime invariant auditor: clean simulations
// pass every registered invariant at level 2, and a deliberately seeded
// fault (a chip model that skips the nap resync delay) is caught by the
// power-state legality invariant.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/simulation_audit.h"
#include "server/simulation_driver.h"
#include "trace/workloads.h"

namespace dmasim {
namespace {

WorkloadSpec ShortWorkload(Tick duration = 30 * kMillisecond) {
  WorkloadSpec spec = OltpStorageSpec();
  spec.duration = duration;
  return spec;
}

SimulationOptions AuditedOptions() {
  SimulationOptions options;
  options.audit_level = 2;
  options.audit_abort = false;  // Collect, so the test can assert counts.
  return options;
}

TEST(SimulationAuditTest, BaselineCleanRunPassesAllInvariants) {
  const SimulationResults results =
      RunWorkload(ShortWorkload(), AuditedOptions());
  EXPECT_GT(results.audit_checks, 0u);
  EXPECT_EQ(results.audit_failures, 0u);
  // The run did real work, so the invariants judged a live system.
  EXPECT_GT(results.controller.transfers_completed, 0u);
}

TEST(SimulationAuditTest, TemporalAlignmentCleanRunPassesAllInvariants) {
  // Sparse arrivals so the run quiesces within the default drain. This
  // is the non-vacuous path through the drained invariants: the event
  // queue empties, so they really assert the pool and gated queues are
  // clean rather than passing on the horizon-cutoff escape hatch.
  WorkloadSpec spec = ShortWorkload();
  spec = WithIntensity(spec, 30.0);
  SimulationOptions options = AuditedOptions();
  options.memory.dma.ta.enabled = true;
  options.memory.dma.ta.mu = 4.0;  // Generous budget: gating definitely fires.
  const SimulationResults results = RunWorkload(spec, options);
  EXPECT_GT(results.audit_checks, 0u);
  EXPECT_EQ(results.audit_failures, 0u);
  // Gating happened, so the aligner invariants (lockstep, slack budget,
  // drained queues) were exercised, not vacuous.
  EXPECT_GT(results.gated_requests, 0u);
}

TEST(SimulationAuditTest, DenseTraceCutOffByHorizonStillPassesDrainChecks) {
  // The default OLTP trace with a generous mu holds gated releases past
  // RunUntil(): descriptors are legitimately in flight when the clock
  // stops. The drained invariants must recognize the non-empty event
  // queue as a horizon cutoff, not a leak.
  SimulationOptions options = AuditedOptions();
  options.memory.dma.ta.enabled = true;
  options.memory.dma.ta.mu = 4.0;
  const SimulationResults results = RunWorkload(ShortWorkload(), options);
  EXPECT_GT(results.audit_checks, 0u);
  EXPECT_EQ(results.audit_failures, 0u);
  EXPECT_GT(results.gated_requests, 0u);
}

TEST(SimulationAuditTest, StaticNapCleanRunPassesAllInvariants) {
  // Static nap maximizes power-state transitions, stressing the
  // transition-legality and energy-conservation invariants.
  SimulationOptions options = AuditedOptions();
  options.policy = PolicyKind::kStaticNap;
  const SimulationResults results =
      RunWorkload(ShortWorkload(), options);
  EXPECT_GT(results.audit_checks, 0u);
  EXPECT_EQ(results.audit_failures, 0u);
}

TEST(SimulationAuditTest, EndOfRunOnlyLevelStillChecks) {
  SimulationOptions options = AuditedOptions();
  options.audit_level = 1;  // End-of-run registry pass only.
  const SimulationResults results =
      RunWorkload(ShortWorkload(10 * kMillisecond), options);
  EXPECT_GT(results.audit_checks, 0u);
  EXPECT_EQ(results.audit_failures, 0u);
}

TEST(SimulationAuditTest, MonitoredRunPassesRegionBudgetInvariant) {
  // The access monitor's split/merge churn runs under the periodic
  // monitor-region-budget invariant: region count within
  // [min_regions, max_regions] and the region list a gap-free sorted
  // tiling of the page space, judged at every level-2 audit point.
  SimulationOptions options = AuditedOptions();
  options.memory.dma.ta.enabled = true;
  options.memory.dma.ta.mu = 2.0;
  options.memory.dma.pl.enabled = true;
  options.memory.monitor.enabled = true;
  SchemeRule hot;
  hot.size_lo = 1;
  hot.size_hi = 1;
  hot.acc_lo = 8;
  hot.action = SchemeAction::kMigrateHot;
  options.memory.monitor.rules.push_back(hot);

  const SimulationResults results = RunWorkload(ShortWorkload(), options);
  EXPECT_GT(results.audit_checks, 0u);
  EXPECT_EQ(results.audit_failures, 0u);
  // Splits actually happened, so the budget invariant judged a live
  // region map rather than the untouched initial tiling.
  EXPECT_GT(results.monitor.splits, 0u);
  EXPECT_GE(results.monitor.regions, 32);
  EXPECT_LE(results.monitor.regions, 1024);
}

TEST(SimulationAuditTest, PlRunsPassLayoutIndexInvariant) {
  // 170 ms runs eight layout rounds, the last of which ages the oracle
  // counts, so the layout-index invariant judges a referenced-page index
  // that grew by Record and was compacted by Age, and a page map after
  // real swaps -- once planned from the oracle, once from the monitor.
  for (const bool monitored : {false, true}) {
    SCOPED_TRACE(monitored ? "monitored" : "oracle");
    SimulationOptions options = AuditedOptions();
    options.audit_level = 1;
    options.memory.dma.ta.enabled = true;
    options.memory.dma.ta.mu = 2.0;
    options.memory.dma.pl.enabled = true;
    options.memory.monitor.enabled = monitored;
    SchemeRule hot;
    hot.size_lo = 1;
    hot.size_hi = 1;
    hot.acc_lo = 8;
    hot.action = SchemeAction::kMigrateHot;
    options.memory.monitor.rules.push_back(hot);
    const SimulationResults results =
        RunWorkload(ShortWorkload(170 * kMillisecond), options);
    EXPECT_GT(results.audit_checks, 0u);
    EXPECT_EQ(results.audit_failures, 0u);
    EXPECT_GT(results.controller.migrations, 0u);
  }
}

TEST(LayoutIndexCheckTest, ReportsHandBuiltMismatches) {
  // Two chips of two pages; pages 1 and 3 are referenced.
  const std::vector<std::uint32_t> counts = {0, 3, 0, 1};
  const std::vector<std::int32_t> layout = {0, 1, 0, 1};
  std::string message;
  EXPECT_TRUE(CheckLayoutIndex(counts, {3, 1}, layout, 2, 2, &message))
      << message;

  EXPECT_FALSE(CheckLayoutIndex(counts, {1}, layout, 2, 2, &message));
  EXPECT_NE(message.find("page 3 has count 1 but is missing"),
            std::string::npos)
      << message;
  EXPECT_FALSE(CheckLayoutIndex(counts, {1, 3, 1}, layout, 2, 2, &message));
  EXPECT_NE(message.find("lists page 1 twice"), std::string::npos) << message;
  EXPECT_FALSE(CheckLayoutIndex(counts, {1, 2, 3}, layout, 2, 2, &message));
  EXPECT_NE(message.find("lists page 2 whose count is 0"), std::string::npos)
      << message;
  EXPECT_FALSE(CheckLayoutIndex(counts, {1, 3, 9}, layout, 2, 2, &message));
  EXPECT_NE(message.find("page 9 outside the page space"), std::string::npos)
      << message;

  // A swap that lost its partner: chip 0 holds three pages.
  EXPECT_FALSE(
      CheckLayoutIndex(counts, {1, 3}, {0, 0, 0, 1}, 2, 2, &message));
  EXPECT_NE(message.find("chip 0 holds 3 logical pages, not 2"),
            std::string::npos)
      << message;
  EXPECT_FALSE(
      CheckLayoutIndex(counts, {1, 3}, {0, 1, 2, 1}, 2, 2, &message));
  EXPECT_NE(message.find("page 2 maps to chip 2 of 2"), std::string::npos)
      << message;
}

TEST(SimulationAuditTest, SeededResyncFaultIsCaught) {
  // Corrupt the model the chips actually run -- waking from nap takes
  // zero time, i.e. the resync delay is skipped -- while the auditor
  // judges transitions against the pristine Table 1 reference.
  static const RdramChipModel kReference{PowerModel{}};
  SimulationOptions options = AuditedOptions();
  options.policy = PolicyKind::kStaticNap;  // Guarantees nap/wake cycles.
  options.memory.power.from_nap.duration = Ticks(0);
  options.audit_reference_model = &kReference;

  const SimulationResults results =
      RunWorkload(ShortWorkload(10 * kMillisecond), options);
  EXPECT_GT(results.audit_failures, 0u);
}

TEST(SimulationAuditDeathTest, SeededFaultAbortsInAbortMode) {
  static const RdramChipModel kReference{PowerModel{}};
  SimulationOptions options;
  options.audit_level = 2;
  options.audit_abort = true;
  options.policy = PolicyKind::kStaticNap;
  options.memory.power.from_nap.duration = Ticks(0);
  options.audit_reference_model = &kReference;

  EXPECT_DEATH(RunWorkload(ShortWorkload(10 * kMillisecond), options),
               "power-state-legality");
}

// A level-2 periodic pass re-arms itself one period later, so a period
// of zero would re-arm at the same tick forever and a negative one would
// schedule into the past. Both are refused when the audit is built.
TEST(SimulationAuditDeathTest, NonPositivePeriodIsRefusedAtLevelTwo) {
  SimulationOptions options;
  options.audit_level = 2;
  for (Tick period : {Tick{0}, Tick{-1}}) {
    options.audit_period = period;
    EXPECT_DEATH(RunWorkload(ShortWorkload(2 * kMillisecond), options),
                 "precondition violated")
        << "period=" << period;
  }
}

}  // namespace
}  // namespace dmasim
