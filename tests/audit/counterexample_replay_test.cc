// Re-executes committed model-checker counterexamples through the full
// event-driven simulator. The checker (src/check) found the violation in
// its abstracted transition system; this suite closes the loop by
// injecting the same fault and the same action sequence into a real
// MemoryController under the level-2 audit and asserting the auditor
// catches it -- and that the identical drive on the pristine model stays
// clean, so the failure is attributable to the fault, not the mapping.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "audit/simulation_audit.h"
#include "check/counterexample.h"
#include "core/memory_controller.h"
#include "io/dma_transfer.h"
#include "mem/chip_power_model.h"
#include "mem/power_policy.h"
#include "sim/simulator.h"

#ifndef DMASIM_SOURCE_DIR
#error "DMASIM_SOURCE_DIR must point at the repository root"
#endif

namespace dmasim {
namespace {

std::string FixturePath() {
  return std::string(DMASIM_SOURCE_DIR) +
         "/tests/check/data/resync_skip.counterexample";
}

check::Counterexample LoadFixture() {
  check::Counterexample ce;
  std::string error;
  const bool ok = check::ReadCounterexampleFile(FixturePath(), &ce, &error);
  EXPECT_TRUE(ok) << error;
  return ce;
}

std::unique_ptr<LowPowerPolicy> MapPolicy(check::CheckPolicy policy) {
  switch (policy) {
    case check::CheckPolicy::kStaticNap:
      return std::make_unique<StaticPolicy>(PowerState::kNap);
    case check::CheckPolicy::kStaticPowerdown:
      return std::make_unique<StaticPolicy>(PowerState::kPowerdown);
    case check::CheckPolicy::kDynamicThreshold:
      break;
  }
  return std::make_unique<DynamicThresholdPolicy>();
}

MemorySystemConfig MapConfig(const check::CheckerConfig& cc, bool faulted) {
  MemorySystemConfig config;
  config.chips = cc.chips;  // Pages stripe across chips: ChipOf(p) = p % chips.
  config.pages_per_chip = 16;
  config.page_bytes = 8192;
  config.bus_count = cc.buses;
  config.dma.ta.enabled = true;
  config.dma.ta.mu = cc.mu;
  config.dma.ta.epoch_length = cc.epoch_length;
  config.dma.ta.gather_depth_factor = cc.gather_depth_factor;
  config.dma.ta.min_gating_budget = cc.min_gating_budget;
  config.dma.ta.slack_cap_requests = cc.slack_cap_requests;
  if (faulted) {
    // check::CheckFault::kResyncSkip in the full simulator: the chips run
    // a model whose nap wake takes zero time while the auditor judges
    // against the pristine Table 1 reference.
    config.power.from_nap.duration = Ticks(0);
  }
  return config;
}

// Drives the counterexample's arrival/CPU actions into a live
// controller. The checker's "advance" and "step-down" choices have no
// injected equivalent here -- the simulator's own timers own the clock
// and the policy owns step-downs -- so actions are simply spaced far
// enough apart (1 ms) for the static policy to reach its resting state
// between them, which is the regime the checker's resting-state start
// models. Returns the total number of audit failures.
std::size_t RunMappedReplay(const check::Counterexample& ce, bool faulted) {
  Simulator simulator;
  const MemorySystemConfig config = MapConfig(ce.config, faulted);
  const std::unique_ptr<LowPowerPolicy> policy = MapPolicy(ce.config.policy);
  MemoryController controller(&simulator, config, policy.get());

  static const RdramChipModel kReference{PowerModel{}};
  SimulationAudit::Options audit_options;
  audit_options.level = 2;
  audit_options.mode = InvariantAuditor::Mode::kCollect;
  audit_options.reference_model = &kReference;
  SimulationAudit audit(&simulator, &controller, audit_options);

  Tick at = kMillisecond;
  const std::int64_t transfer_bytes =
      ce.config.transfer_requests * config.chunk_bytes;
  for (const check::Action& action : ce.actions) {
    switch (action.kind) {
      case check::ActionKind::kArrive: {
        const int bus = action.bus;
        const std::uint64_t page = static_cast<std::uint64_t>(action.chip);
        simulator.ScheduleAt(at, [&controller, bus, page, transfer_bytes]() {
          controller.StartDmaTransfer(bus, page, transfer_bytes,
                                      DmaKind::kDisk, [](Tick) {});
        });
        break;
      }
      case check::ActionKind::kCpuAccess: {
        const std::uint64_t page = static_cast<std::uint64_t>(action.chip);
        simulator.ScheduleAt(at, [&controller, page]() {
          controller.CpuAccess(page, 64);
        });
        break;
      }
      case check::ActionKind::kStepDown:
      case check::ActionKind::kAdvance:
        break;  // Owned by the simulator's timers / the policy.
    }
    at += kMillisecond;
  }

  simulator.RunUntil(at + 10 * kMillisecond);
  audit.Finish();
  return audit.auditor().failures().size();
}

TEST(CounterexampleReplayTest, FixtureRecordsTheResyncSkipFault) {
  const check::Counterexample ce = LoadFixture();
  EXPECT_EQ(ce.config.fault, check::CheckFault::kResyncSkip);
  EXPECT_EQ(ce.config.policy, check::CheckPolicy::kStaticNap);
  EXPECT_EQ(ce.property, "check.power-state-legality");
  EXPECT_FALSE(ce.actions.empty());
}

TEST(CounterexampleReplayTest, FixtureReproducesInTheCheckerHarness) {
  const check::Counterexample ce = LoadFixture();
  std::string observed;
  EXPECT_TRUE(check::ReplayCounterexample(ce, &observed)) << observed;
}

TEST(CounterexampleReplayTest, FixtureReproducesInTheFullSimulator) {
  const check::Counterexample ce = LoadFixture();
  EXPECT_GT(RunMappedReplay(ce, /*faulted=*/true), 0u);
}

TEST(CounterexampleReplayTest, SameDriveOnThePristineModelStaysClean) {
  const check::Counterexample ce = LoadFixture();
  EXPECT_EQ(RunMappedReplay(ce, /*faulted=*/false), 0u);
}

}  // namespace
}  // namespace dmasim
