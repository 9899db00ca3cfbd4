// Integration tests for the memory controller (routing, gating, release,
// CPU priority, migration, and metrics).
#include "core/memory_controller.h"

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mem/power_policy.h"
#include "sim/simulator.h"

namespace dmasim {
namespace {

MemorySystemConfig SmallConfig() {
  MemorySystemConfig config;
  config.chips = 4;
  config.pages_per_chip = 16;
  config.page_bytes = 8192;
  config.bus_count = 3;
  config.chunk_bytes = 512;
  return config;
}

class ControllerFixture : public ::testing::Test {
 protected:
  enum class PolicyStyle { kDynamic, kAlwaysActive };

  ControllerFixture() = default;

  void Build(MemorySystemConfig config,
             PolicyStyle style = PolicyStyle::kDynamic) {
    config_ = config;
    if (style == PolicyStyle::kDynamic) {
      policy_ = std::make_unique<DynamicThresholdPolicy>();
    } else {
      policy_ = std::make_unique<AlwaysActivePolicy>();
    }
    controller_ = std::make_unique<MemoryController>(&simulator_, config_,
                                                     policy_.get());
  }

  Simulator simulator_;
  MemorySystemConfig config_;
  std::unique_ptr<LowPowerPolicy> policy_;
  std::unique_ptr<MemoryController> controller_;
};

TEST_F(ControllerFixture, ConfigDerivedQuantities) {
  const MemorySystemConfig config = SmallConfig();
  // Memory at 3.2 GB/s, buses at 1/3 of that: k = 3.
  EXPECT_EQ(config.AlignmentQuorum(), 3);
  // T = one bus slot for a 512-byte chunk = 12/8 * 512 cycles.
  EXPECT_EQ(config.RequestTime(), 512 * 12 / 8 * 625);
  EXPECT_EQ(config.TotalPages(), 64u);
}

TEST_F(ControllerFixture, QuorumScalesWithBandwidthRatio) {
  MemorySystemConfig config = SmallConfig();
  config.bus_bandwidth = 3.2e9;  // Ratio 1.
  EXPECT_EQ(config.AlignmentQuorum(), 1);
  config.bus_bandwidth = 1.6e9;  // Ratio 2.
  EXPECT_EQ(config.AlignmentQuorum(), 2);
  config.bus_bandwidth = 0.5e9;  // Ratio 6.4.
  EXPECT_EQ(config.AlignmentQuorum(), 7);
}

TEST_F(ControllerFixture, PagesStripedAcrossChips) {
  Build(SmallConfig());
  EXPECT_EQ(controller_->ChipOf(0), 0);
  EXPECT_EQ(controller_->ChipOf(1), 1);
  EXPECT_EQ(controller_->ChipOf(4), 0);
  EXPECT_EQ(controller_->ChipOf(63), 3);
}

TEST_F(ControllerFixture, SingleTransferCompletesWithBusPacing) {
  Build(SmallConfig(), PolicyStyle::kAlwaysActive);
  Tick completed = -1;
  controller_->StartDmaTransfer(0, /*page=*/5, 8192, DmaKind::kNetwork,
                                [&](Tick when) { completed = when; });
  simulator_.RunUntil(kMillisecond);
  // 16 chunks paced at one bus slot each; the last chunk is issued at
  // 15 * slot and completes after its memory service time.
  const Tick slot = controller_->bus(0).SlotTime();
  const Tick service = config_.power.ServiceTime(ByteCount(512)).value();
  EXPECT_EQ(completed, 15 * slot + service);
  EXPECT_EQ(controller_->stats().transfers_completed, 1u);
  EXPECT_EQ(controller_->InFlightTransfers(), 0u);
}

TEST_F(ControllerFixture, LoneTransferUtilizationIsOneThird) {
  Build(SmallConfig(), PolicyStyle::kAlwaysActive);
  for (int i = 0; i < 8; ++i) {
    controller_->StartDmaTransfer(0, 5, 8192, DmaKind::kNetwork, {});
    simulator_.RunUntil(simulator_.Now() + 2 * kMillisecond);
  }
  EXPECT_NEAR(controller_->UtilizationFactor(), 1.0 / 3.0, 0.02);
}

TEST_F(ControllerFixture, ThreeAlignedTransfersReachFullUtilization) {
  // Three transfers from three buses to the same chip, started together on
  // an always-active chip: the chip serves a chunk from each bus per slot.
  Build(SmallConfig(), PolicyStyle::kAlwaysActive);
  for (int bus = 0; bus < 3; ++bus) {
    controller_->StartDmaTransfer(bus, 5, 8192, DmaKind::kNetwork, {});
  }
  simulator_.RunUntil(kMillisecond);
  EXPECT_GT(controller_->UtilizationFactor(), 0.95);
}

TEST_F(ControllerFixture, GatingGathersQuorumAndAligns) {
  MemorySystemConfig config = SmallConfig();
  config.dma.ta.enabled = true;
  config.dma.ta.mu = 50.0;
  Build(config);  // Dynamic policy: chips rest in powerdown -> gating.

  // Three transfers to one chip from three buses, staggered by 20 us --
  // within the budget, so they must gather and release as a quorum.
  for (int bus = 0; bus < 3; ++bus) {
    simulator_.ScheduleAt(static_cast<Tick>(bus) * 20 * kMicrosecond,
                          [this, bus]() {
                            controller_->StartDmaTransfer(
                                bus, 5, 8192, DmaKind::kNetwork, {});
                          });
  }
  simulator_.RunUntil(5 * kMillisecond);
  EXPECT_EQ(controller_->stats().transfers_completed, 3u);
  EXPECT_EQ(controller_->aligner().TotalGated(), 3u);
  EXPECT_EQ(controller_->aligner().ReleasedByQuorum(), 1u);
  EXPECT_GT(controller_->UtilizationFactor(), 0.9);
  // Only one wakeup: the whole batch rode a single activation.
  EXPECT_EQ(controller_->chip(controller_->ChipOf(5)).stats().wakeups, 1u);
}

TEST_F(ControllerFixture, DeadlineReleasesLoneGatedTransfer) {
  MemorySystemConfig config = SmallConfig();
  config.dma.ta.enabled = true;
  config.dma.ta.mu = 5.0;  // Budget 38 us, above the gating floor.
  Build(config);
  Tick completed = -1;
  controller_->StartDmaTransfer(0, 5, 8192, DmaKind::kNetwork,
                                [&](Tick when) { completed = when; });
  simulator_.RunUntil(50 * kMillisecond);
  EXPECT_GT(completed, 0);
  EXPECT_EQ(controller_->aligner().TotalGated(), 1u);
  EXPECT_EQ(controller_->aligner().ReleasedBySlack(), 1u);
  // The gating delay is bounded by the transfer's budget:
  // mu * T * 16 chunks.
  const Tick budget = static_cast<Tick>(5.0 * config.RequestTime() * 16);
  const Tick unmanaged = 15 * controller_->bus(0).SlotTime() +
                         config.power.ServiceTime(ByteCount(512)).value();
  EXPECT_LE(completed,
            budget + unmanaged + 6100 * kNanosecond /* wake */ +
                config.dma.ta.epoch_length);
}

TEST_F(ControllerFixture, TinyBudgetSkipsGatingEntirely) {
  // Cost-benefit guard: a delay budget below min_gating_budget cannot
  // gather companions, so the transfer is not delayed at all.
  MemorySystemConfig config = SmallConfig();
  config.dma.ta.enabled = true;
  config.dma.ta.mu = 1.0;  // Budget ~7.7 us < 25 us floor.
  Build(config);
  controller_->StartDmaTransfer(0, 5, 8192, DmaKind::kNetwork, {});
  simulator_.RunUntil(5 * kMillisecond);
  EXPECT_EQ(controller_->aligner().TotalGated(), 0u);
  EXPECT_EQ(controller_->stats().transfers_completed, 1u);
}

TEST_F(ControllerFixture, ZeroMuBehavesLikeBaseline) {
  MemorySystemConfig ta_config = SmallConfig();
  ta_config.dma.ta.enabled = true;
  ta_config.dma.ta.mu = 0.0;
  Build(ta_config);
  Tick ta_completed = -1;
  controller_->StartDmaTransfer(0, 5, 8192, DmaKind::kNetwork,
                                [&](Tick when) { ta_completed = when; });
  simulator_.RunUntil(5 * kMillisecond);

  Simulator baseline_sim;
  DynamicThresholdPolicy baseline_policy;
  MemoryController baseline(&baseline_sim, SmallConfig(), &baseline_policy);
  Tick baseline_completed = -1;
  baseline.StartDmaTransfer(0, 5, 8192, DmaKind::kNetwork,
                            [&](Tick when) { baseline_completed = when; });
  baseline_sim.RunUntil(5 * kMillisecond);

  EXPECT_EQ(ta_completed, baseline_completed);
}

TEST_F(ControllerFixture, CpuAccessServedWithPriorityAndCounted) {
  Build(SmallConfig(), PolicyStyle::kAlwaysActive);
  Tick cpu_done = -1;
  controller_->StartDmaTransfer(0, 5, 8192, DmaKind::kNetwork, {});
  controller_->CpuAccess(5, 64, [&](Tick when) { cpu_done = when; });
  simulator_.RunUntil(kMillisecond);
  EXPECT_GT(cpu_done, 0);
  EXPECT_EQ(controller_->stats().cpu_accesses, 1u);
  // CPU access may wait at most one chunk service before being served.
  EXPECT_LE(cpu_done, config_.power.ServiceTime(ByteCount(512)).value() +
                          config_.power.ServiceTime(ByteCount(64)).value());
}

TEST_F(ControllerFixture, CpuAccessReleasesGatedChip) {
  MemorySystemConfig config = SmallConfig();
  config.dma.ta.enabled = true;
  config.dma.ta.mu = 1000.0;  // Essentially unbounded budget.
  Build(config);
  Tick completed = -1;
  controller_->StartDmaTransfer(0, 5, 8192, DmaKind::kNetwork,
                                [&](Tick when) { completed = when; });
  simulator_.RunUntil(100 * kMicrosecond);
  EXPECT_EQ(completed, -1);  // Still gated.
  // A CPU access to the same chip activates it; the gated transfer rides
  // along instead of waiting for its own activation later.
  controller_->CpuAccess(5, 64);
  simulator_.RunUntil(simulator_.Now() + 2 * kMillisecond);
  EXPECT_GT(completed, 0);
}

TEST_F(ControllerFixture, MigrationMovesPageAndChargesEnergy) {
  MemorySystemConfig config = SmallConfig();
  config.dma.pl.enabled = true;
  config.dma.pl.interval = kMillisecond;
  config.dma.pl.min_hot_count = 1;
  Build(config);

  // Make page 5 (chip 1) clearly hot.
  for (int i = 0; i < 20; ++i) {
    simulator_.ScheduleAt(static_cast<Tick>(i) * 40 * kMicrosecond, [this]() {
      controller_->StartDmaTransfer(0, 5, 8192, DmaKind::kNetwork, {});
    });
  }
  simulator_.RunUntil(3 * kMillisecond);
  EXPECT_GT(controller_->stats().migrations, 0u);
  EXPECT_EQ(controller_->ChipOf(5), 0);  // Moved to the hot chip.
  EnergyBreakdown energy = controller_->CollectEnergy();
  EXPECT_GT(energy.Of(EnergyBucket::kMigration).joules(), 0.0);
}

TEST_F(ControllerFixture, MoveCountsOnceBothChipsServedItsLastCopy) {
  MemorySystemConfig config = SmallConfig();
  config.dma.pl.enabled = true;
  config.dma.pl.interval = kMillisecond;
  config.dma.pl.min_hot_count = 1;
  // Page 8192 is not a multiple of the chunk, so each copy ends short.
  config.chunk_bytes = 3000;
  Build(config, PolicyStyle::kAlwaysActive);
  for (int i = 0; i < 20; ++i) {
    simulator_.ScheduleAt(static_cast<Tick>(i) * 40 * kMicrosecond, [this]() {
      controller_->StartDmaTransfer(0, 5, 8192, DmaKind::kNetwork, {});
    });
  }
  std::uint64_t served_bytes = 0;
  const auto copy_bytes_served = [this]() {
    std::uint64_t bytes = 0;
    for (int chip = 0; chip < controller_->chip_count(); ++chip) {
      bytes += controller_->chip(chip).stats().migration_bytes;
    }
    return bytes;
  };

  // The round at 1 ms plans the moves and queues their copies; none is
  // served at the round's own tick, so every move is pending.
  simulator_.RunUntil(kMillisecond);
  const std::uint64_t planned = controller_->MigrationsPlanned();
  ASSERT_GT(planned, 0u);
  EXPECT_EQ(controller_->stats().migrations, 0u);
  EXPECT_EQ(controller_->stats().migrations_pending, planned);
  EXPECT_EQ(copy_bytes_served(), 0u);
  EXPECT_EQ(controller_->PendingMigrationBytesServed(), 0u);

  // One copy chunk later, each chip has served part of its copy.
  simulator_.RunUntil(kMillisecond + 2 * kMicrosecond);
  served_bytes = copy_bytes_served();
  EXPECT_GT(served_bytes, 0u);
  EXPECT_LT(served_bytes, 2 * 8192 * planned);
  EXPECT_EQ(controller_->stats().migrations, 0u);
  EXPECT_EQ(controller_->PendingMigrationBytesServed(), served_bytes);

  // Once both copies are served the move counts, with no round needed.
  simulator_.RunUntil(kMillisecond + 500 * kMicrosecond);
  EXPECT_EQ(controller_->stats().migrations, planned);
  EXPECT_EQ(controller_->stats().migrations_pending, 0u);
  EXPECT_EQ(copy_bytes_served(), 2 * 8192 * planned);
  EXPECT_EQ(controller_->PendingMigrationBytesServed(), 0u);
}

TEST_F(ControllerFixture, TransfersFollowMigratedPages) {
  MemorySystemConfig config = SmallConfig();
  config.dma.pl.enabled = true;
  config.dma.pl.interval = kMillisecond;
  config.dma.pl.min_hot_count = 1;
  Build(config);
  // Spread the transfers across the 1 ms migration interval so some run
  // before the page moves and some after.
  for (int i = 0; i < 20; ++i) {
    simulator_.ScheduleAt(static_cast<Tick>(i) * 120 * kMicrosecond, [this]() {
      controller_->StartDmaTransfer(0, 5, 8192, DmaKind::kNetwork, {});
    });
  }
  simulator_.RunUntil(4 * kMillisecond);
  const auto& per_chip = controller_->TransfersPerChip();
  // Transfers before migration hit chip 1, afterwards chip 0.
  EXPECT_GT(per_chip[0], 0u);
  EXPECT_GT(per_chip[1], 0u);
  EXPECT_EQ(per_chip[0] + per_chip[1] + per_chip[2] + per_chip[3],
            controller_->stats().transfers_started);
}

TEST_F(ControllerFixture, HottestChipShare) {
  Build(SmallConfig(), PolicyStyle::kAlwaysActive);
  controller_->StartDmaTransfer(0, 0, 8192, DmaKind::kNetwork, {});
  controller_->StartDmaTransfer(0, 0, 8192, DmaKind::kNetwork, {});
  controller_->StartDmaTransfer(0, 1, 8192, DmaKind::kNetwork, {});
  controller_->StartDmaTransfer(0, 2, 8192, DmaKind::kNetwork, {});
  EXPECT_DOUBLE_EQ(controller_->HottestChipShare(), 0.5);
}

TEST_F(ControllerFixture, EnergyAggregatesAcrossChips) {
  Build(SmallConfig());
  simulator_.RunUntil(kMillisecond);
  const EnergyBreakdown energy = controller_->CollectEnergy();
  // Four idle chips in powerdown for 1 ms.
  EXPECT_NEAR(
      energy.Total().joules(),
      4.0 * EnergyOver(MilliwattPower(3.0), Ticks(kMillisecond)).joules(),
      1e-9);
}

TEST_F(ControllerFixture, ChunkServiceTimeTracked) {
  Build(SmallConfig(), PolicyStyle::kAlwaysActive);
  controller_->StartDmaTransfer(0, 5, 8192, DmaKind::kNetwork, {});
  simulator_.RunUntil(kMillisecond);
  EXPECT_EQ(controller_->ChunkServiceTime().Count(), 16u);
  // Each chunk: issued, then served within one memory service time.
  EXPECT_NEAR(controller_->ChunkServiceTime().Mean(),
              static_cast<double>(config_.power.ServiceTime(ByteCount(512)).value()), 1.0);
}

// One controller of a coalescing on/off pair, with every transfer's
// completion time recorded in start order.
struct CoalescingRig {
  explicit CoalescingRig(bool coalesce) {
    MemorySystemConfig config = SmallConfig();
    config.coalesce_chunk_runs = coalesce;
    controller = std::make_unique<MemoryController>(&simulator, config,
                                                    &policy);
  }
  void Start(int bus, std::uint64_t page, std::int64_t bytes) {
    const std::size_t index = completions.size();
    completions.push_back(-1);
    controller->StartDmaTransfer(
        bus, page, bytes, DmaKind::kNetwork,
        [this, index](Tick when) { completions[index] = when; });
  }

  Simulator simulator;
  AlwaysActivePolicy policy;
  std::unique_ptr<MemoryController> controller;
  std::vector<Tick> completions;
  Tick cpu_done = -1;
};

// Energy buckets, to the bit, and the chips' DMA statistics.
void ExpectSameChips(CoalescingRig& on, CoalescingRig& off) {
  const EnergyBreakdown energy_on = on.controller->CollectEnergy();
  const EnergyBreakdown energy_off = off.controller->CollectEnergy();
  for (int i = 0; i < kEnergyBucketCount; ++i) {
    const auto bucket = static_cast<EnergyBucket>(i);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(energy_on.Of(bucket).joules()),
              std::bit_cast<std::uint64_t>(energy_off.Of(bucket).joules()))
        << EnergyBucketName(bucket);
  }
  for (int chip = 0; chip < on.controller->chip_count(); ++chip) {
    SCOPED_TRACE("chip " + std::to_string(chip));
    const ChipStats& a = on.controller->chip(chip).stats();
    const ChipStats& b = off.controller->chip(chip).stats();
    EXPECT_EQ(a.dma_requests, b.dma_requests);
    EXPECT_EQ(a.cpu_requests, b.cpu_requests);
    EXPECT_EQ(a.dma_serving, b.dma_serving);
    EXPECT_EQ(a.active_idle_dma, b.active_idle_dma);
    EXPECT_EQ(a.active_idle_threshold, b.active_idle_threshold);
  }
}

TEST(ChunkRunGroupTest, TransferForAnotherChipJoinsAMemberBusMidRun) {
  // Chip 1's group: three 8 KB transfers on buses 0-2 and a second one
  // on bus 0, which bus 0 serves round-robin. Mid-stream, a transfer for
  // chip 2 starts on bus 0 (the group is no longer closed) and a fourth
  // transfer for chip 1 joins on bus 1, once from an event scheduled
  // ahead and once between RunUntil calls. With coalescing on, every
  // completion time, chip and bus statistic, energy bit and logical event
  // count must equal the per-chunk execution's.
  CoalescingRig on(true);
  CoalescingRig off(false);
  for (CoalescingRig* rig : {&on, &off}) {
    for (int bus = 0; bus < 3; ++bus) rig->Start(bus, /*page=*/1, 8192);
    rig->Start(0, /*page=*/5, 8192);
    rig->simulator.ScheduleAt(3 * kMicrosecond, [rig]() {
      rig->Start(0, /*page=*/2, 4096);
    });
  }
  for (CoalescingRig* rig : {&on, &off}) {
    rig->simulator.RunUntil(5 * kMicrosecond + 123);
  }
  // The state between RunUntil calls is the per-chunk one, to the event.
  EXPECT_EQ(on.simulator.ExecutedEvents(), off.simulator.ExecutedEvents());
  EXPECT_LT(on.simulator.SteppedEvents(), off.simulator.SteppedEvents());
  for (CoalescingRig* rig : {&on, &off}) {
    rig->Start(1, /*page=*/9, 8192);
    rig->Start(0, /*page=*/6, 2048);
    rig->simulator.RunUntil(kMillisecond);
  }

  EXPECT_EQ(on.completions, off.completions);
  for (Tick when : on.completions) EXPECT_GT(when, 0);
  EXPECT_EQ(on.simulator.ExecutedEvents(), off.simulator.ExecutedEvents());
  EXPECT_LT(on.simulator.SteppedEvents(), off.simulator.SteppedEvents());
  ExpectSameChips(on, off);
  for (int bus = 0; bus < on.controller->bus_count(); ++bus) {
    EXPECT_EQ(on.controller->bus(bus).ChunksIssued(),
              off.controller->bus(bus).ChunksIssued());
  }
  const RunningMean& service_on = on.controller->ChunkServiceTime();
  const RunningMean& service_off = off.controller->ChunkServiceTime();
  EXPECT_EQ(service_on.Count(), service_off.Count());
  EXPECT_EQ(service_on.Sum(), service_off.Sum());
  EXPECT_EQ(on.controller->TransferLatency().Sum(),
            off.controller->TransferLatency().Sum());
}

TEST(ChunkRunGroupTest, OutsideEventOnAGroupEventsTickGoesFirst) {
  // A lone transfer issues a chunk every bus slot. A CPU access scheduled
  // ahead for the very tick of its fourth issue is the run's horizon: per
  // chunk its event is the older one, so it executes first and the chunk
  // queues behind it. A run must stop strictly before that tick.
  CoalescingRig on(true);
  CoalescingRig off(false);
  const Tick slot = on.controller->bus(0).SlotTime();
  for (CoalescingRig* rig : {&on, &off}) {
    rig->simulator.ScheduleAt(3 * slot, [rig]() {
      rig->controller->CpuAccess(/*page=*/1, 64,
                                 [rig](Tick when) { rig->cpu_done = when; });
    });
    rig->Start(0, /*page=*/1, 8192);
    rig->simulator.RunUntil(kMillisecond);
  }
  EXPECT_GT(on.cpu_done, 3 * slot);
  EXPECT_EQ(on.cpu_done, off.cpu_done);
  EXPECT_EQ(on.completions, off.completions);
  EXPECT_EQ(on.simulator.ExecutedEvents(), off.simulator.ExecutedEvents());
  EXPECT_LT(on.simulator.SteppedEvents(), off.simulator.SteppedEvents());
  ExpectSameChips(on, off);
}

}  // namespace
}  // namespace dmasim
