// Tests for the memory chip power-state machine and energy accounting.
#include "mem/memory_chip.h"

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mem/chip_power_model.h"
#include "mem/power_model.h"
#include "mem/power_policy.h"
#include "sim/simulator.h"
#include "stats/energy.h"
#include "util/random.h"

namespace dmasim {
namespace {

class ChipFixture : public ::testing::Test {
 protected:
  Simulator simulator_;
  PowerModel model_;
  RdramChipModel chip_model_{model_};
  DynamicThresholdPolicy dynamic_policy_;
  AlwaysActivePolicy active_policy_;
};

// Sum of all per-bucket times tracked by the chip.
Tick TrackedTime(const ChipStats& stats) {
  Tick total = stats.dma_serving + stats.cpu_serving +
               stats.migration_serving + stats.active_idle_dma +
               stats.active_idle_threshold + stats.transition;
  for (Tick t : stats.low_power) total += t;
  return total;
}

TEST_F(ChipFixture, StartsInPolicyRestingState) {
  MemoryChip chip(&simulator_, &chip_model_, &dynamic_policy_, 0);
  EXPECT_EQ(chip.power_state(), PowerState::kPowerdown);
  EXPECT_TRUE(chip.InLowPowerForGating());

  MemoryChip awake(&simulator_, &chip_model_, &active_policy_, 1);
  EXPECT_EQ(awake.power_state(), PowerState::kActive);
  EXPECT_FALSE(awake.InLowPowerForGating());
}

TEST_F(ChipFixture, WakeupThenServeTiming) {
  MemoryChip chip(&simulator_, &chip_model_, &dynamic_policy_, 0);
  Tick completed = -1;
  chip.Enqueue(ChipRequest{RequestKind::kDma, ByteCount(8),
                           [&](Tick when) { completed = when; }});
  simulator_.RunUntil(10 * kMicrosecond);
  // Powerdown -> active costs 6000 ns; serving 8 bytes costs 4 cycles.
  EXPECT_EQ(completed, 6000 * kNanosecond + 4 * 625);
  EXPECT_EQ(chip.stats().wakeups, 1u);
  EXPECT_EQ(chip.stats().dma_requests, 1u);
}

TEST_F(ChipFixture, TryStepDownDepthFollowsPolicyChain) {
  // Thresholds far beyond the test horizon so the idle timer never
  // interferes with the explicit demotions.
  DynamicThresholdConfig config;
  config.active_to_standby = kSecond;
  config.standby_to_nap = kSecond;
  config.nap_to_powerdown = kSecond;
  DynamicThresholdPolicy policy(config);
  MemoryChip chip(&simulator_, &chip_model_, &policy, 0);

  // Wake the chip; after serving it idles in Active.
  chip.Enqueue(ChipRequest{RequestKind::kDma, ByteCount(8), [](Tick) {}});
  simulator_.RunUntil(10 * kMicrosecond);
  ASSERT_EQ(chip.power_state(), PowerState::kActive);

  // Depth 2 skips Standby: Active -> Nap in a single transition.
  ASSERT_TRUE(chip.TryStepDown(2));
  simulator_.RunUntil(simulator_.Now() +
                      model_.DownTransition(PowerState::kNap).duration.value());
  EXPECT_EQ(chip.power_state(), PowerState::kNap);

  // Over-deep requests clamp at the chain's end (Nap -> Powerdown).
  ASSERT_TRUE(chip.TryStepDown(5));
  simulator_.RunUntil(
      simulator_.Now() +
      model_.DownTransition(PowerState::kPowerdown).duration.value());
  EXPECT_EQ(chip.power_state(), PowerState::kPowerdown);
  EXPECT_EQ(chip.stats().step_downs, 2u);

  // Nothing below Powerdown: the policy chain is exhausted.
  EXPECT_FALSE(chip.TryStepDown(3));
}

TEST_F(ChipFixture, ServeFromActiveHasNoWakeDelay) {
  MemoryChip chip(&simulator_, &chip_model_, &active_policy_, 0);
  Tick completed = -1;
  chip.Enqueue(ChipRequest{RequestKind::kDma, ByteCount(8),
                           [&](Tick when) { completed = when; }});
  simulator_.Run();
  EXPECT_EQ(completed, 4 * 625);
  EXPECT_EQ(chip.stats().wakeups, 0u);
}

TEST_F(ChipFixture, WakeEnergyGoesToTransitionBucket) {
  MemoryChip chip(&simulator_, &chip_model_, &dynamic_policy_, 0);
  chip.Enqueue(ChipRequest{RequestKind::kDma, ByteCount(8), {}});
  simulator_.RunUntil(6000 * kNanosecond + 4 * 625);
  chip.SyncAccounting();
  // Transition: 15 mW for 6000 ns.
  EXPECT_NEAR(
      chip.energy().Of(EnergyBucket::kTransition).joules(),
      EnergyOver(MilliwattPower(15.0), Ticks(6000 * kNanosecond)).joules(),
      1e-15);
  // Serving: 300 mW for 4 cycles.
  EXPECT_NEAR(chip.energy().Of(EnergyBucket::kActiveServing).joules(),
              EnergyOver(MilliwattPower(300.0), Ticks(4 * 625)).joules(),
              1e-15);
}

TEST_F(ChipFixture, CpuRequestsHavePriorityOverDma) {
  MemoryChip chip(&simulator_, &chip_model_, &active_policy_, 0);
  std::vector<int> order;
  // First request starts serving immediately; the next two queue.
  chip.Enqueue(ChipRequest{RequestKind::kDma, ByteCount(8),
                           [&](Tick) { order.push_back(0); }});
  chip.Enqueue(ChipRequest{RequestKind::kDma, ByteCount(8),
                           [&](Tick) { order.push_back(1); }});
  chip.Enqueue(ChipRequest{RequestKind::kCpu, ByteCount(64),
                           [&](Tick) { order.push_back(2); }});
  simulator_.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST_F(ChipFixture, MigrationHasLowestPriority) {
  MemoryChip chip(&simulator_, &chip_model_, &active_policy_, 0);
  std::vector<int> order;
  chip.Enqueue(ChipRequest{RequestKind::kDma, ByteCount(8),
                           [&](Tick) { order.push_back(0); }});
  chip.Enqueue(ChipRequest{RequestKind::kMigration, ByteCount(8),
                           [&](Tick) { order.push_back(1); }});
  chip.Enqueue(ChipRequest{RequestKind::kCpu, ByteCount(64),
                           [&](Tick) { order.push_back(2); }});
  chip.Enqueue(ChipRequest{RequestKind::kDma, ByteCount(8),
                           [&](Tick) { order.push_back(3); }});
  simulator_.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 1}));
}

TEST_F(ChipFixture, InlineRetirementKeepsDmaPriorityOverMigration) {
  // A 512 B DMA chunk (160 ns of service) whose completion schedules the
  // transfer's next chunk 100 ns later, with eight migration copies
  // queued behind it. Event by event: chunk 1 [0, 160), copy 1
  // [160, 320), chunk 2 arrives at 260 and outranks the remaining copies,
  // so it is served [320, 480). Retiring the copies inline when chunk 1
  // completes would put chunk 2 behind all eight of them.
  MemoryChip chip(&simulator_, &chip_model_, &active_policy_, 0);
  Tick second_done = -1;
  chip.Enqueue(ChipRequest{
      RequestKind::kDma, ByteCount(512),
      [this, &chip, &second_done](Tick done) {
        simulator_.ScheduleAt(done + 100 * kNanosecond, [&chip,
                                                         &second_done]() {
          chip.Enqueue(ChipRequest{
              RequestKind::kDma, ByteCount(512),
              [&second_done](Tick when) { second_done = when; }});
        });
      }});
  for (int i = 0; i < 8; ++i) {
    chip.Enqueue(ChipRequest{RequestKind::kMigration, ByteCount(512), {}});
  }
  simulator_.Run();
  EXPECT_EQ(second_done, 480 * kNanosecond);
  EXPECT_EQ(chip.stats().migration_requests, 8u);
  EXPECT_EQ(chip.stats().dma_requests, 2u);
}

// What one run of InlineRetirementStopsAtTheWindowBound observed.
struct RetirementOutcome {
  Tick dma_done = -1;
  std::vector<std::uint64_t> energy_bits;
  ChipStats stats;
};

TEST_F(ChipFixture, InlineRetirementStopsAtTheWindowBound) {
  // Nine 512 B migration copies (160 ns each) queue on an idle chip, and
  // a 512 B DMA request arrives at 400 ns. Event by event: copy 1
  // [0, 160), copy 2 [160, 320), copy 3 [320, 480), then the DMA request
  // outranks the six copies left and is served [480, 640). A sharded
  // window that ends at H <= 400 ns learns of the request only at its
  // barrier, after the copies' chain was retired up to the horizon the
  // chip sampled; retiring past H would put the request behind all nine.
  const Tick arrival = 400 * kNanosecond;
  const auto run = [this, arrival](Tick window_bound) {
    Simulator simulator;
    MemoryChip chip(&simulator, &chip_model_, &active_policy_, 0);
    RetirementOutcome outcome;
    const auto dma_arrives = [&chip, &outcome]() {
      chip.Enqueue(ChipRequest{
          RequestKind::kDma, ByteCount(512),
          [&outcome](Tick done) { outcome.dma_done = done; }});
    };
    for (int i = 0; i < 9; ++i) {
      chip.Enqueue(ChipRequest{RequestKind::kMigration, ByteCount(512), {}});
    }
    if (window_bound > 0) {
      // The barrier's order: run the window, then deliver the request.
      simulator.RunEventsBefore(window_bound);
    }
    simulator.ScheduleAt(arrival, dma_arrives);
    simulator.Run();
    chip.SyncAccounting();
    for (int b = 0; b < kEnergyBucketCount; ++b) {
      outcome.energy_bits.push_back(std::bit_cast<std::uint64_t>(
          chip.energy().Of(static_cast<EnergyBucket>(b)).joules()));
    }
    outcome.stats = chip.stats();
    return outcome;
  };

  const RetirementOutcome up_front = run(/*window_bound=*/0);
  EXPECT_EQ(up_front.dma_done, 640 * kNanosecond);
  for (const Tick bound : {300 * kNanosecond, arrival}) {
    SCOPED_TRACE("window bound " + std::to_string(bound));
    const RetirementOutcome delivered = run(bound);
    EXPECT_EQ(delivered.dma_done, up_front.dma_done);
    EXPECT_EQ(delivered.energy_bits, up_front.energy_bits);
    EXPECT_EQ(delivered.stats.dma_serving, up_front.stats.dma_serving);
    EXPECT_EQ(delivered.stats.migration_serving,
              up_front.stats.migration_serving);
    EXPECT_EQ(delivered.stats.active_idle_dma,
              up_front.stats.active_idle_dma);
    EXPECT_EQ(delivered.stats.active_idle_threshold,
              up_front.stats.active_idle_threshold);
    EXPECT_EQ(delivered.stats.transition, up_front.stats.transition);
    EXPECT_EQ(delivered.stats.wakeups, up_front.stats.wakeups);
    EXPECT_EQ(delivered.stats.dma_requests, 1u);
    EXPECT_EQ(delivered.stats.migration_requests, 9u);
  }
}

TEST_F(ChipFixture, PriorityAndFifoHoldAcrossQueueGrowth) {
  // Each round queues dozens of interleaved requests while the chip wakes
  // from its resting state, so every queue grows well past its first
  // capacity; later rounds start where the previous one drained, so the
  // queues also wrap. Service order must be every CPU request in arrival
  // order, then every DMA request, then every migration copy.
  MemoryChip chip(&simulator_, &chip_model_, &dynamic_policy_, 0);
  Rng rng(0xc419);
  std::vector<int> served;
  for (const int count : {72, 150, 41, 200}) {
    ASSERT_EQ(chip.power_state(), PowerState::kPowerdown);
    std::vector<int> by_kind[3];
    for (int i = 0; i < count; ++i) {
      const auto kind = static_cast<RequestKind>(rng.NextBounded(3));
      const int tag = static_cast<int>(served.size()) + i;
      by_kind[static_cast<int>(kind)].push_back(tag);
      const ByteCount bytes(kind == RequestKind::kCpu ? 64 : 512);
      chip.Enqueue(ChipRequest{
          kind, bytes, [&served, tag](Tick) { served.push_back(tag); }});
      ASSERT_TRUE(chip.transitioning());
    }
    EXPECT_EQ(chip.QueuedRequests(), static_cast<std::size_t>(count));
    std::vector<int> expected(served);
    for (const RequestKind kind :
         {RequestKind::kCpu, RequestKind::kDma, RequestKind::kMigration}) {
      const std::vector<int>& tags = by_kind[static_cast<int>(kind)];
      expected.insert(expected.end(), tags.begin(), tags.end());
    }
    simulator_.Run();
    EXPECT_EQ(served, expected);
    EXPECT_EQ(chip.QueuedRequests(), 0u);
    served = expected;
  }
  EXPECT_EQ(chip.stats().wakeups, 4u);
  EXPECT_EQ(chip.stats().cpu_requests + chip.stats().dma_requests +
                chip.stats().migration_requests,
            72u + 150u + 41u + 200u);
}

TEST_F(ChipFixture, MigrationEnergyGoesToMigrationBucket) {
  MemoryChip chip(&simulator_, &chip_model_, &active_policy_, 0);
  chip.Enqueue(ChipRequest{RequestKind::kMigration, ByteCount(8192), {}});
  simulator_.Run();
  chip.SyncAccounting();
  EXPECT_NEAR(chip.energy().Of(EnergyBucket::kMigration).joules(),
              EnergyOver(MilliwattPower(300.0), Ticks(4096 * 625)).joules(),
              1e-15);
  EXPECT_EQ(chip.stats().migration_requests, 1u);
}

TEST_F(ChipFixture, DynamicPolicyStepsDownThroughStates) {
  MemoryChip chip(&simulator_, &chip_model_, &active_policy_, 0);
  // Use a chip that starts active with a dynamic policy instead:
  MemoryChip stepping(&simulator_, &chip_model_, &dynamic_policy_, 1);
  // Wake it with one request, then leave it idle.
  stepping.Enqueue(ChipRequest{RequestKind::kDma, ByteCount(8), {}});
  simulator_.RunUntil(100 * kMicrosecond);
  EXPECT_EQ(stepping.power_state(), PowerState::kPowerdown);
  // active -> standby -> nap -> powerdown: three step-downs.
  EXPECT_EQ(stepping.stats().step_downs, 3u);
  stepping.SyncAccounting();
  EXPECT_GT(stepping.stats().low_power[static_cast<int>(PowerState::kStandby)],
            0);
  EXPECT_GT(stepping.stats().low_power[static_cast<int>(PowerState::kNap)], 0);
}

TEST_F(ChipFixture, IdleTimerCancelledByNewRequest) {
  DynamicThresholdConfig config;
  config.active_to_standby = 100 * kNanosecond;
  DynamicThresholdPolicy policy(config);
  MemoryChip chip(&simulator_, &chip_model_, &policy, 0);
  chip.Enqueue(ChipRequest{RequestKind::kDma, ByteCount(8), {}});
  simulator_.RunUntil(6000 * kNanosecond + 4 * 625 + 50 * kNanosecond);
  EXPECT_EQ(chip.power_state(), PowerState::kActive);
  // A new request arrives before the 100 ns idle threshold expires.
  chip.Enqueue(ChipRequest{RequestKind::kDma, ByteCount(8), {}});
  simulator_.RunUntil(simulator_.Now() + 60 * kNanosecond);
  // The stale timer must not have fired mid-service.
  EXPECT_EQ(chip.power_state(), PowerState::kActive);
  EXPECT_EQ(chip.stats().step_downs, 0u);
}

TEST_F(ChipFixture, InFlightTransferSuppressesStepDown) {
  MemoryChip chip(&simulator_, &chip_model_, &dynamic_policy_, 0);
  chip.Enqueue(ChipRequest{RequestKind::kDma, ByteCount(8), {}});
  simulator_.Run();
  EXPECT_EQ(chip.power_state(), PowerState::kPowerdown);

  // With an in-flight transfer registered, idle-active time accrues to
  // ActiveIdleDma and the chip does not step down.
  chip.BeginTransfer();
  chip.Enqueue(ChipRequest{RequestKind::kDma, ByteCount(8), {}});
  simulator_.RunUntil(simulator_.Now() + 100 * kMicrosecond);
  EXPECT_EQ(chip.power_state(), PowerState::kActive);
  chip.SyncAccounting();
  EXPECT_GT(chip.stats().active_idle_dma, 90 * kMicrosecond);

  // Ending the transfer re-arms the policy and the chip steps down.
  chip.EndTransfer();
  simulator_.RunUntil(simulator_.Now() + 100 * kMicrosecond);
  EXPECT_EQ(chip.power_state(), PowerState::kPowerdown);
}

TEST_F(ChipFixture, IdleAttributionSwitchesWithTransferRegistration) {
  MemoryChip chip(&simulator_, &chip_model_, &active_policy_, 0);
  chip.BeginTransfer();
  simulator_.RunUntil(1000);
  chip.EndTransfer();
  simulator_.RunUntil(3000);
  chip.SyncAccounting();
  EXPECT_EQ(chip.stats().active_idle_dma, 1000);
  EXPECT_EQ(chip.stats().active_idle_threshold, 2000);
}

TEST_F(ChipFixture, StaticPolicyDropsImmediately) {
  StaticPolicy policy(PowerState::kNap);
  MemoryChip chip(&simulator_, &chip_model_, &policy, 0);
  EXPECT_EQ(chip.power_state(), PowerState::kNap);
  chip.Enqueue(ChipRequest{RequestKind::kDma, ByteCount(8), {}});
  simulator_.Run();
  // Wakes (60 ns), serves, and immediately transitions back to nap.
  EXPECT_EQ(chip.power_state(), PowerState::kNap);
  EXPECT_EQ(chip.stats().wakeups, 1u);
  EXPECT_EQ(chip.stats().step_downs, 1u);
  chip.SyncAccounting();
  EXPECT_EQ(chip.stats().active_idle_threshold, 0);
}

TEST_F(ChipFixture, RequestDuringDownTransitionTriggersRewake) {
  DynamicThresholdConfig config;
  config.active_to_standby = 10 * kNanosecond;
  DynamicThresholdPolicy policy(config);
  MemoryChip chip(&simulator_, &chip_model_, &policy, 0);
  chip.Enqueue(ChipRequest{RequestKind::kDma, ByteCount(8), {}});
  simulator_.Run();  // Settles in powerdown eventually; first check timing.

  // Re-wake and catch it mid "active -> standby" transition (1 cycle).
  Tick completed = -1;
  chip.Enqueue(ChipRequest{RequestKind::kDma, ByteCount(8), {}});
  // After serving (4 cycles) + threshold (16 cycles) the 1-cycle down
  // transition begins. Schedule a request inside that window.
  const Tick service_done = simulator_.Now();
  simulator_.ScheduleAt(service_done + 4 * 625 + 10 * kNanosecond + 300,
                        [&]() {
                          chip.Enqueue(ChipRequest{
                              RequestKind::kDma, ByteCount(8),
                              [&](Tick when) { completed = when; }});
                        });
  simulator_.Run();
  EXPECT_GT(completed, 0);
  EXPECT_EQ(chip.power_state(), PowerState::kPowerdown);
}

TEST_F(ChipFixture, Figure2aUtilizationPattern) {
  // Fig. 2(a): 8-byte requests arriving every 12 cycles keep the chip
  // serving 4 cycles and idle 8 -- two thirds of the active energy wasted.
  MemoryChip chip(&simulator_, &chip_model_, &active_policy_, 0);
  chip.BeginTransfer();
  const int requests = 64;
  for (int i = 0; i < requests; ++i) {
    simulator_.ScheduleAt(static_cast<Tick>(i) * 12 * 625, [&]() {
      chip.Enqueue(ChipRequest{RequestKind::kDma, ByteCount(8), {}});
    });
  }
  simulator_.RunUntil(requests * 12 * 625);
  chip.SyncAccounting();
  const Tick serving = chip.stats().dma_serving;
  const Tick idle = chip.stats().active_idle_dma;
  EXPECT_EQ(serving, requests * 4 * 625);
  EXPECT_EQ(idle, requests * 8 * 625);
  EXPECT_NEAR(static_cast<double>(serving) /
                  static_cast<double>(serving + idle),
              1.0 / 3.0, 1e-9);
}

TEST_F(ChipFixture, AlwaysActivePolicyNeverTransitions) {
  MemoryChip chip(&simulator_, &chip_model_, &active_policy_, 0);
  chip.Enqueue(ChipRequest{RequestKind::kDma, ByteCount(8), {}});
  simulator_.RunUntil(kMillisecond);
  EXPECT_EQ(chip.power_state(), PowerState::kActive);
  EXPECT_EQ(chip.stats().step_downs, 0u);
  EXPECT_EQ(chip.stats().wakeups, 0u);
}

TEST_F(ChipFixture, SyncAccountingIsIdempotent) {
  MemoryChip chip(&simulator_, &chip_model_, &dynamic_policy_, 0);
  simulator_.RunUntil(kMicrosecond);
  chip.SyncAccounting();
  const double energy = chip.energy().Total().joules();
  chip.SyncAccounting();
  EXPECT_DOUBLE_EQ(chip.energy().Total().joules(), energy);
}

TEST_F(ChipFixture, LowPowerResidencyEnergy) {
  MemoryChip chip(&simulator_, &chip_model_, &dynamic_policy_, 0);
  simulator_.RunUntil(kMillisecond);
  chip.SyncAccounting();
  // Idle chip in powerdown: 3 mW for 1 ms.
  EXPECT_NEAR(chip.energy().Of(EnergyBucket::kLowPower).joules(),
              EnergyOver(MilliwattPower(3.0), Ticks(kMillisecond)).joules(),
              1e-12);
  EXPECT_DOUBLE_EQ(chip.energy().Total().joules(),
                   chip.energy().Of(EnergyBucket::kLowPower).joules());
}

// Property: across a randomized request schedule, the chip's tracked time
// buckets exactly tile the elapsed simulation time, and energy is
// consistent with the tracked times.
class ChipTimeConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(ChipTimeConservationTest, TimeBucketsTileElapsedTime) {
  Simulator simulator;
  PowerModel model;
  RdramChipModel chip_model{model};
  DynamicThresholdPolicy policy;
  MemoryChip chip(&simulator, &chip_model, &policy, 0);
  Rng rng(static_cast<std::uint64_t>(GetParam()));

  Tick when = 0;
  int transfers_open = 0;
  for (int i = 0; i < 300; ++i) {
    when += static_cast<Tick>(rng.NextExponential(5000.0)) + 1;
    const int action = static_cast<int>(rng.NextBounded(5));
    simulator.ScheduleAt(when, [&chip, &transfers_open, action]() {
      switch (action) {
        case 0:
          chip.Enqueue(ChipRequest{RequestKind::kDma, ByteCount(8), {}});
          break;
        case 1:
          chip.Enqueue(ChipRequest{RequestKind::kCpu, ByteCount(64), {}});
          break;
        case 2:
          chip.Enqueue(ChipRequest{RequestKind::kMigration, ByteCount(512), {}});
          break;
        case 3:
          chip.BeginTransfer();
          ++transfers_open;
          break;
        case 4:
          if (transfers_open > 0) {
            chip.EndTransfer();
            --transfers_open;
          }
          break;
      }
    });
  }
  simulator.RunUntil(when + 100 * kMicrosecond);
  chip.SyncAccounting();

  EXPECT_EQ(TrackedTime(chip.stats()), simulator.Now());
  EXPECT_GT(chip.energy().Total().joules(), 0.0);
  // Served-request counters are consistent.
  EXPECT_EQ(chip.QueuedRequests(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChipTimeConservationTest,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace dmasim
