// Semantics of the access monitor's armed occupancy probes: a probe event
// runs only at the first sampling tick after a transfer starts unseen,
// every tick is still charged in closed form, and a monitored run counts
// exactly the events of its unmonitored twin plus one per sampling tick.
#include <cstdint>

#include <gtest/gtest.h>

#include "core/memory_controller.h"
#include "mem/power_policy.h"
#include "sim/simulator.h"

namespace dmasim {
namespace {

MemorySystemConfig SmallConfig(bool monitored) {
  MemorySystemConfig config;
  config.chips = 4;
  config.pages_per_chip = 16;
  config.monitor.enabled = monitored;
  return config;
}

// One controller on its own kernel, with always-active chips so transfer
// timing is pure bus pacing (a 512 B chunk is served 160 ns after issue;
// chunks issue one 480 ns bus slot apart).
struct System {
  explicit System(const MemorySystemConfig& config)
      : controller(&simulator, config, &policy) {}

  // Starts a `bytes` DMA transfer for page 5 at absolute time `when`.
  void StartAt(Tick when, std::int64_t bytes) {
    simulator.ScheduleAt(when, [this, bytes]() {
      controller.StartDmaTransfer(0, 5, bytes, DmaKind::kNetwork, {});
    });
  }

  const MonitorStats& stats() const { return controller.monitor()->stats(); }

  Simulator simulator;
  AlwaysActivePolicy policy;
  MemoryController controller;
};

TEST(MonitorProbeTest, ProbesChargedOnAndBetweenTicks) {
  // One 16-chunk transfer over [0.1, 7.5] us; the runs end on tick 10 and
  // halfway to tick 11. Both have seen ten ticks.
  for (const Tick end : {10 * kMicrosecond, 10500 * kNanosecond}) {
    System monitored(SmallConfig(true));
    System plain(SmallConfig(false));
    for (System* system : {&monitored, &plain}) {
      system->StartAt(100 * kNanosecond, 8192);
      system->simulator.RunUntil(end);
      system->controller.CollectEnergy();
    }
    const MonitorConfig& config = monitored.controller.config().monitor;
    EXPECT_EQ(monitored.stats().probes, 10u) << "end " << end;
    EXPECT_EQ(monitored.stats().observations, 1u) << "end " << end;
    EXPECT_EQ(monitored.stats().busy_ticks,
              10 * config.probe_cost + config.observe_cost)
        << "end " << end;
    // One logical event per tick on top of the unmonitored twin, exactly
    // as a probe event at every tick would have counted (no aggregation
    // is due before 2 ms).
    EXPECT_EQ(monitored.simulator.ExecutedEvents(),
              plain.simulator.ExecutedEvents() + 10)
        << "end " << end;
    // Only the tick after the start actually ran a probe.
    EXPECT_LT(monitored.simulator.SteppedEvents(),
              plain.simulator.SteppedEvents() + 10)
        << "end " << end;
  }
}

TEST(MonitorProbeTest, OnlyTransfersInFlightAtATickAreObserved) {
  System system(SmallConfig(true));
  // One chunk issued at 0.1 us and served by 0.26 us: it starts and
  // completes between two ticks, so no probe ever finds it.
  system.StartAt(100 * kNanosecond, 512);
  system.simulator.RunUntil(5 * kMicrosecond);
  EXPECT_EQ(system.stats().observations, 0u);

  // Sixteen chunks over [5.1, 12.5] us span seven ticks but are counted
  // once, at the first.
  system.StartAt(5100 * kNanosecond, 8192);
  system.simulator.RunUntil(6 * kMicrosecond);
  EXPECT_EQ(system.stats().observations, 1u);
  system.simulator.RunUntil(20 * kMicrosecond);
  EXPECT_EQ(system.stats().observations, 1u);

  // A transfer starting exactly on a tick with no probe pending is first
  // sampled at the next tick.
  system.StartAt(30 * kMicrosecond, 8192);
  system.simulator.RunUntil(30500 * kNanosecond);
  EXPECT_EQ(system.stats().observations, 1u);
  system.simulator.RunUntil(31 * kMicrosecond);
  EXPECT_EQ(system.stats().observations, 2u);

  system.simulator.RunUntil(50 * kMicrosecond);
  system.controller.CollectEnergy();
  EXPECT_EQ(system.stats().probes, 50u);
}

TEST(MonitorProbeTest, ProbeIsPendingOnlyUntilTheTickAfterAStart) {
  // Coalescing off, so both kernels hold the same chunk events and the
  // difference in pending events is exactly the monitor's own.
  MemorySystemConfig monitored_config = SmallConfig(true);
  monitored_config.coalesce_chunk_runs = false;
  MemorySystemConfig plain_config = SmallConfig(false);
  plain_config.coalesce_chunk_runs = false;
  System monitored(monitored_config);
  System plain(plain_config);
  const auto run_until = [&](Tick when) {
    monitored.simulator.RunUntil(when);
    plain.simulator.RunUntil(when);
  };
  const auto monitor_events = [&]() {
    return monitored.simulator.PendingEvents() -
           plain.simulator.PendingEvents();
  };

  // Idle: only the aggregation event is pending.
  run_until(3 * kMicrosecond);
  EXPECT_EQ(monitor_events(), 1u);

  // A transfer starts unseen: one probe is armed for the next tick.
  monitored.StartAt(3100 * kNanosecond, 8192);
  plain.StartAt(3100 * kNanosecond, 8192);
  run_until(3200 * kNanosecond);
  EXPECT_EQ(monitor_events(), 2u);

  // Seen at 4 us and still in flight: the probe did not re-arm.
  run_until(4500 * kNanosecond);
  EXPECT_EQ(monitored.controller.InFlightTransfers(), 1u);
  EXPECT_EQ(monitored.stats().observations, 1u);
  EXPECT_EQ(monitor_events(), 1u);

  // Completed; idle again.
  run_until(20 * kMicrosecond);
  EXPECT_EQ(monitored.controller.InFlightTransfers(), 0u);
  EXPECT_EQ(monitor_events(), 1u);

  // A transfer that completes before the next tick leaves its probe
  // pending until that tick, which then finds nothing and does not
  // re-arm.
  monitored.StartAt(20100 * kNanosecond, 512);
  plain.StartAt(20100 * kNanosecond, 512);
  run_until(20500 * kNanosecond);
  EXPECT_EQ(monitored.controller.InFlightTransfers(), 0u);
  EXPECT_EQ(monitor_events(), 2u);
  run_until(21 * kMicrosecond);
  EXPECT_EQ(monitor_events(), 1u);
  EXPECT_EQ(monitored.stats().observations, 1u);
}

}  // namespace
}  // namespace dmasim
