// What an armed occupancy probe visits: only the transfers started since
// the previous probe, each observed once if it is still in flight, in
// the order of the descriptor slabs (the order a walk over the whole
// slab would find them in), even when a descriptor was released and
// reacquired before the tick.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/memory_controller.h"
#include "mem/power_policy.h"
#include "mon/region_monitor.h"
#include "sim/simulator.h"

namespace dmasim {
namespace {

// 4 always-active chips of 64 pages and 8 buses; the monitor starts
// from one region.
MemorySystemConfig ProbeConfig(int max_regions) {
  MemorySystemConfig config;
  config.chips = 4;
  config.pages_per_chip = 64;
  config.bus_count = 8;
  config.monitor.enabled = true;
  config.monitor.min_regions = 1;
  config.monitor.max_regions = max_regions;
  return config;
}

// The regions a fresh monitor holds after observing `pages` in order.
std::vector<MonitorRegion> RegionsAfter(
    const MemorySystemConfig& config, const std::vector<std::uint64_t>& pages) {
  RegionMonitor monitor(config.monitor, config.TotalPages(), config.chips);
  for (const std::uint64_t page : pages) {
    monitor.ObserveTransfer(page, static_cast<int>(page % 4));
  }
  return monitor.regions();
}

bool SameRegions(const std::vector<MonitorRegion>& a,
                 const std::vector<MonitorRegion>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].start != b[i].start || a[i].end != b[i].end ||
        a[i].hits != b[i].hits || a[i].age != b[i].age) {
      return false;
    }
  }
  return true;
}

// Pages are striped, so page p sits on chip p % 4. A 512 B chunk is
// served 160 ns after issue and a bus issues one every 480 ns.
//
// Before the first sampling tick (1 us), 300 transfers fill descriptor
// slots 0-299, across the pool's first two 256-descriptor slabs:
//   * slot 0: S, two chunks on bus 3, done at 0.74 us;
//   * slot 1: Q, three chunks on bus 4, done at 1.22 us;
//   * slots 2-299: 298 transfers of 8 KiB on buses 0 and 1 (chips 0
//     and 1, pages below 128), in flight for tens of microseconds.
// At 0.8 us, R starts on bus 2 and reuses S's slot 0, so the first
// probe's list holds slot 0 twice. Before the second tick (2 us):
//   * 1.05 us: V, one chunk on bus 6, takes fresh slot 300, done at
//     1.21 us, and its slot stays free;
//   * 1.1 us: Z takes slot 301;
//   * 1.3 us: W reuses Q's slot 1.
// So the second probe's list is V, Z, W in start order, and W, Z in
// slab order once V's free slot is skipped.
struct ProbeScenario {
  static constexpr std::uint64_t kR = 130;
  static constexpr std::uint64_t kQ = 135;
  static constexpr std::uint64_t kS = 139;
  static constexpr std::uint64_t kV = 150;
  static constexpr std::uint64_t kZ = 180;
  static constexpr std::uint64_t kW = 200;

  explicit ProbeScenario(int max_regions)
      : controller(&simulator, ProbeConfig(max_regions), &policy) {
    simulator.ScheduleAt(100 * kNanosecond, [this]() {
      Start(3, kS, 1024);
      Start(4, kQ, 1536);
      for (const std::uint64_t page : Others()) {
        Start(static_cast<int>(page % 4), page, 8192);
      }
    });
    simulator.ScheduleAt(800 * kNanosecond, [this]() { Start(2, kR, 8192); });
    simulator.ScheduleAt(1050 * kNanosecond, [this]() { Start(6, kV, 512); });
    simulator.ScheduleAt(1100 * kNanosecond, [this]() { Start(5, kZ, 8192); });
    simulator.ScheduleAt(1300 * kNanosecond, [this]() { Start(4, kW, 8192); });
  }

  // The 298 long transfers' pages, in start order: chips 0 and 1 only.
  static std::vector<std::uint64_t> Others() {
    std::vector<std::uint64_t> pages;
    for (std::uint64_t i = 0; i < 298; ++i) {
      pages.push_back((i * 37) % 32 * 4 + i % 2);
    }
    return pages;
  }

  // What the first probe observes, in slab order: R (slot 0), Q, then
  // the others.
  static std::vector<std::uint64_t> FirstProbe() {
    std::vector<std::uint64_t> pages = {kR, kQ};
    for (std::uint64_t page : Others()) pages.push_back(page);
    return pages;
  }

  void Start(int bus, std::uint64_t page, std::int64_t bytes) {
    controller.StartDmaTransfer(bus, page, bytes, DmaKind::kNetwork, {});
  }

  const RegionMonitor& monitor() const { return *controller.monitor(); }

  Simulator simulator;
  AlwaysActivePolicy policy;
  MemoryController controller;
};

// The first probe never runs out of region budget; the second has room
// for exactly one more three-way split, so whichever of W and Z it
// observes first decides the layout.
int TightBudget() {
  return static_cast<int>(
             RegionsAfter(ProbeConfig(1024), ProbeScenario::FirstProbe())
                 .size()) +
         2;
}

TEST(MonitorProbeOrderTest, ObservesUnseenTransfersOnceInSlabOrder) {
  const int budget = TightBudget();
  ProbeScenario scenario(budget);
  scenario.simulator.RunUntil(1 * kMicrosecond);
  // R (through S's recycled slot), Q and the 298 long transfers, once.
  EXPECT_EQ(scenario.monitor().stats().observations, 300u);
  EXPECT_TRUE(SameRegions(scenario.monitor().regions(),
                          RegionsAfter(ProbeConfig(budget),
                                       ProbeScenario::FirstProbe())));

  scenario.simulator.RunUntil(2 * kMicrosecond);
  EXPECT_EQ(scenario.monitor().stats().observations, 302u);
  std::vector<std::uint64_t> slab_order = ProbeScenario::FirstProbe();
  std::vector<std::uint64_t> start_order = slab_order;
  slab_order.insert(slab_order.end(), {ProbeScenario::kW, ProbeScenario::kZ});
  start_order.insert(start_order.end(),
                     {ProbeScenario::kZ, ProbeScenario::kW});
  const std::vector<MonitorRegion> expected =
      RegionsAfter(ProbeConfig(budget), slab_order);
  EXPECT_TRUE(SameRegions(scenario.monitor().regions(), expected));
  // The comparison can tell the two orders apart.
  EXPECT_FALSE(
      SameRegions(RegionsAfter(ProbeConfig(budget), start_order), expected));

  // Every in-flight transfer is now seen: later ticks observe nothing.
  scenario.simulator.RunUntil(4 * kMicrosecond);
  EXPECT_EQ(scenario.monitor().stats().observations, 302u);
}

TEST(MonitorProbeOrderTest, TransfersDoneBeforeTheTickAreNeverObserved) {
  ProbeScenario scenario(1024);
  scenario.simulator.RunUntil(2 * kMicrosecond);
  // 304 transfers started; S finished before the first tick and V
  // before the second (Q was observed first).
  EXPECT_EQ(scenario.controller.stats().transfers_started, 304u);
  EXPECT_EQ(scenario.controller.stats().transfers_completed, 3u);
  EXPECT_EQ(scenario.monitor().stats().observations, 302u);
  for (const MonitorRegion& region : scenario.monitor().regions()) {
    for (const std::uint64_t page : {ProbeScenario::kS, ProbeScenario::kV}) {
      if (region.start == page && region.end == page + 1) {
        ADD_FAILURE() << "page " << page << " was observed";
      }
    }
  }
}

}  // namespace
}  // namespace dmasim
