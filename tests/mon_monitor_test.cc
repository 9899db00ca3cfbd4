// Tests for the region monitor: tiling and budget invariants,
// sample-guided splits with hit conservation, density-based merging,
// aging, scheme-driven materialization, chip rules, and the overhead
// account.
#include "mon/region_monitor.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/popularity_tracker.h"
#include "mon/scheme_parser.h"
#include "util/random.h"

namespace dmasim {
namespace {

MonitorConfig SmallConfig() {
  MonitorConfig config;
  config.enabled = true;
  config.min_regions = 4;
  config.max_regions = 16;
  config.merge_max_hits = 1;
  config.age_shift_period = 4;
  return config;
}

constexpr std::uint64_t kPages = 64;
constexpr int kChips = 4;

std::uint64_t TotalHits(const RegionMonitor& monitor) {
  std::uint64_t total = 0;
  for (const MonitorRegion& region : monitor.regions()) {
    total += region.hits;
  }
  return total;
}

void ExpectTiling(const RegionMonitor& monitor) {
  const std::vector<MonitorRegion>& regions = monitor.regions();
  ASSERT_FALSE(regions.empty());
  EXPECT_EQ(regions.front().start, 0u);
  EXPECT_EQ(regions.back().end, monitor.pages());
  for (std::size_t i = 1; i < regions.size(); ++i) {
    EXPECT_EQ(regions[i].start, regions[i - 1].end);
    EXPECT_LT(regions[i].start, regions[i].end);
  }
}

// The per-page counts MaterializeRuns stands for: each run's count over
// its pages, zero elsewhere. Runs must be in range and disjoint.
std::vector<std::uint32_t> DenseCounts(const std::vector<PageCountRun>& runs,
                                       std::uint64_t pages) {
  std::vector<std::uint32_t> counts(pages, 0);
  std::uint64_t previous_end = 0;
  for (const PageCountRun& run : runs) {
    EXPECT_GT(run.count, 0u);
    EXPECT_GE(run.first, previous_end);
    EXPECT_LE(std::uint64_t{run.first} + run.pages, pages);
    for (std::uint32_t i = 0; i < run.pages; ++i) {
      counts[run.first + i] = run.count;
    }
    previous_end = std::uint64_t{run.first} + run.pages;
  }
  return counts;
}

// The pages of a dense count vector that RecordHotnessError takes.
std::vector<std::uint32_t> NonzeroPages(
    const std::vector<std::uint32_t>& counts) {
  std::vector<std::uint32_t> pages;
  for (std::uint64_t page = 0; page < counts.size(); ++page) {
    if (counts[page] > 0) pages.push_back(static_cast<std::uint32_t>(page));
  }
  return pages;
}

TEST(RegionMonitorTest, InitialTilingCoversPageSpace) {
  RegionMonitor monitor(SmallConfig(), kPages, kChips);
  EXPECT_EQ(monitor.regions().size(), 4u);
  ExpectTiling(monitor);
  EXPECT_EQ(TotalHits(monitor), 0u);
}

TEST(RegionMonitorTest, UnevenPagesStillTileExactly) {
  // 67 pages over 4 initial regions: remainder spread, no gaps.
  RegionMonitor monitor(SmallConfig(), 67, kChips);
  ExpectTiling(monitor);
}

TEST(RegionMonitorTest, ObservationIsolatesSampledPage) {
  RegionMonitor monitor(SmallConfig(), kPages, kChips);
  monitor.ObserveTransfer(10, 0);
  ExpectTiling(monitor);

  bool found = false;
  for (const MonitorRegion& region : monitor.regions()) {
    if (region.start == 10 && region.end == 11) {
      found = true;
      EXPECT_EQ(region.hits, 1u);
      EXPECT_EQ(region.age, 0u);
    }
  }
  EXPECT_TRUE(found) << "sampled page was not carved into its own region";
  EXPECT_EQ(monitor.stats().splits, 1u);
  EXPECT_EQ(monitor.stats().observations, 1u);
}

TEST(RegionMonitorTest, SplitsConserveHits) {
  RegionMonitor monitor(SmallConfig(), kPages, kChips);
  // Every observation adds exactly one hit; splits redistribute but never
  // create or destroy mass.
  const std::uint64_t samples[] = {3, 40, 3, 62, 17, 3, 40, 0, 63, 31};
  std::uint64_t observed = 0;
  for (std::uint64_t page : samples) {
    monitor.ObserveTransfer(page, static_cast<int>(page) % kChips);
    ++observed;
    EXPECT_EQ(TotalHits(monitor), observed);
    ExpectTiling(monitor);
  }
}

TEST(RegionMonitorTest, SplitsStopAtBudget) {
  MonitorConfig config = SmallConfig();
  config.max_regions = 8;
  RegionMonitor monitor(config, kPages, kChips);
  // Far more distinct pages than the budget can isolate.
  for (std::uint64_t page = 0; page < kPages; page += 3) {
    monitor.ObserveTransfer(page, 0);
    EXPECT_LE(monitor.regions().size(), 8u);
    ExpectTiling(monitor);
  }
  // Attribution continues at coarse granularity once the budget is full.
  EXPECT_EQ(TotalHits(monitor), (kPages + 2) / 3);
}

TEST(RegionMonitorTest, AggregateMergesOneOffsAndKeepsHotPages) {
  RegionMonitor monitor(SmallConfig(), kPages, kChips);
  for (int i = 0; i < 5; ++i) monitor.ObserveTransfer(10, 0);
  monitor.ObserveTransfer(40, 1);  // One-off sample.
  const std::size_t before = monitor.regions().size();
  monitor.Aggregate();
  ExpectTiling(monitor);
  EXPECT_LT(monitor.regions().size(), before);

  bool hot_survives = false;
  bool one_off_survives = false;
  for (const MonitorRegion& region : monitor.regions()) {
    if (region.start == 10 && region.end == 11) hot_survives = true;
    if (region.start == 40 && region.end == 41) one_off_survives = true;
  }
  EXPECT_TRUE(hot_survives);
  EXPECT_FALSE(one_off_survives)
      << "one-off sample kept a region the budget should reclaim";
  EXPECT_EQ(TotalHits(monitor), 6u) << "merging must conserve hits";
}

TEST(RegionMonitorTest, MergeRespectsMinRegionsFloor) {
  RegionMonitor monitor(SmallConfig(), kPages, kChips);
  // All regions cold: merging would collapse everything, but the floor
  // holds coverage at min_regions.
  for (int i = 0; i < 10; ++i) monitor.Aggregate();
  EXPECT_GE(monitor.regions().size(), 4u);
  ExpectTiling(monitor);
}

TEST(RegionMonitorTest, WideColdRegionsMergeOnDensityNotAbsoluteHits) {
  MonitorConfig config = SmallConfig();
  config.min_regions = 2;
  config.max_regions = 64;
  RegionMonitor monitor(config, kPages, kChips);
  // Scatter one-off samples across many pages: absolute counters grow
  // with region width after merging, but the per-page density stays <= 1
  // so merging must keep reclaiming budget.
  for (std::uint64_t page = 1; page < kPages; page += 2) {
    monitor.ObserveTransfer(page, 0);
  }
  monitor.Aggregate();
  monitor.Aggregate();
  EXPECT_LE(monitor.regions().size(), 8u)
      << "scattered one-off mass froze the region map";
  EXPECT_EQ(TotalHits(monitor), kPages / 2);
}

TEST(RegionMonitorTest, AgingShiftsHitsAfterConfiguredPeriod) {
  RegionMonitor monitor(SmallConfig(), kPages, kChips);  // Shift every 4.
  for (int i = 0; i < 8; ++i) monitor.ObserveTransfer(10, 0);
  for (int i = 0; i < 3; ++i) monitor.Aggregate();
  EXPECT_EQ(TotalHits(monitor), 8u);  // Not yet.
  monitor.Aggregate();                // 4th aggregation: shift.
  EXPECT_EQ(TotalHits(monitor), 4u);
}

TEST(RegionMonitorTest, RegionAgeAdvancesAndResetsOnSplit) {
  RegionMonitor monitor(SmallConfig(), kPages, kChips);
  monitor.Aggregate();
  monitor.Aggregate();
  for (const MonitorRegion& region : monitor.regions()) {
    EXPECT_EQ(region.age, 2u);
  }
  monitor.ObserveTransfer(10, 0);
  for (const MonitorRegion& region : monitor.regions()) {
    if (region.start <= 10 && 10 < region.end) {
      EXPECT_EQ(region.age, 0u) << "split children must restart their age";
    }
  }
}

TEST(RegionMonitorTest, MaterializeSpreadsDensityAndFloorsNoise) {
  MonitorConfig config = SmallConfig();
  RegionMonitor monitor(config, kPages, kChips);
  for (int i = 0; i < 9; ++i) monitor.ObserveTransfer(10, 0);
  const std::vector<std::uint32_t> counts =
      DenseCounts(monitor.MaterializeRuns(), kPages);
  ASSERT_EQ(counts.size(), kPages);
  EXPECT_EQ(counts[10], 9u);
  // Wide regions got no hits here: their density floors to zero, so
  // sub-sample noise can never look hot to the layout planner.
  EXPECT_EQ(counts[11], 0u);
  EXPECT_EQ(counts[63], 0u);
}

TEST(RegionMonitorTest, SchemesBoostHotAndPinCold) {
  MonitorConfig config = SmallConfig();
  config.hot_boost = 16;
  const SchemeParseResult schemes = ParseSchemeString(
      "1 1 8 * 0 migrate-hot\n"
      "2 * 0 1 0 pin-cold\n");
  ASSERT_TRUE(schemes.ok()) << schemes.error;
  config.rules = schemes.rules;
  RegionMonitor monitor(config, kPages, kChips);

  for (int i = 0; i < 9; ++i) monitor.ObserveTransfer(10, 0);  // Hot.
  for (int i = 0; i < 2; ++i) monitor.ObserveTransfer(40, 1);  // Warm.
  const std::vector<std::uint32_t> counts =
      DenseCounts(monitor.MaterializeRuns(), kPages);
  // Hot single-page region: full counter plus the migrate-hot boost.
  EXPECT_EQ(counts[10], 9u + 16u);
  // Warm single-page region (2 hits < acc_lo 8): no rule matches a
  // single-page region with the pin-cold size floor, value passes as-is.
  EXPECT_EQ(counts[40], 2u);
  // Wide cold regions match pin-cold: zeroed.
  EXPECT_EQ(counts[0], 0u);
  EXPECT_GT(monitor.stats().scheme_region_matches, 0u);
}

TEST(RegionMonitorTest, FirstMatchingRuleWins) {
  MonitorConfig config = SmallConfig();
  config.hot_boost = 16;
  // Both rules match a 1-page region with 9 hits; the first must win.
  const SchemeParseResult schemes = ParseSchemeString(
      "1 1 0 * 0 pin-cold\n"
      "1 1 8 * 0 migrate-hot\n");
  ASSERT_TRUE(schemes.ok()) << schemes.error;
  config.rules = schemes.rules;
  RegionMonitor monitor(config, kPages, kChips);
  for (int i = 0; i < 9; ++i) monitor.ObserveTransfer(10, 0);
  EXPECT_EQ(DenseCounts(monitor.MaterializeRuns(), kPages)[10], 0u);
}

TEST(RegionMonitorTest, DemoteChipFiresAfterIdleStreak) {
  MonitorConfig config = SmallConfig();
  const SchemeParseResult schemes =
      ParseSchemeString("* * 0 0 2 demote-chip\n");
  ASSERT_TRUE(schemes.ok()) << schemes.error;
  config.rules = schemes.rules;
  RegionMonitor monitor(config, kPages, kChips);

  // Chip 0 stays busy, the rest are idle.
  monitor.ObserveTransfer(1, 0);
  EXPECT_TRUE(monitor.Aggregate().empty());  // Streaks at 1 < 2.
  monitor.ObserveTransfer(2, 0);
  const std::vector<ChipDemotion>& demote =
      monitor.Aggregate();  // Streaks at 2.
  ASSERT_EQ(demote.size(), 3u);
  EXPECT_EQ(demote[0].chip, 1);
  EXPECT_EQ(demote[1].chip, 2);
  EXPECT_EQ(demote[2].chip, 3);
  EXPECT_EQ(demote[0].depth, 1);  // Suffix-less rule: one policy step.
  EXPECT_EQ(monitor.stats().demotions_requested, 3u);

  // Traffic on a chip resets its streak.
  monitor.ObserveTransfer(3, 1);
  const std::vector<ChipDemotion>& next = monitor.Aggregate();
  EXPECT_EQ(next.size(), 2u);  // Chips 2 and 3 only.
}

TEST(RegionMonitorTest, DemoteDepthRidesTheMatchedRule) {
  MonitorConfig config = SmallConfig();
  // First match wins: the deep rule needs a longer idle streak, so a
  // chip graduates from depth-1 to depth-3 demotions as it stays idle.
  const SchemeParseResult schemes = ParseSchemeString(
      "* * 0 0 4 demote-chip:3\n"
      "* * 0 0 2 demote-chip\n");
  ASSERT_TRUE(schemes.ok()) << schemes.error;
  config.rules = schemes.rules;
  RegionMonitor monitor(config, kPages, kChips);

  monitor.Aggregate();  // Streaks at 1.
  const std::vector<ChipDemotion>& shallow = monitor.Aggregate();  // 2.
  ASSERT_EQ(shallow.size(), static_cast<std::size_t>(kChips));
  EXPECT_EQ(shallow[0].depth, 1);

  monitor.Aggregate();  // 3.
  const std::vector<ChipDemotion>& deep = monitor.Aggregate();  // 4.
  ASSERT_EQ(deep.size(), static_cast<std::size_t>(kChips));
  EXPECT_EQ(deep[0].depth, 3);
}

TEST(RegionMonitorTest, HotnessErrorBoundsAndDirection) {
  RegionMonitor monitor(SmallConfig(), kPages, kChips);
  std::vector<std::uint32_t> oracle(kPages, 0);
  EXPECT_EQ(monitor.latest_hotness_error(), -1.0);  // Never recorded.

  // Neither side has mass: distributions agree trivially.
  monitor.RecordHotnessError(oracle, NonzeroPages(oracle));
  EXPECT_EQ(monitor.latest_hotness_error(), 0.0);

  // Monitor isolates page 10; oracle agrees -> small distance.
  for (int i = 0; i < 20; ++i) monitor.ObserveTransfer(10, 0);
  monitor.Aggregate();
  oracle[10] = 20;
  monitor.RecordHotnessError(oracle, NonzeroPages(oracle));
  const double aligned = monitor.latest_hotness_error();
  EXPECT_LT(aligned, 0.2);
  EXPECT_EQ(monitor.latest_hotness_error(), aligned);

  // Oracle mass on a page the monitor thinks is cold -> near 1.
  oracle[10] = 0;
  oracle[50] = 20;
  monitor.RecordHotnessError(oracle, NonzeroPages(oracle));
  const double disjoint = monitor.latest_hotness_error();
  EXPECT_GT(disjoint, 0.9);
  EXPECT_LE(disjoint, 1.0);

  // One-sided mass is maximal distance by convention.
  RegionMonitor empty(SmallConfig(), kPages, kChips);
  empty.RecordHotnessError(oracle, NonzeroPages(oracle));
  EXPECT_EQ(empty.latest_hotness_error(), 1.0);
}

// The hotness error as RecordHotnessError used to compute it on the
// spot, from the live regions and a dense oracle: the reference for the
// deferred evaluation.
double EagerHotnessError(const std::vector<MonitorRegion>& regions,
                         const std::vector<std::uint32_t>& oracle) {
  double monitored_total = 0.0;
  for (const MonitorRegion& region : regions) {
    monitored_total += static_cast<double>(region.hits);
  }
  double oracle_total = 0.0;
  for (std::uint32_t count : oracle) {
    oracle_total += static_cast<double>(count);
  }
  if (monitored_total <= 0.0 && oracle_total <= 0.0) return 0.0;
  if (monitored_total <= 0.0 || oracle_total <= 0.0) return 1.0;
  double distance = 0.0;
  for (const MonitorRegion& region : regions) {
    const double density = static_cast<double>(region.hits) /
                           (static_cast<double>(region.size()) *
                            monitored_total);
    for (std::uint64_t page = region.start; page < region.end; ++page) {
      const double truth = static_cast<double>(oracle[page]) / oracle_total;
      distance += std::fabs(density - truth);
    }
  }
  return 0.5 * distance;
}

TEST(RegionMonitorTest, DeferredHotnessErrorEqualsEagerOne) {
  // Each round records a snapshot, then keeps sampling, recording oracle
  // traffic and aging both sides before the error is read: the value
  // read must be the eager one of the snapshot's moment, to the bit.
  MonitorConfig config = SmallConfig();
  const SchemeParseResult schemes = ParseSchemeString(
      "1 1 4 * 0 migrate-hot\n"
      "2 * 0 1 1 pin-cold\n");
  ASSERT_TRUE(schemes.ok()) << schemes.error;
  config.rules = schemes.rules;
  RegionMonitor monitor(config, kPages, kChips);
  PopularityTracker oracle(kPages, /*max_count=*/12);
  Rng rng(29);
  auto traffic = [&](int transfers) {
    for (int i = 0; i < transfers; ++i) {
      // Skewed: a quarter of the traffic goes to four pages.
      const std::uint64_t page = rng.NextBounded(4) == 0
                                     ? 8 * rng.NextBounded(4) + 3
                                     : rng.NextBounded(kPages);
      monitor.ObserveTransfer(page, static_cast<int>(page % kChips));
      oracle.Record(page);
    }
  };
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    traffic(30);
    monitor.Aggregate();
    monitor.MaterializeRuns();
    monitor.RecordHotnessError(oracle.counts(), oracle.nonzero_pages());
    const double eager = EagerHotnessError(monitor.regions(), oracle.counts());

    traffic(25);
    if (round % 3 == 2) oracle.Age();
    monitor.Aggregate();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(monitor.latest_hotness_error()),
              std::bit_cast<std::uint64_t>(eager))
        << monitor.latest_hotness_error() << " vs " << eager;
  }
}

TEST(RegionMonitorTest, OverheadAccountChargesConfiguredCosts) {
  MonitorConfig config = SmallConfig();
  config.probe_cost = 10;
  config.observe_cost = 5;
  config.region_cost = 1;
  RegionMonitor monitor(config, kPages, kChips);
  EXPECT_EQ(monitor.ChargeProbesThrough(config.sampling_interval), 1u);
  monitor.ObserveTransfer(10, 0);
  monitor.ObserveTransfer(11, 0);
  // 1 probe + 2 observations = 20 ticks; 4-ish regions per aggregation.
  const Tick before_aggregate = monitor.stats().busy_ticks;
  EXPECT_EQ(before_aggregate, 20);
  monitor.Aggregate();
  EXPECT_GT(monitor.stats().busy_ticks, before_aggregate);
  EXPECT_GT(monitor.OverheadFraction(10000), 0.0);
  EXPECT_EQ(monitor.OverheadFraction(0), 0.0);
}

TEST(RegionMonitorTest, ProbesAreChargedInClosedForm) {
  MonitorConfig config = SmallConfig();
  config.sampling_interval = 100;
  config.probe_cost = 3;
  RegionMonitor monitor(config, kPages, kChips);
  // Between ticks: ticks 100 and 200.
  EXPECT_EQ(monitor.ChargeProbesThrough(250), 2u);
  // On a tick: the tick itself is charged.
  EXPECT_EQ(monitor.ChargeProbesThrough(400), 2u);
  EXPECT_EQ(monitor.stats().probes, 4u);
  EXPECT_EQ(monitor.stats().busy_ticks, 4 * 3);
  // Charging again before the next tick charges nothing.
  EXPECT_EQ(monitor.ChargeProbesThrough(400), 0u);
  EXPECT_EQ(monitor.ChargeProbesThrough(499), 0u);
  EXPECT_EQ(monitor.stats().probes, 4u);
  EXPECT_EQ(monitor.stats().busy_ticks, 4 * 3);
}

TEST(RegionMonitorTest, MergeDensityBoundaryIsExactAtAnyThreshold) {
  // Six regions with the budget full, so further samples add hits
  // without splitting: [0,1) 1, [1,16) 29, [16,17) 1, [17,32) 30,
  // [32,33) 1, [33,64) 0. With merge_max_hits 1 a region is cold iff
  // floor(hits / size) <= 1: 29 hits over 15 pages are cold, 30 are not.
  auto merged_regions = [](std::uint64_t merge_max_hits) {
    MonitorConfig config = SmallConfig();
    config.min_regions = 2;
    config.max_regions = 6;
    config.merge_max_hits = merge_max_hits;
    RegionMonitor monitor(config, kPages, kChips);
    monitor.ObserveTransfer(0, 0);
    monitor.ObserveTransfer(32, 0);
    monitor.ObserveTransfer(16, 0);
    for (int i = 0; i < 29; ++i) monitor.ObserveTransfer(5, 0);
    for (int i = 0; i < 30; ++i) monitor.ObserveTransfer(20, 0);
    EXPECT_EQ(monitor.regions().size(), 6u);
    monitor.Aggregate();
    std::vector<std::uint64_t> starts;
    for (const MonitorRegion& region : monitor.regions()) {
      starts.push_back(region.start);
    }
    return starts;
  };
  EXPECT_EQ(merged_regions(1), (std::vector<std::uint64_t>{0, 17, 32}));
  // At and beyond the hit pin every region is cold, whatever its
  // density, and the bound's product must not overflow on the way.
  const std::vector<std::uint64_t> floor_only{0, 33};
  EXPECT_EQ(merged_regions(RegionMonitor::kMaxHits - 1), floor_only);
  EXPECT_EQ(merged_regions(RegionMonitor::kMaxHits), floor_only);
  EXPECT_EQ(merged_regions(UINT64_MAX), floor_only);
  // merge_max_hits 0: one hit on one page is already hot.
  EXPECT_EQ(merged_regions(0),
            (std::vector<std::uint64_t>{0, 1, 16, 17, 32, 33}));
}

TEST(RegionMonitorTest, HitCountersPinInsteadOfWrapping) {
  RegionMonitor monitor(SmallConfig(), 4, kChips);
  // Drive a counter to the pin via repeated observation of a single-page
  // region -- directly, by checking PinnedAdd's contract at the edge.
  monitor.ObserveTransfer(0, 0);
  // The pin itself is far out of reach of unit-scale sampling; assert the
  // configured constant leaves boost headroom below 2^64.
  EXPECT_LT(RegionMonitor::kMaxHits, UINT64_MAX / 2);
}

// Determinism suite: the name matters -- CI's TSan job runs tests
// matching *Determinism* to catch races in anything feeding the pinned
// artifact checksums.
TEST(MonitorDeterminismTest, IdenticalSamplesIdenticalRegions) {
  MonitorConfig config = SmallConfig();
  const SchemeParseResult schemes = ParseSchemeString(
      "1 1 4 * 0 migrate-hot\n"
      "2 * 0 1 1 pin-cold\n");
  ASSERT_TRUE(schemes.ok()) << schemes.error;
  config.rules = schemes.rules;

  RegionMonitor a(config, kPages, kChips);
  RegionMonitor b(config, kPages, kChips);
  const std::uint64_t samples[] = {3, 40, 3, 62, 17, 3, 40, 0, 63, 31, 3};
  Tick now = 0;
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t page : samples) {
      now += config.sampling_interval;
      a.ChargeProbesThrough(now);
      b.ChargeProbesThrough(now);
      a.ObserveTransfer(page, static_cast<int>(page) % kChips);
      b.ObserveTransfer(page, static_cast<int>(page) % kChips);
    }
    a.Aggregate();
    b.Aggregate();
  }

  ASSERT_EQ(a.regions().size(), b.regions().size());
  for (std::size_t i = 0; i < a.regions().size(); ++i) {
    EXPECT_EQ(a.regions()[i].start, b.regions()[i].start);
    EXPECT_EQ(a.regions()[i].end, b.regions()[i].end);
    EXPECT_EQ(a.regions()[i].hits, b.regions()[i].hits);
    EXPECT_EQ(a.regions()[i].age, b.regions()[i].age);
  }
  const std::vector<std::uint32_t> counts_a =
      DenseCounts(a.MaterializeRuns(), kPages);
  const std::vector<std::uint32_t> counts_b =
      DenseCounts(b.MaterializeRuns(), kPages);
  EXPECT_EQ(counts_a, counts_b);
  EXPECT_EQ(a.stats().busy_ticks, b.stats().busy_ticks);
}

}  // namespace
}  // namespace dmasim
