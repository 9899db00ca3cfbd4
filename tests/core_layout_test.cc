// Tests for popularity tracking and popularity-based layout planning.
#include "core/layout_manager.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "core/popularity_tracker.h"
#include "util/random.h"

namespace dmasim {
namespace {

TEST(PopularityTrackerTest, RecordsAndSaturates) {
  PopularityTracker tracker(16, /*max_count=*/3);
  tracker.Record(5);
  tracker.Record(5);
  EXPECT_EQ(tracker.Count(5), 2u);
  tracker.Record(5);
  tracker.Record(5);
  EXPECT_EQ(tracker.Count(5), 3u);  // Saturated.
  EXPECT_EQ(tracker.Count(6), 0u);
  EXPECT_EQ(tracker.total(), 4u);
}

TEST(PopularityTrackerTest, BulkRecordMatchesRepeatedSingles) {
  PopularityTracker bulk(8, /*max_count=*/100);
  PopularityTracker singles(8, /*max_count=*/100);
  bulk.Record(2, 37);
  for (int i = 0; i < 37; ++i) singles.Record(2);
  EXPECT_EQ(bulk.Count(2), singles.Count(2));
  EXPECT_EQ(bulk.total(), singles.total());
}

TEST(PopularityTrackerTest, BulkRecordSaturatesAtCounterBoundary) {
  PopularityTracker tracker(8, /*max_count=*/10);
  tracker.Record(3, 9);
  EXPECT_EQ(tracker.Count(3), 9u);  // One below the cap.
  tracker.Record(3, 1);
  EXPECT_EQ(tracker.Count(3), 10u);  // Exactly at the cap.
  tracker.Record(3, 1);
  EXPECT_EQ(tracker.Count(3), 10u);  // Pinned, not wrapped.
  tracker.Record(3, UINT64_MAX);     // Far past the cap in one step.
  EXPECT_EQ(tracker.Count(3), 10u);
  // The total keeps counting past per-page saturation.
  EXPECT_GT(tracker.total(), 10u);
}

TEST(PopularityTrackerTest, TotalPinsInsteadOfWrapping) {
  PopularityTracker tracker(4);
  // Reach the pin exactly, then overshoot: the total must stick at the
  // pin. Without the pin this wraps and silently inverts every
  // popularity share computed from it.
  tracker.Record(0, PopularityTracker::kTotalPin - 1);
  EXPECT_EQ(tracker.total(), PopularityTracker::kTotalPin - 1);
  tracker.Record(1);
  EXPECT_EQ(tracker.total(), PopularityTracker::kTotalPin);
  tracker.Record(2);  // Single-record path at the pin.
  EXPECT_EQ(tracker.total(), PopularityTracker::kTotalPin);
  tracker.Record(3, UINT64_MAX);  // Bulk path at the pin.
  EXPECT_EQ(tracker.total(), PopularityTracker::kTotalPin);
  // Aging still drains a pinned total.
  tracker.Age();
  EXPECT_EQ(tracker.total(), PopularityTracker::kTotalPin >> 1);
}

TEST(PopularityTrackerTest, AgingHalvesCounts) {
  PopularityTracker tracker(8);
  for (int i = 0; i < 9; ++i) tracker.Record(1);
  tracker.Record(2);
  tracker.Age();
  EXPECT_EQ(tracker.Count(1), 4u);
  EXPECT_EQ(tracker.Count(2), 0u);
}

// The referenced-page index must always be exactly {p : count[p] > 0},
// each page once.
void ExpectIndexMatchesCounts(const PopularityTracker& tracker) {
  std::vector<std::uint32_t> expected;
  for (std::uint64_t page = 0; page < tracker.pages(); ++page) {
    if (tracker.Count(page) > 0) {
      expected.push_back(static_cast<std::uint32_t>(page));
    }
  }
  std::vector<std::uint32_t> indexed = tracker.nonzero_pages();
  std::sort(indexed.begin(), indexed.end());
  EXPECT_EQ(indexed, expected);
}

TEST(PopularityTrackerTest, NonzeroIndexFollowsRecordAndAge) {
  PopularityTracker tracker(16, /*max_count=*/5);
  ExpectIndexMatchesCounts(tracker);
  tracker.Record(7);
  tracker.Record(7);  // Already indexed: not listed twice.
  tracker.Record(3);
  EXPECT_EQ(tracker.nonzero_pages(), (std::vector<std::uint32_t>{7, 3}));
  tracker.Record(9, 0);  // A weightless record references nothing.
  tracker.Record(12, 4);
  tracker.Record(12, UINT64_MAX);  // Saturates; still listed once.
  tracker.Record(3, 3);
  for (int i = 0; i < 10; ++i) tracker.Record(0);  // Saturates singly.
  EXPECT_EQ(tracker.Count(12), 5u);
  EXPECT_EQ(tracker.Count(0), 5u);
  ExpectIndexMatchesCounts(tracker);

  // Counts 2 (page 7), 4 (page 3), 5 (pages 12 and 0): one age keeps
  // all four; the second drops page 7 and keeps the others in order.
  tracker.Age();
  EXPECT_EQ(tracker.nonzero_pages(),
            (std::vector<std::uint32_t>{7, 3, 12, 0}));
  tracker.Age();
  EXPECT_EQ(tracker.nonzero_pages(), (std::vector<std::uint32_t>{3, 12, 0}));
  ExpectIndexMatchesCounts(tracker);
  tracker.Age();
  tracker.Age();
  EXPECT_TRUE(tracker.nonzero_pages().empty());
  // A page that aged out is indexed again on its next reference.
  tracker.Record(7);
  EXPECT_EQ(tracker.nonzero_pages(), (std::vector<std::uint32_t>{7}));
}

TEST(PopularityTrackerTest, NonzeroIndexMatchesCountsUnderRandomTraffic) {
  Rng rng(41);
  PopularityTracker tracker(256, /*max_count=*/40);
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t page = rng.NextBounded(256);
    const std::uint64_t action = rng.NextBounded(100);
    if (action < 70) {
      tracker.Record(page);
    } else if (action < 98) {
      tracker.Record(page, rng.NextBounded(60));
    } else {
      tracker.Age();
    }
    if (step % 97 == 0) ExpectIndexMatchesCounts(tracker);
  }
  ExpectIndexMatchesCounts(tracker);
}

// Dense per-page counts as the planner's input: one single-page run per
// referenced page, in page order.
std::vector<PageCountRun> RunsOf(const std::vector<std::uint32_t>& counts) {
  std::vector<PageCountRun> runs;
  for (std::uint64_t page = 0; page < counts.size(); ++page) {
    if (counts[page] > 0) {
      runs.push_back({static_cast<std::uint32_t>(page), 1, counts[page]});
    }
  }
  return runs;
}

// The same counts as maximal runs of consecutive pages sharing a count,
// the shape the access monitor hands the planner.
std::vector<PageCountRun> MergedRunsOf(
    const std::vector<std::uint32_t>& counts) {
  std::vector<PageCountRun> runs;
  for (std::uint64_t page = 0; page < counts.size(); ++page) {
    if (counts[page] == 0) continue;
    if (!runs.empty() && runs.back().count == counts[page] &&
        runs.back().first + runs.back().pages == page) {
      ++runs.back().pages;
    } else {
      runs.push_back({static_cast<std::uint32_t>(page), 1, counts[page]});
    }
  }
  return runs;
}

// The dense planner LayoutManager::Plan replaced, kept verbatim in its
// logic as the reference for the sparse one: it ranks every page of
// `counts` and collects every hot chip's eviction candidates in one pass
// over the whole page map, then pops them from the back.
LayoutPlan ReferencePlan(const PopularityLayoutConfig& config, int chips,
                         int pages_per_chip,
                         const std::vector<std::uint32_t>& counts,
                         const std::vector<std::int32_t>& page_to_chip) {
  const std::uint64_t pages = counts.size();
  LayoutPlan plan;
  std::vector<std::uint32_t> ranked;
  std::uint64_t total = 0;
  for (std::uint64_t page = 0; page < pages; ++page) {
    if (counts[page] > 0) {
      ranked.push_back(static_cast<std::uint32_t>(page));
      total += counts[page];
    }
  }
  if (total == 0) return plan;
  std::sort(ranked.begin(), ranked.end(),
            [&counts](std::uint32_t a, std::uint32_t b) {
              if (counts[a] != counts[b]) return counts[a] > counts[b];
              return a < b;
            });
  const double target = config.hot_access_share * static_cast<double>(total);
  std::uint64_t covered = 0;
  std::uint64_t hot_pages = 0;
  for (std::uint32_t page : ranked) {
    if (counts[page] < config.min_hot_count) break;
    covered += counts[page];
    ++hot_pages;
    if (static_cast<double>(covered) >= target) break;
  }
  if (hot_pages == 0) return plan;
  int hot_chips = static_cast<int>(
      (hot_pages + static_cast<std::uint64_t>(pages_per_chip) - 1) /
      static_cast<std::uint64_t>(pages_per_chip));
  const int min_chips_for_groups = (1 << (config.groups - 1)) - 1;
  hot_chips =
      std::clamp(std::max(hot_chips, min_chips_for_groups), 1, chips - 1);
  plan.hot_chips = hot_chips;
  const std::vector<int> sizes =
      LayoutManager::HotGroupSizes(hot_chips, config.groups);
  plan.group_of_chip.assign(static_cast<std::size_t>(chips),
                            static_cast<int>(sizes.size()));
  plan.group_count = static_cast<int>(sizes.size()) + 1;
  {
    int chip = 0;
    for (std::size_t g = 0; g < sizes.size(); ++g) {
      for (int i = 0; i < sizes[g]; ++i) {
        plan.group_of_chip[static_cast<std::size_t>(chip++)] =
            static_cast<int>(g);
      }
    }
  }
  const int cold_group = static_cast<int>(sizes.size());
  const std::uint64_t hot_capacity =
      static_cast<std::uint64_t>(hot_chips) *
      static_cast<std::uint64_t>(pages_per_chip);
  const std::uint64_t hot_ranks = std::min<std::uint64_t>(
      {static_cast<std::uint64_t>(ranked.size()), hot_capacity, hot_pages});
  std::vector<std::uint64_t> group_rank_end(sizes.size(), 0);
  {
    std::uint64_t assigned = 0;
    int chips_seen = 0;
    for (std::size_t g = 0; g < sizes.size(); ++g) {
      chips_seen += sizes[g];
      std::uint64_t end = hot_ranks * static_cast<std::uint64_t>(chips_seen) /
                          static_cast<std::uint64_t>(hot_chips);
      const std::uint64_t capacity_end =
          assigned + static_cast<std::uint64_t>(sizes[g]) *
                         static_cast<std::uint64_t>(pages_per_chip);
      end = std::min(end, capacity_end);
      if (g + 1 == sizes.size()) end = std::min(hot_ranks, capacity_end);
      group_rank_end[g] = std::max(end, assigned);
      assigned = group_rank_end[g];
    }
  }
  auto target_group_of_rank = [&](std::uint64_t rank) {
    for (std::size_t g = 0; g < group_rank_end.size(); ++g) {
      if (rank < group_rank_end[g]) return static_cast<int>(g);
    }
    return cold_group;
  };
  std::vector<int> target_group_of_page(pages, cold_group);
  for (std::uint64_t rank = 0; rank < hot_ranks; ++rank) {
    target_group_of_page[ranked[rank]] = target_group_of_rank(rank);
  }
  std::vector<std::vector<std::uint32_t>> evictable(
      static_cast<std::size_t>(chips));
  for (std::uint64_t page = 0; page < pages; ++page) {
    const int chip = page_to_chip[page];
    if (chip >= hot_chips) continue;
    if (target_group_of_page[page] !=
        plan.group_of_chip[static_cast<std::size_t>(chip)]) {
      evictable[static_cast<std::size_t>(chip)].push_back(
          static_cast<std::uint32_t>(page));
    }
  }
  std::vector<std::uint8_t> moved(pages, 0);
  std::vector<int> next_chip_in_group(sizes.size(), 0);
  for (std::uint64_t rank = 0; rank < hot_ranks; ++rank) {
    const std::uint32_t page = ranked[rank];
    if (moved[page]) continue;
    const int group = target_group_of_rank(rank);
    const int current_chip = page_to_chip[page];
    if (plan.group_of_chip[static_cast<std::size_t>(current_chip)] == group) {
      continue;
    }
    if (static_cast<int>(plan.moves.size()) + 2 >
        config.max_migrations_per_interval) {
      ++plan.deferred_moves;
      continue;
    }
    int first = 0;
    for (int g = 0; g < group; ++g) first += sizes[static_cast<std::size_t>(g)];
    const int span = sizes[static_cast<std::size_t>(group)];
    int destination = -1;
    std::uint32_t victim = 0;
    for (int probe = 0; probe < span; ++probe) {
      int& cursor = next_chip_in_group[static_cast<std::size_t>(group)];
      const int chip = first + (cursor % span);
      cursor = (cursor + 1) % span;
      auto& candidates = evictable[static_cast<std::size_t>(chip)];
      while (!candidates.empty() && moved[candidates.back()]) {
        candidates.pop_back();
      }
      if (!candidates.empty()) {
        destination = chip;
        victim = candidates.back();
        candidates.pop_back();
        break;
      }
    }
    if (destination < 0) continue;
    plan.moves.push_back(PageMove{page, current_chip, destination});
    plan.moves.push_back(PageMove{victim, destination, current_chip});
    moved[page] = 1;
    moved[victim] = 1;
  }
  return plan;
}

void ExpectSamePlan(const LayoutPlan& actual, const LayoutPlan& expected) {
  ASSERT_EQ(actual.moves.size(), expected.moves.size());
  for (std::size_t i = 0; i < actual.moves.size(); ++i) {
    EXPECT_EQ(actual.moves[i].page, expected.moves[i].page) << "move " << i;
    EXPECT_EQ(actual.moves[i].from_chip, expected.moves[i].from_chip)
        << "move " << i;
    EXPECT_EQ(actual.moves[i].to_chip, expected.moves[i].to_chip)
        << "move " << i;
  }
  EXPECT_EQ(actual.hot_chips, expected.hot_chips);
  EXPECT_EQ(actual.group_of_chip, expected.group_of_chip);
  EXPECT_EQ(actual.group_count, expected.group_count);
  EXPECT_EQ(actual.deferred_moves, expected.deferred_moves);
}

PopularityLayoutConfig TestConfig(int groups = 2) {
  PopularityLayoutConfig config;
  config.enabled = true;
  config.groups = groups;
  config.hot_access_share = 0.6;
  config.min_hot_count = 2;
  return config;
}

// A small universe: 4 chips x 8 pages.
constexpr int kChips = 4;
constexpr int kPagesPerChip = 8;
constexpr std::uint64_t kPages = kChips * kPagesPerChip;

std::vector<std::int32_t> StripedLayout() {
  std::vector<std::int32_t> layout(kPages);
  for (std::uint64_t page = 0; page < kPages; ++page) {
    layout[page] = static_cast<std::int32_t>(page % kChips);
  }
  return layout;
}

TEST(HotGroupSizesTest, ExponentialSizing) {
  EXPECT_EQ(LayoutManager::HotGroupSizes(1, 2), (std::vector<int>{1}));
  EXPECT_EQ(LayoutManager::HotGroupSizes(7, 4), (std::vector<int>{1, 2, 4}));
  // Last hot group absorbs the remainder.
  EXPECT_EQ(LayoutManager::HotGroupSizes(10, 4), (std::vector<int>{1, 2, 7}));
  // Clipped when there are not enough chips.
  EXPECT_EQ(LayoutManager::HotGroupSizes(2, 6), (std::vector<int>{1, 1}));
  // Two groups = one hot group with everything.
  EXPECT_EQ(LayoutManager::HotGroupSizes(5, 2), (std::vector<int>{5}));
}

TEST(LayoutManagerTest, NoCountsNoPlan) {
  LayoutManager manager(TestConfig(), kChips, kPagesPerChip);
  std::vector<std::uint32_t> counts(kPages, 0);
  const LayoutPlan plan = manager.Plan(RunsOf(counts), StripedLayout());
  EXPECT_TRUE(plan.moves.empty());
}

TEST(LayoutManagerTest, ConcentratesHotPagesOnHotChips) {
  LayoutManager manager(TestConfig(), kChips, kPagesPerChip);
  std::vector<std::uint32_t> counts(kPages, 0);
  // Four hot pages spread across chips (striped layout puts page p on
  // chip p % 4).
  counts[1] = 100;
  counts[2] = 90;
  counts[3] = 80;
  counts[7] = 70;
  auto layout = StripedLayout();
  const LayoutPlan plan = manager.Plan(RunsOf(counts), layout);
  EXPECT_EQ(plan.hot_chips, 1);
  ASSERT_FALSE(plan.moves.empty());

  // Apply and verify all hot pages end on chip 0.
  for (const PageMove& move : plan.moves) {
    EXPECT_EQ(layout[move.page], move.from_chip);
    layout[move.page] = move.to_chip;
  }
  EXPECT_EQ(layout[1], 0);
  EXPECT_EQ(layout[2], 0);
  EXPECT_EQ(layout[3], 0);
  // Page 7 is outside the prefix that covers the 60% access-share target
  // (pages 1-3 already cover 270 of 340 accesses), so it stays put.
  EXPECT_EQ(layout[7], 3);
}

TEST(LayoutManagerTest, MovesComeInOccupancyPreservingSwaps) {
  LayoutManager manager(TestConfig(), kChips, kPagesPerChip);
  std::vector<std::uint32_t> counts(kPages, 0);
  counts[1] = 50;
  counts[5] = 40;
  auto layout = StripedLayout();
  const LayoutPlan plan = manager.Plan(RunsOf(counts), layout);
  ASSERT_EQ(plan.moves.size() % 2, 0u);

  std::vector<int> occupancy(kChips, 0);
  for (std::uint64_t page = 0; page < kPages; ++page) ++occupancy[layout[page]];
  for (const PageMove& move : plan.moves) {
    --occupancy[move.from_chip];
    ++occupancy[move.to_chip];
  }
  for (int chip = 0; chip < kChips; ++chip) {
    EXPECT_EQ(occupancy[chip], kPagesPerChip);
  }
}

TEST(LayoutManagerTest, AlreadyPlacedPagesDoNotMove) {
  LayoutManager manager(TestConfig(), kChips, kPagesPerChip);
  std::vector<std::uint32_t> counts(kPages, 0);
  counts[0] = 100;  // Page 0 lives on chip 0 already (striped).
  counts[4] = 90;   // Page 4 lives on chip 0 too.
  const LayoutPlan plan = manager.Plan(RunsOf(counts), StripedLayout());
  EXPECT_TRUE(plan.moves.empty());
}

TEST(LayoutManagerTest, NoiseFloorFiltersOneOffPages) {
  PopularityLayoutConfig config = TestConfig();
  config.min_hot_count = 3;
  LayoutManager manager(config, kChips, kPagesPerChip);
  std::vector<std::uint32_t> counts(kPages, 0);
  counts[1] = 2;  // Below the floor.
  counts[2] = 2;
  const LayoutPlan plan = manager.Plan(RunsOf(counts), StripedLayout());
  EXPECT_TRUE(plan.moves.empty());
}

TEST(LayoutManagerTest, RespectsMigrationCap) {
  PopularityLayoutConfig config = TestConfig();
  config.max_migrations_per_interval = 2;  // One swap.
  LayoutManager manager(config, kChips, kPagesPerChip);
  std::vector<std::uint32_t> counts(kPages, 0);
  counts[1] = 100;
  counts[2] = 90;
  counts[3] = 80;
  const LayoutPlan plan = manager.Plan(RunsOf(counts), StripedLayout());
  EXPECT_LE(plan.moves.size(), 2u);
  EXPECT_GT(plan.deferred_moves, 0);
}

TEST(LayoutManagerTest, HotSetSizedByAccessShare) {
  LayoutManager manager(TestConfig(), kChips, kPagesPerChip);
  std::vector<std::uint32_t> counts(kPages, 0);
  // 12 equally popular pages: covering 60% of accesses needs 8 of them,
  // i.e. one full chip.
  for (std::uint64_t page = 0; page < 12; ++page) counts[page] = 10;
  const LayoutPlan plan = manager.Plan(RunsOf(counts), StripedLayout());
  EXPECT_EQ(plan.hot_chips, 1);
}

TEST(LayoutManagerTest, GroupOfChipAssignsColdGroup) {
  LayoutManager manager(TestConfig(/*groups=*/3), kChips, kPagesPerChip);
  std::vector<std::uint32_t> counts(kPages, 0);
  // Enough hot pages for 3 hot chips: 60% of 240 = 144 -> 15 pages -> 2
  // chips.
  for (std::uint64_t page = 0; page < 24; ++page) counts[page] = 10;
  const LayoutPlan plan = manager.Plan(RunsOf(counts), StripedLayout());
  ASSERT_EQ(plan.group_of_chip.size(), static_cast<std::size_t>(kChips));
  EXPECT_EQ(plan.group_of_chip[0], 0);  // First hot group (1 chip).
  EXPECT_GT(plan.hot_chips, 1);
  // Cold chips carry the final group id.
  EXPECT_EQ(plan.group_of_chip[kChips - 1], plan.group_count - 1);
}

TEST(LayoutManagerTest, DeterministicPlan) {
  LayoutManager manager(TestConfig(), kChips, kPagesPerChip);
  std::vector<std::uint32_t> counts(kPages, 0);
  counts[1] = 5;
  counts[9] = 5;
  counts[13] = 4;
  const LayoutPlan a = manager.Plan(RunsOf(counts), StripedLayout());
  const LayoutPlan b = manager.Plan(RunsOf(counts), StripedLayout());
  ASSERT_EQ(a.moves.size(), b.moves.size());
  for (std::size_t i = 0; i < a.moves.size(); ++i) {
    EXPECT_EQ(a.moves[i].page, b.moves[i].page);
    EXPECT_EQ(a.moves[i].to_chip, b.moves[i].to_chip);
  }
}

TEST(LayoutManagerTest, FewerHotPagesThanGroupsLeavesNoEmptyGroup) {
  // One hot page with 4 groups requested: the exponential ladder needs
  // 1+2+4 chips but only 3 can be hot, so the ladder must clip to the
  // structural minimum rather than emit empty hot groups.
  LayoutManager manager(TestConfig(/*groups=*/4), kChips, kPagesPerChip);
  std::vector<std::uint32_t> counts(kPages, 0);
  counts[5] = 100;
  const LayoutPlan plan = manager.Plan(RunsOf(counts), StripedLayout());
  EXPECT_EQ(plan.hot_chips, kChips - 1);  // Clamped, one chip stays cold.
  ASSERT_EQ(plan.group_of_chip.size(), static_cast<std::size_t>(kChips));
  // Every group id in [0, group_count) owns at least one chip.
  std::vector<int> chips_in_group(static_cast<std::size_t>(plan.group_count),
                                  0);
  for (int group : plan.group_of_chip) {
    ASSERT_GE(group, 0);
    ASSERT_LT(group, plan.group_count);
    ++chips_in_group[static_cast<std::size_t>(group)];
  }
  for (int group = 0; group < plan.group_count; ++group) {
    EXPECT_GT(chips_in_group[static_cast<std::size_t>(group)], 0)
        << "group " << group << " owns no chips";
  }
}

TEST(LayoutManagerTest, TiedCountsBreakDeterministically) {
  // Pages with identical counts compete for the last hot slots; the
  // ranking must break ties the same way on every call (sweeps replan
  // from equal state in parallel and the artifact checksum is pinned).
  LayoutManager manager(TestConfig(), kChips, kPagesPerChip);
  std::vector<std::uint32_t> counts(kPages, 0);
  for (std::uint64_t page = 1; page < 9; ++page) counts[page] = 7;

  const LayoutPlan first = manager.Plan(RunsOf(counts), StripedLayout());
  // Interleave a different planning problem to dirty the scratch
  // buffers, then replay the tied input: the plan must not change.
  std::vector<std::uint32_t> other(kPages, 1);
  other[30] = 50;
  (void)manager.Plan(RunsOf(other), StripedLayout());
  const LayoutPlan second = manager.Plan(RunsOf(counts), StripedLayout());

  ASSERT_EQ(first.moves.size(), second.moves.size());
  for (std::size_t i = 0; i < first.moves.size(); ++i) {
    EXPECT_EQ(first.moves[i].page, second.moves[i].page);
    EXPECT_EQ(first.moves[i].from_chip, second.moves[i].from_chip);
    EXPECT_EQ(first.moves[i].to_chip, second.moves[i].to_chip);
  }
  EXPECT_EQ(first.hot_chips, second.hot_chips);
  EXPECT_EQ(first.group_of_chip, second.group_of_chip);
}

TEST(LayoutManagerTest, ShrinkingHotSetReplansWithoutOccupancyDrift) {
  // Interval 1: a wide hot set claims two chips. Interval 2: most pages
  // went cold, the hot set shrinks to one chip. The second plan must
  // work from the migrated layout and keep occupancy exact.
  LayoutManager manager(TestConfig(/*groups=*/2), kChips, kPagesPerChip);
  auto layout = StripedLayout();

  std::vector<std::uint32_t> counts(kPages, 0);
  for (std::uint64_t page = 0; page < 24; ++page) counts[page] = 10;
  const LayoutPlan wide = manager.Plan(RunsOf(counts), layout);
  EXPECT_GT(wide.hot_chips, 1);
  for (const PageMove& move : wide.moves) {
    ASSERT_EQ(layout[move.page], move.from_chip);
    layout[move.page] = move.to_chip;
  }

  // Cooldown: only three pages stay hot.
  std::fill(counts.begin(), counts.end(), 0u);
  counts[0] = 20;
  counts[1] = 20;
  counts[2] = 20;
  const LayoutPlan narrow = manager.Plan(RunsOf(counts), layout);
  EXPECT_EQ(narrow.hot_chips, 1);
  EXPECT_LT(narrow.hot_chips, wide.hot_chips);

  std::vector<int> occupancy(kChips, 0);
  for (std::uint64_t page = 0; page < kPages; ++page) {
    ++occupancy[layout[page]];
  }
  for (const PageMove& move : narrow.moves) {
    ASSERT_EQ(layout[move.page], move.from_chip);
    layout[move.page] = move.to_chip;
    --occupancy[move.from_chip];
    ++occupancy[move.to_chip];
  }
  for (int chip = 0; chip < kChips; ++chip) {
    EXPECT_EQ(occupancy[chip], kPagesPerChip);
  }
  // The hot prefix (pages 0 and 1 cover the 60% share) ends on the
  // single remaining hot chip.
  EXPECT_EQ(layout[0], layout[1]);
}

// Property test: random popularity vectors never produce invalid plans.
class LayoutPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LayoutPropertyTest, PlansAreAlwaysWellFormed) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 1);
  const int chips = 8;
  const int pages_per_chip = 64;
  const std::uint64_t pages = static_cast<std::uint64_t>(chips) *
                              static_cast<std::uint64_t>(pages_per_chip);
  for (int groups : {2, 3, 6}) {
    PopularityLayoutConfig config;
    config.enabled = true;
    config.groups = groups;
    config.min_hot_count = 1;
    LayoutManager manager(config, chips, pages_per_chip);

    std::vector<std::uint32_t> counts(pages, 0);
    for (std::uint64_t page = 0; page < pages; ++page) {
      if (rng.NextDouble() < 0.3) {
        counts[page] = static_cast<std::uint32_t>(rng.NextBounded(50));
      }
    }
    std::vector<std::int32_t> layout(pages);
    for (std::uint64_t page = 0; page < pages; ++page) {
      layout[page] = static_cast<std::int32_t>(rng.NextBounded(
          static_cast<std::uint64_t>(chips)));
    }
    // Fix occupancy to exactly pages_per_chip per chip (required
    // invariant): rebuild as striped with a random offset.
    for (std::uint64_t page = 0; page < pages; ++page) {
      layout[page] = static_cast<std::int32_t>((page + 3) %
                                               static_cast<std::uint64_t>(
                                                   chips));
    }

    const LayoutPlan plan = manager.Plan(RunsOf(counts), layout);
    EXPECT_EQ(plan.moves.size() % 2, 0u);
    std::unordered_set<std::uint64_t> moved;
    std::vector<int> delta(chips, 0);
    for (const PageMove& move : plan.moves) {
      EXPECT_EQ(layout[move.page], move.from_chip);
      EXPECT_NE(move.from_chip, move.to_chip);
      EXPECT_GE(move.to_chip, 0);
      EXPECT_LT(move.to_chip, chips);
      // Each page moves at most once per interval.
      EXPECT_TRUE(moved.insert(move.page).second);
      --delta[move.from_chip];
      ++delta[move.to_chip];
    }
    for (int chip = 0; chip < chips; ++chip) {
      EXPECT_EQ(delta[chip], 0) << "occupancy drift on chip " << chip;
    }
    EXPECT_LE(static_cast<int>(plan.moves.size()),
              config.max_migrations_per_interval);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayoutPropertyTest, ::testing::Range(0, 10));

// Differential test: the sparse planner must produce exactly the dense
// reference's plan -- the same moves in the same order, hot chips, group
// map and deferred count -- whatever order and shape its runs come in.
// Each seed draws a geometry, a config and several rounds of counts with
// heavy ties and sub-floor noise; the reference plan is applied between
// rounds so later rounds see pages already in place, and one manager
// serves every round so its scratch must come back clean.
TEST(LayoutDifferentialTest, SparsePlanEqualsDenseReference) {
  int plans_with_moves = 0;
  int plans_with_deferrals = 0;
  int plans_with_several_hot_chips = 0;
  for (int seed = 0; seed < 240; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 3);
    const int chips = 3 + static_cast<int>(rng.NextBounded(14));
    const int pages_per_chip = 2 + static_cast<int>(rng.NextBounded(40));
    const std::uint64_t pages = static_cast<std::uint64_t>(chips) *
                                static_cast<std::uint64_t>(pages_per_chip);
    PopularityLayoutConfig config;
    config.enabled = true;
    config.groups = 2 + static_cast<int>(rng.NextBounded(4));  // 2..5.
    config.hot_access_share = 0.05 + 0.95 * rng.NextDouble();
    config.min_hot_count = static_cast<std::uint32_t>(rng.NextBounded(5));
    config.max_migrations_per_interval =
        rng.NextBounded(3) == 0 ? 2 + static_cast<int>(rng.NextBounded(12))
                                : 4096;
    LayoutManager manager(config, chips, pages_per_chip);

    // Exact occupancy: a shuffled multiset of chip ids.
    std::vector<std::int32_t> layout(pages);
    for (std::uint64_t page = 0; page < pages; ++page) {
      layout[page] = static_cast<std::int32_t>(
          page / static_cast<std::uint64_t>(pages_per_chip));
    }
    for (std::uint64_t i = pages - 1; i > 0; --i) {
      std::swap(layout[i], layout[rng.NextBounded(i + 1)]);
    }

    const double referenced = 0.05 + 0.9 * rng.NextDouble();
    const std::uint64_t max_count = 1 + rng.NextBounded(12);
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      std::vector<std::uint32_t> counts(pages, 0);
      for (std::uint64_t page = 0; page < pages; ++page) {
        if (rng.NextDouble() >= referenced) continue;
        // Small values tie often and straddle min_hot_count; an
        // occasional heavy page dominates the access share.
        counts[page] = static_cast<std::uint32_t>(
            rng.NextBounded(20) == 0 ? 50 + rng.NextBounded(500)
                                     : rng.NextBounded(max_count + 1));
      }
      if (round == 3) {
        // Runs of equal counts over consecutive pages.
        for (std::uint64_t page = 1; page < pages; ++page) {
          if (rng.NextBounded(3) != 0) counts[page] = counts[page - 1];
        }
      }

      const LayoutPlan expected =
          ReferencePlan(config, chips, pages_per_chip, counts, layout);
      ExpectSamePlan(manager.Plan(RunsOf(counts), layout), expected);
      ExpectSamePlan(manager.Plan(MergedRunsOf(counts), layout), expected);
      std::vector<PageCountRun> shuffled = MergedRunsOf(counts);
      for (std::size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
      }
      ExpectSamePlan(manager.Plan(shuffled, layout), expected);
      if (::testing::Test::HasFailure()) return;

      plans_with_moves += expected.moves.empty() ? 0 : 1;
      plans_with_deferrals += expected.deferred_moves > 0 ? 1 : 0;
      plans_with_several_hot_chips += expected.hot_chips > 1 ? 1 : 0;
      for (const PageMove& move : expected.moves) {
        layout[move.page] = move.to_chip;
      }
    }
  }
  // The draws exercised what the test claims to cover.
  EXPECT_GT(plans_with_moves, 200);
  EXPECT_GT(plans_with_deferrals, 50);
  EXPECT_GT(plans_with_several_hot_chips, 200);
}

}  // namespace
}  // namespace dmasim
