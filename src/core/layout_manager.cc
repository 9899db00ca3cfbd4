#include "core/layout_manager.h"

#include <algorithm>

namespace dmasim {

LayoutManager::LayoutManager(const PopularityLayoutConfig& config, int chips,
                             int pages_per_chip)
    : config_(config), chips_(chips), pages_per_chip_(pages_per_chip) {
  DMASIM_EXPECTS(chips >= 2);  // Need at least one hot and one cold chip.
  DMASIM_EXPECTS(pages_per_chip > 0);
  // Plans name pages and count them in runs with 32-bit numbers.
  DMASIM_EXPECTS(static_cast<std::uint64_t>(chips) *
                     static_cast<std::uint64_t>(pages_per_chip) <=
                 UINT32_MAX);
  DMASIM_EXPECTS(config.groups >= 2);
  DMASIM_EXPECTS(config.hot_access_share > 0.0 &&
                 config.hot_access_share <= 1.0);
}

std::vector<int> LayoutManager::HotGroupSizes(int hot_chips, int groups) {
  DMASIM_EXPECTS(hot_chips >= 1);
  DMASIM_EXPECTS(groups >= 2);
  std::vector<int> sizes;
  int remaining = hot_chips;
  const int hot_groups = groups - 1;  // Last group is the cold group.
  for (int g = 0; g < hot_groups && remaining > 0; ++g) {
    int size = 1 << g;  // 1, 2, 4, ... (the paper's exponential sizing).
    if (g == hot_groups - 1 || size > remaining) size = remaining;
    sizes.push_back(size);
    remaining -= size;
  }
  return sizes;
}

LayoutPlan LayoutManager::Plan(
    const std::vector<PageCountRun>& runs,
    const std::vector<std::int32_t>& page_to_chip) const {
  const std::uint64_t pages = page_to_chip.size();
  LayoutPlan plan;

  // Rank referenced pages by popularity (count desc, page asc for
  // determinism). The runs are disjoint, so sorting them by (count desc,
  // first page asc) and reading each run's pages in order is exactly
  // that ranking. `ranked_runs_` keeps its capacity across intervals.
  std::vector<PageCountRun>& ranked_runs = ranked_runs_;
  ranked_runs.assign(runs.begin(), runs.end());
  std::uint64_t total = 0;
  for (const PageCountRun& run : ranked_runs) {
    DMASIM_EXPECTS(run.count > 0 && run.pages > 0);
    DMASIM_EXPECTS(std::uint64_t{run.first} + run.pages <= pages);
    total += std::uint64_t{run.count} * run.pages;
  }
  if (total == 0) return plan;
  // The order as one 64-bit key, so each comparison is one integer
  // compare instead of two data-dependent branches.
  auto rank_key = [](const PageCountRun& run) {
    return (std::uint64_t{UINT32_MAX - run.count} << 32) | run.first;
  };
  std::sort(ranked_runs.begin(), ranked_runs.end(),
            [&rank_key](const PageCountRun& a, const PageCountRun& b) {
              return rank_key(a) < rank_key(b);
            });

  // Size the hot set: the smallest prefix of ranked pages covering the
  // target access share, rounded up to whole chips. Later steps read
  // pages by rank only within this prefix, so only it is spelled out.
  const double target = config_.hot_access_share * static_cast<double>(total);
  std::vector<std::uint32_t>& ranked = ranked_;
  ranked.clear();
  std::uint64_t covered = 0;  // target > 0, so the first page is taken.
  for (const PageCountRun& run : ranked_runs) {
    if (run.count < config_.min_hot_count) break;  // Noise floor.
    for (std::uint32_t i = 0;
         i < run.pages && static_cast<double>(covered) < target; ++i) {
      covered += run.count;
      ranked.push_back(run.first + i);
    }
    if (static_cast<double>(covered) >= target) break;
  }
  const std::uint64_t hot_pages = ranked.size();
  if (hot_pages == 0) return plan;
  int hot_chips = static_cast<int>(
      (hot_pages + static_cast<std::uint64_t>(pages_per_chip_) - 1) /
      static_cast<std::uint64_t>(pages_per_chip_));
  // The exponential group structure (1, 2, 4, ... chips) needs at least
  // 2^(K-2) + ... + 1 hot chips to give every hot group its own chips;
  // more groups therefore spread the hot pages over more chips. This is
  // the structural cost of finer popularity ordering that makes 2 groups
  // the paper's best setting.
  const int min_chips_for_groups = (1 << (config_.groups - 1)) - 1;
  hot_chips = std::clamp(std::max(hot_chips, min_chips_for_groups), 1,
                         chips_ - 1);
  plan.hot_chips = hot_chips;

  // Chip -> group map: hot groups first (chips 0..hot_chips-1), then cold.
  const std::vector<int> sizes = HotGroupSizes(hot_chips, config_.groups);
  plan.group_of_chip.assign(static_cast<std::size_t>(chips_),
                            static_cast<int>(sizes.size()));  // Cold id.
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

  // Only the prefix of pages that actually carries the p access share is
  // placed deliberately; the remaining hot-chip capacity keeps whatever
  // resides there (migrating unreferenced pages would cost energy for no
  // benefit).
  const std::uint64_t hot_capacity =
      static_cast<std::uint64_t>(hot_chips) *
      static_cast<std::uint64_t>(pages_per_chip_);
  const std::uint64_t hot_ranks = std::min(hot_capacity, hot_pages);

  // Partition the hot page ranks among the hot groups proportionally to
  // each group's chip count (hottest pages into the smallest group), so
  // the popularity ordering across groups matches the paper's scheme.
  std::vector<std::uint64_t> group_rank_end(sizes.size(), 0);
  {
    std::uint64_t assigned = 0;
    int chips_seen = 0;
    for (std::size_t g = 0; g < sizes.size(); ++g) {
      chips_seen += sizes[g];
      std::uint64_t end = hot_ranks * static_cast<std::uint64_t>(chips_seen) /
                          static_cast<std::uint64_t>(hot_chips);
      // Never exceed the group's own capacity.
      const std::uint64_t capacity_end =
          assigned + static_cast<std::uint64_t>(sizes[g]) *
                         static_cast<std::uint64_t>(pages_per_chip_);
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

  // Dense per-page scratch. Instead of refilling a whole-memory array
  // every interval, entries rest at a sentinel (`kNoTargetGroup` = cold
  // target, 0 = not moved) and only the entries a call touches are
  // written -- and restored before returning. The full fill happens once.
  DMASIM_CHECK_LT(sizes.size(), static_cast<std::size_t>(kNoTargetGroup));
  if (target_group_.size() != pages) {
    target_group_.assign(pages, kNoTargetGroup);
    moved_.assign(pages, 0);
  }
  std::vector<std::uint8_t>& target_group_of_page = target_group_;
  for (std::uint64_t rank = 0; rank < hot_ranks; ++rank) {
    target_group_of_page[ranked[rank]] =
        static_cast<std::uint8_t>(target_group_of_rank(rank));
  }

  // Eviction victims, found lazily: a hot chip's residents whose target
  // group is not the chip's own, highest page first, each examined at
  // most once per round. A cursor walks down only until the next victim.
  std::vector<std::uint8_t>& moved = moved_;
  victim_cursor_.assign(static_cast<std::size_t>(hot_chips), pages);
  auto next_victim = [&](int chip, std::uint32_t* victim) {
    std::uint64_t& cursor = victim_cursor_[static_cast<std::size_t>(chip)];
    const int group = plan.group_of_chip[static_cast<std::size_t>(chip)];
    while (cursor > 0) {
      const std::uint64_t page = --cursor;
      // A resting sentinel means "cold target", which never matches a
      // hot chip's group.
      if (page_to_chip[page] == chip &&
          target_group_of_page[page] != group && !moved[page]) {
        *victim = static_cast<std::uint32_t>(page);
        return true;
      }
    }
    return false;
  };

  // Greedy swap planning in rank order (hottest pages first), respecting
  // the per-interval migration cap.
  std::vector<int> next_chip_in_group(static_cast<std::size_t>(sizes.size()),
                                      0);
  auto group_first_chip = [&sizes](int group) {
    int first = 0;
    for (int g = 0; g < group; ++g) first += sizes[static_cast<std::size_t>(g)];
    return first;
  };

  for (std::uint64_t rank = 0; rank < hot_ranks; ++rank) {
    const std::uint32_t page = ranked[rank];
    if (moved[page]) continue;
    const int group = target_group_of_rank(rank);
    const int current_chip = page_to_chip[page];
    if (plan.group_of_chip[static_cast<std::size_t>(current_chip)] == group) {
      continue;  // Already in the right group: no migration needed.
    }
    if (static_cast<int>(plan.moves.size()) + 2 >
        config_.max_migrations_per_interval) {
      ++plan.deferred_moves;
      continue;
    }

    // Find a chip of the target group with an evictable resident.
    const int first = group_first_chip(group);
    const int span = sizes[static_cast<std::size_t>(group)];
    int destination = -1;
    std::uint32_t victim = 0;
    for (int probe = 0; probe < span; ++probe) {
      int& cursor = next_chip_in_group[static_cast<std::size_t>(group)];
      const int chip = first + (cursor % span);
      cursor = (cursor + 1) % span;
      if (next_victim(chip, &victim)) {
        destination = chip;
        break;
      }
    }
    if (destination < 0) continue;  // Group saturated with hot pages.

    // Swap `page` and `victim`.
    plan.moves.push_back(PageMove{page, current_chip, destination});
    plan.moves.push_back(PageMove{victim, destination, current_chip});
    // Each page migrates at most once per interval; a bounced victim that
    // itself deserves a hot slot is fixed in the next interval.
    moved[page] = 1;
    moved[victim] = 1;
  }

  // Restore the dense scratch to its resting state: every touched
  // `target_group_` entry is a ranked hot page, and every touched
  // `moved_` entry appears in `plan.moves`.
  for (std::uint64_t rank = 0; rank < hot_ranks; ++rank) {
    target_group_of_page[ranked[rank]] = kNoTargetGroup;
  }
  for (const PageMove& move : plan.moves) {
    moved[move.page] = 0;
  }

  return plan;
}

}  // namespace dmasim
