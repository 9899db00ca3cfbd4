// PL: popularity-based page layout (Section 4.2).
//
// At the end of every interval the layout manager ranks logical pages by
// DMA reference count, sizes the hot chip set N_hot so the pages placed
// there cover a fraction p of the interval's accesses, partitions the hot
// chips into exponentially sized groups (1, 2, 4, ... chips, the paper's
// logarithmic ordering), and plans page *swaps* that bring every
// misplaced page into a chip of its target group. Only group membership
// matters -- pages within a group are interchangeable -- which is exactly
// why fewer groups need fewer migrations.
//
// A round costs what it touches: the planner ranks only the referenced
// pages it is handed (as runs of pages sharing a count) and looks for
// eviction victims on the hot chips only until it has the ones it needs.
#ifndef DMASIM_CORE_LAYOUT_MANAGER_H_
#define DMASIM_CORE_LAYOUT_MANAGER_H_

#include <cstdint>
#include <vector>

#include "core/dma_aware_config.h"
#include "util/check.h"

namespace dmasim {

struct PageMove {
  std::uint64_t page = 0;
  int from_chip = 0;
  int to_chip = 0;
};

// Consecutive logical pages [first, first + pages) sharing one nonzero
// reference count: the planner's input unit. The oracle tracker hands in
// one single-page run per referenced page, the access monitor one run per
// region with a nonzero per-page value. Pages in no run are unreferenced.
struct PageCountRun {
  std::uint32_t first = 0;
  std::uint32_t pages = 0;
  std::uint32_t count = 0;
};

struct LayoutPlan {
  // Swap-paired moves (occupancy preserving: moves come in pairs
  // exchanging two pages between two chips).
  std::vector<PageMove> moves;
  int hot_chips = 0;
  // Group index per chip: 0 is the hottest group, `group_count - 1` the
  // cold group.
  std::vector<int> group_of_chip;
  int group_count = 0;
  // Moves skipped because of the per-interval migration cap.
  int deferred_moves = 0;
};

class LayoutManager {
 public:
  LayoutManager(const PopularityLayoutConfig& config, int chips,
                int pages_per_chip);

  // Plans migrations given the referenced pages' counts as disjoint runs
  // (in any order) and the current logical-page -> chip mapping. Pages
  // are ranked by (count desc, page asc), a total order, so the plan does
  // not depend on the order of `runs`. Reuses internal scratch buffers
  // across calls (PL planning runs every interval on the simulation hot
  // path), so concurrent calls on one instance are not allowed; each
  // controller owns its manager, so this never arises.
  LayoutPlan Plan(const std::vector<PageCountRun>& runs,
                  const std::vector<std::int32_t>& page_to_chip) const;

  const PopularityLayoutConfig& config() const { return config_; }
  int chips() const { return chips_; }
  int pages_per_chip() const { return pages_per_chip_; }

  // Hot-group chip counts (1, 2, 4, ..., clipped to `hot_chips` total).
  static std::vector<int> HotGroupSizes(int hot_chips, int groups);

 private:
  PopularityLayoutConfig config_;
  int chips_;
  int pages_per_chip_;

  // Scratch reused across Plan calls; every buffer is restored to its
  // resting value before Plan returns by resetting only the entries it
  // touched, so a call never observes the previous interval's state.
  static constexpr std::uint8_t kNoTargetGroup = 0xFF;
  mutable std::vector<PageCountRun> ranked_runs_;
  mutable std::vector<std::uint32_t> ranked_;  // The hot prefix, by rank.
  mutable std::vector<std::uint8_t> target_group_;  // kNoTargetGroup = cold.
  mutable std::vector<std::uint8_t> moved_;
  // Per hot chip: every page at or above it has been examined as an
  // eviction victim this round (victims are taken highest page first).
  mutable std::vector<std::uint64_t> victim_cursor_;
};

}  // namespace dmasim

#endif  // DMASIM_CORE_LAYOUT_MANAGER_H_
