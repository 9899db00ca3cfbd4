// Configuration for the online access monitor (src/mon) and its
// declarative scheme engine.
//
// The monitor estimates page popularity at run time in the spirit of
// DAMON: the page space is covered by a bounded number of contiguous
// regions, each carrying a sampled access counter, and periodic
// aggregation intervals split/merge regions so precision follows the
// observed access mass while overhead stays bounded by the region
// budget. Schemes are DAMOS-style rules binding a region predicate
// (size/access-frequency/age ranges) to an action on the existing
// layout/power machinery.
#ifndef DMASIM_MON_MONITOR_CONFIG_H_
#define DMASIM_MON_MONITOR_CONFIG_H_

#include <cstdint>
#include <vector>

#include "util/time.h"

namespace dmasim {

// What a matched scheme rule does.
enum class SchemeAction : int {
  // Boost the matched regions' pages so the next layout interval places
  // them in the hot chip groups.
  kMigrateHot = 0,
  // Zero the matched regions' pages so they are never hot-targeted
  // (placement noise suppression for known-cold ranges).
  kPinCold,
  // Chip-level reinterpretation (each chip's page set is the "region"):
  // step idle chips whose sampled traffic matches the predicate down to
  // their policy's next low-power state without waiting for the idle
  // threshold.
  kDemoteChip,
};

inline constexpr int kSchemeActionCount = 3;

// One declarative rule: apply `action` to regions with size (pages) in
// [size_lo, size_hi], per-page sampled access count in [acc_lo, acc_hi],
// and age (aggregation intervals) >= age_lo. Region rules match on the
// region's per-page density (its full counter for single-page regions),
// so "cold" means cold per page regardless of region width; demote-chip
// rules match on a chip's total sampled window hits. Parsed from the
// line-oriented scheme format by mon/scheme_parser.h.
struct SchemeRule {
  std::uint64_t size_lo = 0;
  std::uint64_t size_hi = UINT64_MAX;
  std::uint64_t acc_lo = 0;
  std::uint64_t acc_hi = UINT64_MAX;
  std::uint64_t age_lo = 0;
  SchemeAction action = SchemeAction::kMigrateHot;
  // kDemoteChip only: how many policy steps below the chip's current
  // state the demotion targets (1 = the policy's next state; larger
  // values follow the policy chain deeper — e.g. Active -> Nap in one
  // transition — clamped at the chain's end). Written `demote-chip:N`
  // in the scheme file.
  int demote_depth = 1;

  bool MatchesRegion(std::uint64_t size, std::uint64_t hits,
                     std::uint64_t age) const {
    return size >= size_lo && size <= size_hi && hits >= acc_lo &&
           hits <= acc_hi && age >= age_lo;
  }
};

struct MonitorConfig {
  bool enabled = false;

  // Cadence of occupancy probes: sampling ticks are the multiples of this
  // interval. At a tick the monitor walks the in-flight DMA transfer
  // descriptors and attributes one hit to the region containing each
  // transfer not seen by an earlier probe (edge-triggered presence
  // sampling). A transfer counts once no matter how long it stays
  // queued, so counters estimate access frequency, not bus congestion;
  // transfers shorter than the sampling interval can be missed — that is
  // the sampling error traded for overhead. A probe event runs only at
  // the first tick after a transfer starts unseen; the other ticks find
  // nothing new and are charged without running (RegionMonitor::
  // ChargeProbesThrough).
  Tick sampling_interval = 1 * kMicrosecond;

  // Cadence of aggregation: region aging, cold-region merging, and
  // chip-rule application. The window doubles as the monitor's
  // discrimination time: a freshly split single-page region survives the
  // next merge pass only if it collects enough hits within one window,
  // so the window must be long enough for a warm page (a few hits per
  // 10 ms at the paper's intensities) to distinguish itself from a
  // one-off sample — but short enough that the standing population of
  // not-yet-merged one-off regions stays inside the region budget.
  Tick aggregation_interval = 2 * kMillisecond;

  // Region budget. Splits stop at max_regions; merges never go below
  // min_regions. Bounds both memory and per-aggregation work regardless
  // of working-set size (asserted by the level-2 audit invariant).
  int min_regions = 32;
  int max_regions = 1024;

  // Adjacent regions whose per-page densities (hits / size, floored) are
  // both <= this merge back into one at aggregation time. Density — not
  // the absolute counter — is what "cold" means here: a wide region
  // accumulates scattered one-off samples in proportion to its width,
  // and an absolute threshold would freeze the region map solid long
  // before the budget is reached.
  std::uint64_t merge_max_hits = 1;

  // Region counters age by a right shift every this many aggregation
  // intervals (0 disables), so stale hotness decays and merge can
  // reclaim regions that went cold. The default matches the oracle
  // tracker's decay horizon (~160 ms) so monitored counts and oracle
  // counts live on the same scale.
  int age_shift_period = 80;

  // Count boost applied by kMigrateHot when materializing per-page
  // counts for the layout planner.
  std::uint32_t hot_boost = 16;

  // Simulated monitoring cost, charged to the monitor's busy-tick
  // account (it does not perturb the simulated hardware): fixed cost per
  // probe (covering the descriptor walk — the in-flight population is a
  // few dozen at most), per newly attributed transfer (binary search +
  // split), and per region touched by an aggregation or materialization
  // pass. The defaults keep the overhead fraction below 1% at the
  // default cadences.
  Tick probe_cost = 6 * kNanosecond;
  Tick observe_cost = 4 * kNanosecond;
  Tick region_cost = 1 * kNanosecond;

  // Declarative schemes, applied in order (first match wins per region).
  std::vector<SchemeRule> rules;
};

}  // namespace dmasim

#endif  // DMASIM_MON_MONITOR_CONFIG_H_
