// Adaptive region-based access monitor (DAMON spirit, adapted to DMA).
//
// Why not accessed-bit sampling: dmasim's workloads drive tens of DMA
// transfers per millisecond across ~10^5 pages, so any per-page presence
// check observes almost nothing. Instead the monitor runs *occupancy
// probes*: at a sampling tick the controller visits the in-flight DMA
// transfers no probe has seen yet (those started since the previous
// probe; queueing keeps transfers checked out far longer than their
// service time) and attributes one hit to the region containing each
// transfer's page.
// Observation is edge-triggered — a transfer counts once, at the first
// probe that finds it in flight — so counters estimate access frequency
// rather than queue residency; transfers shorter than the sampling
// interval can be missed, which is the sampling error traded for
// overhead.
//
// Probes are event-driven: the controller arms one only when a transfer
// starts and none is pending, so only ticks that can see an unseen
// transfer execute. Every tick still costs its probe: ChargeProbesThrough
// bills all ticks up to a time in closed form.
//
// Why sample-guided splits: the workload generator scatters popular
// pages over the page space by a multiplicative hash permutation
// (trace/zipf.h), so contiguous regions are statistically homogeneous
// and DAMON's random-offset splits can never isolate a hot page. The
// monitor instead splits at the sampled page itself — a region observed
// at page p splits into [start,p) [p,p+1) [p+1,end) — so repeatedly
// observed pages are carved into single-page regions while the merge
// pass reclaims one-off samples. Split and merge respect the
// [min_regions, max_regions] budget at all times.
//
// All simulated cost is charged to a busy-tick account (the monitor
// never perturbs the simulated hardware); OverheadFraction() is the
// DAMON-eval-style overhead metric.
#ifndef DMASIM_MON_REGION_MONITOR_H_
#define DMASIM_MON_REGION_MONITOR_H_

#include <cstdint>
#include <vector>

#include "core/layout_manager.h"
#include "mon/monitor_config.h"
#include "util/check.h"
#include "util/time.h"

namespace dmasim {

// One contiguous region of logical page space, [start, end).
struct MonitorRegion {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  // Sampled access counter (aged by right shift; pinned far below the
  // 64-bit edge so aging and boosts can never wrap).
  std::uint64_t hits = 0;
  // Aggregation intervals since the region was created by a split (or
  // since monitoring started).
  std::uint32_t age = 0;

  std::uint64_t size() const { return end - start; }
};

// One chip demotion requested by the demote-chip schemes: which chip,
// and how many policy steps below its current state to target (the
// matched rule's `demote_depth`).
struct ChipDemotion {
  int chip = 0;
  int depth = 1;
};

struct MonitorStats {
  std::uint64_t probes = 0;
  std::uint64_t observations = 0;  // Transfers attributed (once each).
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
  std::uint64_t aggregations = 0;
  std::uint64_t scheme_region_matches = 0;
  std::uint64_t demotions_requested = 0;
  std::uint64_t demotions_applied = 0;
  Tick busy_ticks = 0;  // Simulated monitoring cost.
};

class RegionMonitor {
 public:
  // Counter pin: far enough below 2^64 that adding a hit or a boost can
  // never wrap, large enough to be unreachable by real sampling (same
  // spirit as the SlackAccount tick pins).
  static constexpr std::uint64_t kMaxHits = std::uint64_t{1} << 60;

  RegionMonitor(const MonitorConfig& config, std::uint64_t pages, int chips);

  RegionMonitor(const RegionMonitor&) = delete;
  RegionMonitor& operator=(const RegionMonitor&) = delete;

  // --- Sampling (called from the controller's probe event) ---------------

  // Charges the fixed probe cost for every sampling tick (the multiples
  // of sampling_interval) up to and including `now` not charged yet, so
  // that afterwards probes = floor(now / sampling_interval). Returns the
  // number of ticks newly charged.
  std::uint64_t ChargeProbesThrough(Tick now);
  // Attributes one newly seen in-flight transfer at `page` on `chip` to
  // its region, splitting the region at the sample when the budget
  // allows. The caller is responsible for the once-per-transfer
  // discipline (DmaTransfer::monitor_seen).
  void ObserveTransfer(std::uint64_t page, int chip);

  // --- Aggregation (called from the controller's aggregation event) ------

  // Ages regions and merges cold neighbours back under the budget in one
  // pass, then applies the chip-level (demote-chip) rules. Returns the
  // demotions (chip + depth) the schemes want; the caller owns the
  // actual power transition and reports back via NoteDemotionApplied().
  const std::vector<ChipDemotion>& Aggregate();
  void NoteDemotionApplied() { ++stats_.demotions_applied; }

  // --- Layout feed (called at popularity-layout intervals) ---------------

  // Materializes the regions' per-page counts — single-page regions
  // carry their full counter, wider regions their density — then applies
  // the region-level rules (migrate-hot boosts, pin-cold zeroes). Returns
  // one run per region whose per-page count is nonzero, in page order;
  // every other page counts zero. The buffer is owned by the monitor and
  // reused across calls.
  const std::vector<PageCountRun>& MaterializeRuns();

  // Snapshots the regions and the oracle's referenced pages (`pages`, each
  // with a nonzero `counts` entry; every other page counts zero) as the
  // latest hotness-error sample. The distance itself is evaluated only
  // when latest_hotness_error() reads it.
  void RecordHotnessError(const std::vector<std::uint32_t>& counts,
                          const std::vector<std::uint32_t>& pages);

  // --- Results ------------------------------------------------------------

  // Share of simulated time spent monitoring so far (<= 1% at defaults).
  double OverheadFraction(Tick now) const {
    return now > 0 ? static_cast<double>(stats_.busy_ticks) /
                         static_cast<double>(now)
                   : 0.0;
  }
  // Total-variation distance between the monitored access-mass
  // distribution (region density) and the oracle counts of the latest
  // RecordHotnessError snapshot: 0 = identical mass placement, 1 =
  // disjoint, -1 = never recorded. Evaluated from the snapshot on every
  // call, so read it once.
  double latest_hotness_error() const;

  const std::vector<MonitorRegion>& regions() const { return regions_; }
  const MonitorStats& stats() const { return stats_; }
  const MonitorConfig& config() const { return config_; }
  std::uint64_t pages() const { return pages_; }
  int chips() const { return static_cast<int>(chip_window_hits_.size()); }

 private:
  // Index of the region containing `page` (binary search; regions tile
  // the page space, so this always exists).
  std::size_t RegionIndexOf(std::uint64_t page) const;
  // Splits region `index` around `page` when the budget allows and
  // returns the index of the region now holding `page`.
  std::size_t SplitAtSample(std::size_t index, std::uint64_t page);
  // floor(hits / size) <= merge_max_hits, without a division.
  bool ColdPerPage(const MonitorRegion& region) const {
    return region.size() > cold_exact_size_ ||
           region.hits < cold_hits_per_page_ * region.size();
  }
  // The aggregation pass: ages every region (halving its hits when
  // `shift`) and merges cold neighbours back under the budget.
  void AgeAndMergeColdNeighbours(bool shift);
  void ApplyChipRules();

  MonitorConfig config_;
  std::uint64_t pages_;

  // Regions, sorted by start, tiling [0, pages_) exactly — the invariant
  // the level-2 audit asserts alongside the budget bounds.
  std::vector<MonitorRegion> regions_;

  // Per-chip sampled hits within the current aggregation window, and the
  // number of consecutive windows each chip went unobserved (the "age"
  // the demote-chip predicate tests).
  std::vector<std::uint64_t> chip_window_hits_;
  std::vector<std::uint32_t> chip_idle_streak_;
  std::vector<ChipDemotion> chips_to_demote_;

  // ColdPerPage's bound: a region is cold iff hits < size *
  // cold_hits_per_page_ (merge_max_hits + 1). Every region wider than
  // cold_exact_size_ is cold outright, since its product would exceed
  // kMaxHits, the most hits a region can hold; the product computed for
  // narrower regions stays within kMaxHits, so it never overflows.
  std::uint64_t cold_hits_per_page_ = 0;
  std::uint64_t cold_exact_size_ = 0;

  std::vector<PageCountRun> runs_;

  // The latest hotness-error snapshot: the regions and the oracle's
  // referenced pages with their counts, as RecordHotnessError saw them.
  // Regions tile the page space, so only an unrecorded snapshot is empty.
  struct OracleCount {
    std::uint32_t page = 0;
    std::uint32_t count = 0;
  };
  std::vector<MonitorRegion> hotness_regions_;
  std::vector<OracleCount> hotness_oracle_;

  MonitorStats stats_;
};

}  // namespace dmasim

#endif  // DMASIM_MON_REGION_MONITOR_H_
