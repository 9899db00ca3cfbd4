#include "mon/region_monitor.h"

#include <algorithm>
#include <cmath>

namespace dmasim {

namespace {

// Materialized per-page counts saturate where the oracle tracker's
// counters do, so the layout planner sees the same dynamic range from
// either popularity source.
constexpr std::uint32_t kMaxMaterializedCount = 0xFFFF;

std::uint64_t PinnedAdd(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t sum = a + b;
  return sum > RegionMonitor::kMaxHits ? RegionMonitor::kMaxHits : sum;
}

}  // namespace

RegionMonitor::RegionMonitor(const MonitorConfig& config, std::uint64_t pages,
                             int chips)
    : config_(config), pages_(pages) {
  DMASIM_EXPECTS(pages > 0);
  DMASIM_EXPECTS(pages <= UINT32_MAX);  // Runs use 32-bit page numbers.
  DMASIM_EXPECTS(chips > 0);
  DMASIM_EXPECTS(config.min_regions >= 1);
  DMASIM_EXPECTS(config.max_regions >= config.min_regions);
  DMASIM_EXPECTS(pages >= static_cast<std::uint64_t>(config.min_regions));
  DMASIM_EXPECTS(config.sampling_interval > 0);
  DMASIM_EXPECTS(config.aggregation_interval > 0);

  // Initial coverage: min_regions equal slices tiling the page space.
  // Reserving the budget up front keeps split/merge allocation-free for
  // the rest of the run.
  regions_.reserve(static_cast<std::size_t>(config.max_regions) + 2);
  const std::uint64_t count = static_cast<std::uint64_t>(config.min_regions);
  const std::uint64_t base = pages / count;
  const std::uint64_t remainder = pages % count;
  std::uint64_t start = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    MonitorRegion region;
    region.start = start;
    region.end = start + base + (i < remainder ? 1 : 0);
    regions_.push_back(region);
    start = region.end;
  }
  DMASIM_CHECK_EQ(start, pages);

  chip_window_hits_.assign(static_cast<std::size_t>(chips), 0);
  chip_idle_streak_.assign(static_cast<std::size_t>(chips), 0);
  chips_to_demote_.reserve(static_cast<std::size_t>(chips));
  runs_.reserve(regions_.capacity());
  hotness_regions_.reserve(regions_.capacity());

  if (config.merge_max_hits < kMaxHits) {
    cold_hits_per_page_ = config.merge_max_hits + 1;
    cold_exact_size_ = kMaxHits / cold_hits_per_page_;
  }  // Otherwise no region can hold more than merge_max_hits per page.
}

std::size_t RegionMonitor::RegionIndexOf(std::uint64_t page) const {
  DMASIM_EXPECTS(page < pages_);
  // Last region whose start is <= page; regions tile the space from page
  // 0, so the containing region always exists. Branch-free halving: the
  // answer stays within [base, base + n), and the select compiles to a
  // conditional move instead of a mispredicted branch per step.
  const MonitorRegion* base = regions_.data();
  std::size_t n = regions_.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half].start <= page ? base + half : base;
    n -= half;
  }
  return static_cast<std::size_t>(base - regions_.data());
}

std::uint64_t RegionMonitor::ChargeProbesThrough(Tick now) {
  DMASIM_EXPECTS(now >= 0);
  const auto due = static_cast<std::uint64_t>(now / config_.sampling_interval);
  DMASIM_CHECK_GE(due, stats_.probes);
  const std::uint64_t charged = due - stats_.probes;
  stats_.probes = due;
  stats_.busy_ticks += static_cast<Tick>(charged) * config_.probe_cost;
  return charged;
}

void RegionMonitor::ObserveTransfer(std::uint64_t page, int chip) {
  DMASIM_EXPECTS(chip >= 0 &&
                 chip < static_cast<int>(chip_window_hits_.size()));
  ++stats_.observations;
  stats_.busy_ticks += config_.observe_cost;

  std::size_t index = RegionIndexOf(page);
  if (regions_[index].size() > 1) index = SplitAtSample(index, page);
  regions_[index].hits = PinnedAdd(regions_[index].hits, 1);
  ++chip_window_hits_[static_cast<std::size_t>(chip)];
}

std::size_t RegionMonitor::SplitAtSample(std::size_t index,
                                         std::uint64_t page) {
  const MonitorRegion parent = regions_[index];
  DMASIM_EXPECTS(page >= parent.start && page < parent.end);
  const int new_regions = (page > parent.start ? 1 : 0) +
                          (page + 1 < parent.end ? 1 : 0);
  if (new_regions == 0) return index;
  if (static_cast<int>(regions_.size()) + new_regions > config_.max_regions) {
    return index;  // Budget exhausted: keep sampling at current granularity.
  }
  ++stats_.splits;

  // Redistribute the parent's (scattered) hits by size, rounding the
  // sampled page's share down and crediting the leftover to the widest
  // remainder piece, so the total is conserved and a single sample can
  // never fabricate a hot page out of accumulated region noise.
  const std::uint64_t size = parent.size();
  const std::uint64_t per_page = parent.hits / size;

  MonitorRegion left{parent.start, page, 0, 0};
  MonitorRegion mid{page, page + 1, per_page, 0};
  MonitorRegion right{page + 1, parent.end, 0, 0};
  left.hits = per_page * left.size();
  right.hits = per_page * right.size();
  const std::uint64_t distributed = left.hits + mid.hits + right.hits;
  const std::uint64_t leftover = parent.hits - distributed;
  if (left.size() >= right.size() && left.size() > 0) {
    left.hits += leftover;
  } else if (right.size() > 0) {
    right.hits += leftover;
  } else {
    mid.hits += leftover;
  }

  // The parent's slot takes the first piece and the others go in right
  // after it, so the tail of the list shifts once.
  MonitorRegion pieces[3];
  std::size_t count = 0;
  if (left.size() > 0) pieces[count++] = left;
  const std::size_t mid_index = index + count;
  pieces[count++] = mid;
  if (right.size() > 0) pieces[count++] = right;
  regions_[index] = pieces[0];
  regions_.insert(regions_.begin() + static_cast<std::ptrdiff_t>(index + 1),
                  pieces + 1, pieces + count);
  return mid_index;
}

const std::vector<ChipDemotion>& RegionMonitor::Aggregate() {
  ++stats_.aggregations;
  stats_.busy_ticks +=
      config_.region_cost * static_cast<Tick>(regions_.size());

  const bool shift =
      config_.age_shift_period > 0 &&
      stats_.aggregations %
              static_cast<std::uint64_t>(config_.age_shift_period) ==
          0;
  AgeAndMergeColdNeighbours(shift);
  ApplyChipRules();
  return chips_to_demote_;
}

void RegionMonitor::AgeAndMergeColdNeighbours(bool shift) {
  const auto age = [shift](MonitorRegion& region) {
    if (region.age < UINT32_MAX) ++region.age;
    if (shift) region.hits >>= 1;
  };
  // Single compaction pass: age each region, then absorb it into its
  // left neighbour while both are cold per page and the floor allows.
  // Density (floored) is the cold test — wide regions accumulate
  // scattered samples in proportion to their width, so an
  // absolute-counter test would stop merging anything long before the
  // budget fills. Each region's coldness is tested once: a merge of two
  // cold regions is cold (h_a < c*s_a and h_b < c*s_b give h_a + h_b <
  // c*(s_a + s_b), PinnedAdd only lowers the sum, and a region too wide
  // for the exact test is cold outright), so the left flag carries over.
  const std::size_t min_regions =
      static_cast<std::size_t>(config_.min_regions);
  std::size_t count = regions_.size();
  std::size_t write = 0;
  age(regions_[0]);
  bool left_cold = ColdPerPage(regions_[0]);
  for (std::size_t read = 1; read < regions_.size(); ++read) {
    MonitorRegion& left = regions_[write];
    MonitorRegion right = regions_[read];
    age(right);
    const bool right_cold = ColdPerPage(right);
    if (left_cold && right_cold && count > min_regions) {
      left.end = right.end;
      left.hits = PinnedAdd(left.hits, right.hits);
      left.age = std::min(left.age, right.age);
      --count;
      ++stats_.merges;
    } else {
      ++write;
      regions_[write] = right;
      left_cold = right_cold;
    }
  }
  regions_.resize(write + 1);
  DMASIM_CHECK_EQ(regions_.size(), count);
}

void RegionMonitor::ApplyChipRules() {
  chips_to_demote_.clear();
  const std::uint64_t chip_pages =
      pages_ / static_cast<std::uint64_t>(chip_window_hits_.size());
  for (std::size_t chip = 0; chip < chip_window_hits_.size(); ++chip) {
    if (chip_window_hits_[chip] == 0) {
      if (chip_idle_streak_[chip] < UINT32_MAX) ++chip_idle_streak_[chip];
    } else {
      chip_idle_streak_[chip] = 0;
    }
    for (const SchemeRule& rule : config_.rules) {
      if (rule.action != SchemeAction::kDemoteChip) continue;
      if (rule.MatchesRegion(chip_pages, chip_window_hits_[chip],
                             chip_idle_streak_[chip])) {
        chips_to_demote_.push_back(
            {static_cast<int>(chip), rule.demote_depth});
        ++stats_.demotions_requested;
        break;  // First matching rule wins, as for regions.
      }
    }
    chip_window_hits_[chip] = 0;
  }
}

const std::vector<PageCountRun>& RegionMonitor::MaterializeRuns() {
  stats_.busy_ticks +=
      config_.region_cost * static_cast<Tick>(regions_.size());
  runs_.clear();
  for (const MonitorRegion& region : regions_) {
    // Single-page regions carry their full counter; wider regions spread
    // theirs as density (floor — sub-sample noise stays cold).
    std::uint64_t value =
        region.size() == 1 ? region.hits : region.hits / region.size();

    // Region-level schemes, first match wins (demote-chip rules operate
    // on chips in Aggregate and are skipped here). Access bounds match
    // the per-page value just computed, so a rule's notion of hot/cold
    // is independent of region width.
    for (const SchemeRule& rule : config_.rules) {
      if (rule.action == SchemeAction::kDemoteChip) continue;
      if (!rule.MatchesRegion(region.size(), value, region.age)) {
        continue;
      }
      ++stats_.scheme_region_matches;
      if (rule.action == SchemeAction::kMigrateHot) {
        value += config_.hot_boost;
      } else {  // kPinCold
        value = 0;
      }
      break;
    }

    if (value == 0) continue;
    const std::uint32_t count =
        value > kMaxMaterializedCount
            ? kMaxMaterializedCount
            : static_cast<std::uint32_t>(value);
    runs_.push_back({static_cast<std::uint32_t>(region.start),
                     static_cast<std::uint32_t>(region.size()), count});
  }
  return runs_;
}

void RegionMonitor::RecordHotnessError(
    const std::vector<std::uint32_t>& counts,
    const std::vector<std::uint32_t>& pages) {
  DMASIM_EXPECTS(counts.size() == pages_);
  hotness_regions_.assign(regions_.begin(), regions_.end());
  hotness_oracle_.clear();
  for (const std::uint32_t page : pages) {
    DMASIM_EXPECTS(page < pages_ && counts[page] > 0);
    hotness_oracle_.push_back({page, counts[page]});
  }
}

double RegionMonitor::latest_hotness_error() const {
  if (hotness_regions_.empty()) return -1.0;  // Never recorded.
  const std::vector<MonitorRegion>& regions = hotness_regions_;
  // The oracle in page order; pages absent from it count zero.
  std::vector<OracleCount> oracle = hotness_oracle_;
  std::sort(oracle.begin(), oracle.end(),
            [](const OracleCount& a, const OracleCount& b) {
              return a.page < b.page;
            });

  double monitored_total = 0.0;
  for (const MonitorRegion& region : regions) {
    monitored_total += static_cast<double>(region.hits);
  }
  double oracle_total = 0.0;
  for (const OracleCount& entry : oracle) {
    oracle_total += static_cast<double>(entry.count);
  }
  if (monitored_total <= 0.0 && oracle_total <= 0.0) return 0.0;
  if (monitored_total <= 0.0 || oracle_total <= 0.0) return 1.0;

  // Total-variation distance between the two access-mass distributions
  // over pages, with the monitored mass spread uniformly within each
  // region (that density is all the layout planner ever sees).
  double distance = 0.0;
  auto next = oracle.begin();
  for (const MonitorRegion& region : regions) {
    const double density = static_cast<double>(region.hits) /
                           (static_cast<double>(region.size()) *
                            monitored_total);
    for (std::uint64_t page = region.start; page < region.end; ++page) {
      std::uint32_t count = 0;
      if (next != oracle.end() && next->page == page) count = (next++)->count;
      const double truth = static_cast<double>(count) / oracle_total;
      distance += std::fabs(density - truth);
    }
  }
  return 0.5 * distance;
}

}  // namespace dmasim
