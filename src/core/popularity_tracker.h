// DMA reference-count tracking for popularity-based layout
// (Section 4.2.1, "a few bits to keep track of the DMA reference counts").
//
// Counts are kept per *logical* page so that migrations do not disturb a
// page's history. Aging (periodic right shift) adapts to workload change.
// Beside the dense counters the tracker keeps an index of the referenced
// pages (count > 0), so the layout planner and aging cost what was
// referenced rather than the whole page space.
#ifndef DMASIM_CORE_POPULARITY_TRACKER_H_
#define DMASIM_CORE_POPULARITY_TRACKER_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace dmasim {

class PopularityTracker {
 public:
  // Pin for the running total: far enough below 2^64 that a bulk record
  // can never wrap it, unreachable by any real workload. Without the pin
  // a saturated total would wrap to a tiny value and silently invert
  // every popularity share derived from it.
  static constexpr std::uint64_t kTotalPin = std::uint64_t{1} << 60;

  explicit PopularityTracker(std::uint64_t pages, std::uint32_t max_count = 0xFFFF)
      : counts_(pages, 0), max_count_(max_count) {
    DMASIM_EXPECTS(pages > 0);
    // The referenced-page index stores 32-bit page numbers.
    DMASIM_EXPECTS(pages <= UINT32_MAX);
    DMASIM_EXPECTS(max_count > 0);
  }

  // Records one DMA transfer touching `page` (saturating).
  void Record(std::uint64_t page) {
    DMASIM_EXPECTS(page < counts_.size());
    std::uint32_t& count = counts_[page];
    if (count < max_count_) {
      if (count == 0) nonzero_.push_back(static_cast<std::uint32_t>(page));
      ++count;
    }
    if (total_ < kTotalPin) ++total_;
  }

  // Records `weight` transfers at once (same saturation behaviour as
  // `weight` single records; lets boundary tests reach the pins without
  // 2^60 iterations).
  void Record(std::uint64_t page, std::uint64_t weight) {
    DMASIM_EXPECTS(page < counts_.size());
    std::uint32_t& count = counts_[page];
    if (count == 0 && weight > 0) {
      nonzero_.push_back(static_cast<std::uint32_t>(page));
    }
    const std::uint64_t headroom = max_count_ - count;
    count += static_cast<std::uint32_t>(weight < headroom ? weight : headroom);
    const std::uint64_t total_headroom = kTotalPin - total_;
    total_ += weight < total_headroom ? weight : total_headroom;
  }

  // Right-shifts every counter by one bit (the paper's aging scheme).
  // Unreferenced counters are already zero, so only the index is walked;
  // pages whose count reaches zero leave it, the rest keep their order.
  void Age() {
    std::size_t kept = 0;
    for (const std::uint32_t page : nonzero_) {
      std::uint32_t& count = counts_[page];
      count >>= 1;
      if (count > 0) nonzero_[kept++] = page;
    }
    nonzero_.resize(kept);
    total_ >>= 1;
  }

  std::uint32_t Count(std::uint64_t page) const {
    DMASIM_EXPECTS(page < counts_.size());
    return counts_[page];
  }

  const std::vector<std::uint32_t>& counts() const { return counts_; }
  // Every page with a nonzero count, each exactly once, in no particular
  // order (first reference, thinned by aging).
  const std::vector<std::uint32_t>& nonzero_pages() const { return nonzero_; }
  std::uint64_t pages() const { return counts_.size(); }
  // Approximate total of all counters (aged alongside them).
  std::uint64_t total() const { return total_; }

 private:
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> nonzero_;
  std::uint32_t max_count_;
  std::uint64_t total_ = 0;
};

}  // namespace dmasim

#endif  // DMASIM_CORE_POPULARITY_TRACKER_H_
