// Main-memory buffer cache with an LRU index (Fig. 1: the processor
// checks the index table of the buffer cache before initiating DMAs).
//
// In the default experiment setup the workload's logical page space equals
// physical memory, so capacity misses do not occur naturally; the server
// layer can instead force the trace's published miss ratio (see
// ServerConfig::forced_miss_ratio). With forced misses the server neither
// reads nor fills this cache; it is used only when misses come from the
// LRU index (forced_miss_ratio < 0), e.g. for larger-than-memory data
// sets.
#ifndef DMASIM_SERVER_BUFFER_CACHE_H_
#define DMASIM_SERVER_BUFFER_CACHE_H_

#include <cstdint>
#include <list>
#include <unordered_map>

#include "util/check.h"

namespace dmasim {

class BufferCache {
 public:
  explicit BufferCache(std::uint64_t capacity_pages)
      : capacity_(capacity_pages) {
    DMASIM_EXPECTS(capacity_pages > 0);
  }

  // Returns true on a hit (and promotes the page to MRU).
  bool Lookup(std::uint64_t page) {
    auto it = index_.find(page);
    if (it == index_.end()) {
      ++misses_;
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits_;
    return true;
  }

  // Inserts `page` as MRU, evicting the LRU page if at capacity.
  // Returns the evicted page, or kNoEviction.
  static constexpr std::uint64_t kNoEviction = ~0ULL;
  std::uint64_t Insert(std::uint64_t page) {
    auto it = index_.find(page);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return kNoEviction;
    }
    std::uint64_t evicted = kNoEviction;
    if (lru_.size() >= capacity_) {
      evicted = lru_.back();
      index_.erase(evicted);
      lru_.pop_back();
    }
    lru_.push_front(page);
    index_[page] = lru_.begin();
    return evicted;
  }

  bool Contains(std::uint64_t page) const { return index_.count(page) > 0; }
  std::uint64_t Size() const { return lru_.size(); }
  std::uint64_t Capacity() const { return capacity_; }
  std::uint64_t Hits() const { return hits_; }
  std::uint64_t Misses() const { return misses_; }
  double HitRatio() const {
    const std::uint64_t total = hits_ + misses_;
    return total > 0 ? static_cast<double>(hits_) / static_cast<double>(total)
                     : 0.0;
  }

 private:
  std::uint64_t capacity_;
  std::list<std::uint64_t> lru_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace dmasim

#endif  // DMASIM_SERVER_BUFFER_CACHE_H_
