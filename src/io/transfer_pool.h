// Slab allocator for DMA transfer descriptors.
//
// The controller starts one transfer per client DMA — hundreds of
// thousands per simulated second. Allocating each descriptor on the heap
// (and tracking it in a hash map keyed by id) put an allocator
// round-trip and a hash probe on the per-transfer hot path. The pool
// hands out pointers from fixed 256-descriptor slabs through a free
// list: acquire and release are a pointer pop/push, and descriptors are
// stable in memory so callbacks can capture them directly.
#ifndef DMASIM_IO_TRANSFER_POOL_H_
#define DMASIM_IO_TRANSFER_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "io/dma_transfer.h"
#include "util/check.h"

namespace dmasim {

class TransferPool {
 public:
  TransferPool() = default;

  TransferPool(const TransferPool&) = delete;
  TransferPool& operator=(const TransferPool&) = delete;

  // Returns a reset descriptor (its `run_generation` is preserved across
  // reuse; see DmaTransfer::Reset). Pointers stay valid until Release.
  DmaTransfer* Acquire() {
    if (free_.empty()) Grow();
    DmaTransfer* transfer = free_.back();
    free_.pop_back();
    transfer->Reset();
    transfer->pool_active = true;
    ++active_;
    return transfer;
  }

  void Release(DmaTransfer* transfer) {
    DMASIM_EXPECTS(transfer != nullptr);
    DMASIM_EXPECTS(transfer->pool_active);
    DMASIM_EXPECTS(active_ > 0);
    transfer->pool_active = false;
    --active_;
    free_.push_back(transfer);
  }

  std::uint64_t ActiveCount() const { return active_; }

  // Visits every checked-out descriptor in slab order (deterministic:
  // slabs and slots are visited by allocation order, independent of the
  // free-list state). This is the access monitor's occupancy probe, run
  // once per armed sampling tick. The free list hands out a slot past
  // the peak in-flight count only when every earlier slot is in use, so
  // the walk stops at the last active descriptor after at most that many
  // slots (a few dozen at the paper's intensities). Non-const so the
  // probe can mark descriptors seen; `fn` must not acquire or release.
  template <typename Fn>
  void ForEachActive(Fn&& fn) {
    std::uint64_t left = active_;
    for (const std::unique_ptr<DmaTransfer[]>& block : blocks_) {
      for (std::size_t i = 0; i < kBlockSize && left > 0; ++i) {
        if (block[i].pool_active) {
          --left;
          fn(block[i]);
        }
      }
    }
  }

 private:
  static constexpr std::size_t kBlockSize = 256;

  void Grow() {
    // Slab growth is amortized; the per-transfer hot path only recycles
    // descriptors from free_.  dmasim-lint: allow(heap-alloc)
    blocks_.push_back(std::make_unique<DmaTransfer[]>(kBlockSize));
    DmaTransfer* block = blocks_.back().get();
    free_.reserve(free_.size() + kBlockSize);
    for (std::size_t i = kBlockSize; i > 0; --i) {
      free_.push_back(&block[i - 1]);
    }
  }

  std::vector<std::unique_ptr<DmaTransfer[]>> blocks_;
  std::vector<DmaTransfer*> free_;
  std::uint64_t active_ = 0;
};

}  // namespace dmasim

#endif  // DMASIM_IO_TRANSFER_POOL_H_
