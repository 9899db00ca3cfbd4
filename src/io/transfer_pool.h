// Slab allocator for DMA transfer descriptors.
//
// The controller starts one transfer per client DMA — hundreds of
// thousands per simulated second. Allocating each descriptor on the heap
// (and tracking it in a hash map keyed by id) put an allocator
// round-trip and a hash probe on the per-transfer hot path. The pool
// hands out pointers from fixed 256-descriptor slabs through a free
// list: acquire and release are a pointer pop/push, and descriptors are
// stable in memory so callbacks can capture them directly. `Grow` stamps
// each new descriptor with its slab position (`DmaTransfer::pool_index`),
// which is how the access monitor's probe orders what it visits.
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

 private:
  static constexpr std::size_t kBlockSize = 256;

  void Grow() {
    // Slab growth is amortized; the per-transfer hot path only recycles
    // descriptors from free_.  dmasim-lint: allow(heap-alloc)
    blocks_.push_back(std::make_unique<DmaTransfer[]>(kBlockSize));
    DmaTransfer* block = blocks_.back().get();
    const std::size_t first = (blocks_.size() - 1) * kBlockSize;
    DMASIM_CHECK_LE(first + kBlockSize, std::size_t{UINT32_MAX});
    for (std::size_t i = 0; i < kBlockSize; ++i) {
      block[i].pool_index = static_cast<std::uint32_t>(first + i);
    }
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
