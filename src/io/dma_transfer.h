// DMA transfer descriptor.
//
// A DMA transfer moves `total_bytes` between a device on one I/O bus and
// one memory chip, as a sequence of DMA-memory requests of
// `chunk_bytes` each (8 bytes on a 64-bit PCI-X bus; larger chunks can be
// configured to coarsen event granularity without changing energy
// fractions). The transfer is created by the memory controller, paced by
// its `IoBus`, and completed when the last chunk has been served by the
// chip. Descriptors are recycled through a `TransferPool`.
#ifndef DMASIM_IO_DMA_TRANSFER_H_
#define DMASIM_IO_DMA_TRANSFER_H_

#include <cstdint>

#include "sim/inline_function.h"
#include "util/time.h"

namespace dmasim {

// Origin of a transfer, for statistics and trace bookkeeping.
enum class DmaKind : int { kNetwork = 0, kDisk };

struct DmaTransfer {
  std::uint64_t id = 0;
  int bus_id = 0;
  int chip_index = 0;
  std::uint64_t physical_page = 0;
  DmaKind kind = DmaKind::kNetwork;

  std::int64_t total_bytes = 0;
  std::int64_t chunk_bytes = 8;
  std::int64_t issued_bytes = 0;
  std::int64_t completed_bytes = 0;

  // True while the first DMA-memory request is buffered by DMA-TA and the
  // DMA engine is therefore not issuing further requests.
  bool blocked = false;

  Tick start_time = 0;
  Tick gated_at = -1;  // Time the first request was gated, or -1.

  // Whether DMA-TA ever gated this transfer (`gated_at` is reset on
  // release, but the lifecycle trace event needs the history).
  bool obs_was_gated = false;

  // Invoked once, when the final chunk completes.
  SmallFunction<void(Tick)> on_complete;

  // --- Owned by MemoryController ------------------------------------------
  // A transfer has at most one chunk at its chip (it issues the next only
  // once that one is served): `issued_bytes - completed_bytes` bytes,
  // issued at `chunk_issue`. `chip_next` links the chip's DMA chunks in
  // service and queued, in the chip's FIFO order.
  Tick chunk_issue = 0;
  DmaTransfer* chip_next = nullptr;

  // True while the descriptor is checked out of its TransferPool
  // (maintained by the pool, not Reset). The access monitor's occupancy
  // probe keeps pointers to the transfers started since the last probe
  // and skips those whose descriptor has been released since.
  bool pool_active = false;

  // True once an occupancy probe has attributed this transfer to its
  // region. Observation is edge-triggered — a transfer counts once, at
  // the first sampling tick that finds it in flight — because in-flight
  // residency is dominated by bus queueing, and re-counting a queued
  // transfer at every probe would weight pages by congestion rather than
  // access frequency. It also lets the probe visit a recycled
  // descriptor listed twice only once.
  bool monitor_seen = false;

  // The descriptor's position in its pool's slabs (slab * 256 + slot),
  // stamped once when the slab is allocated and kept across reuse. The
  // probe visits descriptors in this order, the order of the slabs.
  // 32 bits fit beside the two flags above without growing the struct.
  std::uint32_t pool_index = 0;

  std::int64_t RemainingToIssue() const { return total_bytes - issued_bytes; }
  bool Complete() const { return completed_bytes >= total_bytes; }
  bool FirstChunk() const { return issued_bytes == 0; }

  // Re-initializes a recycled descriptor (everything except the pool's
  // `pool_active` and `pool_index`; see above).
  void Reset() {
    id = 0;
    bus_id = 0;
    chip_index = 0;
    physical_page = 0;
    kind = DmaKind::kNetwork;
    total_bytes = 0;
    chunk_bytes = 8;
    issued_bytes = 0;
    completed_bytes = 0;
    blocked = false;
    start_time = 0;
    gated_at = -1;
    obs_was_gated = false;
    on_complete = {};
    chunk_issue = 0;
    chip_next = nullptr;
    monitor_seen = false;
  }
};

}  // namespace dmasim

#endif  // DMASIM_IO_DMA_TRANSFER_H_
