// I/O bus model (PCI-X by default).
//
// A bus carries at most one DMA-memory request ("chunk") per slot time,
// where slot = chunk_bytes / bandwidth (12 memory cycles for 8 bytes on a
// 1.064 GB/s PCI-X bus against a 3.2 GB/s memory bus). Ready transfers
// share the bus round-robin. A transfer does not issue its next chunk
// until the previous one has been served by memory, and issues nothing at
// all while its first chunk is gated by DMA-TA -- exactly the "subsequent
// requests of the same DMA transfer will not be issued" behaviour of the
// paper (Section 4.1.1).
#ifndef DMASIM_IO_IO_BUS_H_
#define DMASIM_IO_IO_BUS_H_

#include <cstdint>
#include <deque>

#include "io/dma_transfer.h"
#include "obs/event_trace.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/time.h"

namespace dmasim {

// Receives DMA-memory requests issued by a bus. Implemented by the memory
// controller.
class DmaRequestSink {
 public:
  virtual ~DmaRequestSink() = default;

  // One chunk of `transfer` was placed on the bus at the current simulated
  // time. The sink either forwards it to the target chip or (for a first
  // chunk headed to a sleeping chip) buffers it for temporal alignment.
  // `chunk_bytes` is the size of this chunk (the final chunk may be
  // short); `first` marks the transfer's very first request.
  virtual void DeliverChunk(DmaTransfer* transfer, std::int64_t chunk_bytes,
                            bool first) = 0;
};

class IoBus {
 public:
  // `bandwidth` in bytes/second; `chunk_bytes` is the DMA-memory request
  // size carried per slot.
  IoBus(Simulator* simulator, int id, double bandwidth_bytes_per_second,
        std::int64_t chunk_bytes);

  IoBus(const IoBus&) = delete;
  IoBus& operator=(const IoBus&) = delete;

  void SetSink(DmaRequestSink* sink) { sink_ = sink; }

  // Attaches the observability tracer (null detaches): each transfer
  // entering the bus is recorded as an instant event on the bus lane.
  void SetObsTracer(EventTracer* tracer) { obs_tracer_ = tracer; }

  // Begins pacing `transfer` (non-owning; the caller keeps it alive until
  // its completion callback runs).
  void StartTransfer(DmaTransfer* transfer);

  // Re-queues `transfer` for its next chunk after the previous one was
  // served (or after a gated first chunk was released and served).
  void MakeReady(DmaTransfer* transfer);

  // --- Chunk-run coalescing support (see MemoryController) ---------------

  // True when the bus's near future is fully determined by one transfer:
  // nothing queued, no issue event pending. Only then can the controller
  // serve a run of that transfer's chunks in one event and replay the
  // bus-side bookkeeping afterwards.
  bool CanCoalesce() const { return ready_.empty() && !issue_scheduled_; }

  // Replays one chunk issue that happened in the past at `issue`:
  // the same bookkeeping as Issue(), minus the event.
  void AccountCoalescedChunk(DmaTransfer* transfer, std::int64_t chunk,
                             Tick issue) {
    transfer->issued_bytes += chunk;
    next_free_slot_ = issue + slot_time_;
    ++chunks_issued_;
  }

  // Puts a settled run's transfer back on the normal per-chunk path, with
  // its next Issue event at `next_issue` (the slot the replay arrived at).
  void ResumeCoalescedTransfer(DmaTransfer* transfer, Tick next_issue);

  int id() const { return id_; }
  Tick SlotTime() const { return slot_time_; }
  Tick next_free_slot() const { return next_free_slot_; }
  double BandwidthBytesPerSecond() const { return bandwidth_; }
  std::int64_t chunk_bytes() const { return chunk_bytes_; }
  std::uint64_t ChunksIssued() const { return chunks_issued_; }
  std::uint64_t TransfersStarted() const { return transfers_started_; }

 private:
  void ScheduleIssue();
  void Issue();

  Simulator* simulator_;
  int id_;
  double bandwidth_;
  std::int64_t chunk_bytes_;
  Tick slot_time_;
  DmaRequestSink* sink_ = nullptr;

  std::deque<DmaTransfer*> ready_;
  bool issue_scheduled_ = false;
  Tick next_free_slot_ = 0;

  std::uint64_t chunks_issued_ = 0;
  std::uint64_t transfers_started_ = 0;

  EventTracer* obs_tracer_ = nullptr;
};

}  // namespace dmasim

#endif  // DMASIM_IO_IO_BUS_H_
