#include "io/io_bus.h"

#include <algorithm>


namespace dmasim {

IoBus::IoBus(Simulator* simulator, int id, double bandwidth_bytes_per_second,
             std::int64_t chunk_bytes)
    : simulator_(simulator),
      id_(id),
      bandwidth_(bandwidth_bytes_per_second),
      chunk_bytes_(chunk_bytes) {
  DMASIM_EXPECTS(bandwidth_ > 0.0);
  DMASIM_EXPECTS(chunk_bytes_ > 0);
  slot_time_ = TransferTime(chunk_bytes_, bandwidth_);
  DMASIM_ENSURES(slot_time_ > 0);
}

void IoBus::StartTransfer(DmaTransfer* transfer) {
  DMASIM_EXPECTS(transfer != nullptr);
  DMASIM_EXPECTS(transfer->bus_id == id_);
  DMASIM_EXPECTS(transfer->total_bytes > 0);
  transfer->chunk_bytes = std::min<std::int64_t>(chunk_bytes_,
                                                 transfer->total_bytes);
  ++transfers_started_;
  if (obs_tracer_ != nullptr) {
    obs_tracer_->BusTransferStart(simulator_->Now(), id_, transfer->id,
                                  transfer->total_bytes);
  }
  MakeReady(transfer);
}

void IoBus::MakeReady(DmaTransfer* transfer) {
  DMASIM_EXPECTS(!transfer->blocked);
  DMASIM_EXPECTS(transfer->RemainingToIssue() > 0);
  PushReady(transfer);
  ScheduleIssue();
}

void IoBus::ScheduleIssue() {
  if (issue_scheduled_ || !HasReady()) return;
  ScheduleIssueAt(std::max(simulator_->Now(), next_free_slot_));
}

void IoBus::ScheduleIssueAt(Tick when) {
  issue_scheduled_ = true;
  issue_when_ = when;
  issue_sequence_ = simulator_->ScheduleAt(when, [this]() { Issue(); });
}

void IoBus::Issue() {
  if (simulator_->CurrentSequence() != issue_sequence_) {
    // Taken over: the coalesced run that replayed it counted it.
    simulator_->UncountExecuted();
    return;
  }
  issue_scheduled_ = false;
  if (!HasReady()) return;

  DmaTransfer* transfer = PopReady();

  const std::int64_t chunk =
      std::min<std::int64_t>(chunk_bytes_, transfer->RemainingToIssue());
  DMASIM_CHECK_GT(chunk, 0);
  const bool first = transfer->FirstChunk();
  transfer->issued_bytes += chunk;
  next_free_slot_ = simulator_->Now() + slot_time_;
  ++chunks_issued_;

  DMASIM_CHECK_MSG(sink_ != nullptr, "bus has no request sink");
  sink_->DeliverChunk(transfer, chunk, first);

  ScheduleIssue();
}

}  // namespace dmasim
