#include "core/memory_controller.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <utility>

namespace dmasim {

int MemorySystemConfig::AlignmentQuorum() const {
  const double ratio = MemoryBandwidth() / bus_bandwidth;
  return static_cast<int>(std::ceil(ratio - 1e-9));
}

Tick MemorySystemConfig::RequestTime() const {
  return TransferTime(chunk_bytes, bus_bandwidth);
}

namespace {

// A group run's timeline names events as the kernel does, by (time,
// sequence). Events the replay schedules get virtual sequence numbers
// above every real one, in replay order: each would have been scheduled
// after every event pending when the run started.
constexpr std::uint64_t kVirtualSequence = std::uint64_t{1} << 62;
constexpr Simulator::EventRef kNoEvent{Simulator::kNoPendingEvent,
                                       Simulator::kNoSequence};

bool Earlier(const Simulator::EventRef& a, const Simulator::EventRef& b) {
  return a.when != b.when ? a.when < b.when : a.sequence < b.sequence;
}

// Appends `transfer` to a chip's chunk FIFO (linked by chip_next).
template <typename Fifo>
void Append(Fifo* fifo, DmaTransfer* transfer) {
  transfer->chip_next = nullptr;
  if (fifo->tail != nullptr) {
    fifo->tail->chip_next = transfer;
  } else {
    fifo->head = transfer;
  }
  fifo->tail = transfer;
}

// Builds the configured model; only kDdr4 consumes its calibration knobs.
std::unique_ptr<ChipPowerModel> MakeConfiguredModel(
    const MemorySystemConfig& config) {
  if (config.chip_model == ChipModelKind::kDdr4) {
    // dmasim-lint: allow(heap-alloc) -- one-time construction.
    return std::make_unique<Ddr4ChipModel>(config.ddr4);
  }
  return MakeChipPowerModel(config.chip_model, config.power);
}

}  // namespace

MemoryController::MemoryController(Simulator* simulator,
                                   const MemorySystemConfig& config,
                                   const LowPowerPolicy* policy)
    : simulator_(simulator),
      config_(config),
      chip_model_(MakeConfiguredModel(config)),
      popularity_(config.TotalPages()),
      layout_(config.dma.pl, config.chips, config.pages_per_chip) {
  DMASIM_EXPECTS(config.chips >= 2);
  DMASIM_EXPECTS(config.bus_count >= 1 &&
                 config.bus_count <= TemporalAligner::kMaxBuses);
  DMASIM_EXPECTS(config.page_bytes > 0);
  DMASIM_EXPECTS(config.chunk_bytes > 0 &&
                 config.chunk_bytes <= config.page_bytes);

  chips_.reserve(static_cast<std::size_t>(config.chips));
  for (int i = 0; i < config.chips; ++i) {
    chips_.push_back(
        // dmasim-lint: allow(heap-alloc) -- one-time construction.
        std::make_unique<MemoryChip>(simulator, chip_model_.get(), policy, i));
  }
  buses_.reserve(static_cast<std::size_t>(config.bus_count));
  for (int i = 0; i < config.bus_count; ++i) {
    // dmasim-lint: allow(heap-alloc) -- one-time construction.
    auto bus = std::make_unique<IoBus>(simulator, i, config.bus_bandwidth,
                                       config.chunk_bytes);
    bus->SetSink(this);
    buses_.push_back(std::move(bus));
  }

  // Initial layout: logical pages striped across chips, which scatters the
  // (hash-permuted) popular pages uniformly -- the unmanaged baseline.
  page_to_chip_.resize(config.TotalPages());
  std::int32_t stripe = 0;
  for (std::uint64_t page = 0; page < page_to_chip_.size(); ++page) {
    page_to_chip_[page] = stripe;
    if (++stripe == config.chips) stripe = 0;
  }

  transfers_per_chip_.assign(static_cast<std::size_t>(config.chips), 0);
  copies_per_move_ = static_cast<std::uint64_t>(
      (config.page_bytes + config.chunk_bytes - 1) / config.chunk_bytes);
  copies_queued_.assign(static_cast<std::size_t>(config.chips), 0);
  chunk_fifos_.assign(static_cast<std::size_t>(config.chips), ChunkFifo{});
  unblocked_.assign(static_cast<std::size_t>(config.chips) *
                        static_cast<std::size_t>(config.bus_count),
                    0);
  chips_on_bus_.assign(static_cast<std::size_t>(config.bus_count), 0);
  group_buses_.assign(static_cast<std::size_t>(config.chips), 0);
  lanes_.reserve(static_cast<std::size_t>(config.bus_count));
  lane_of_bus_.assign(static_cast<std::size_t>(config.bus_count), -1);
  // dmasim-lint: allow(heap-alloc) -- one-time construction.
  aligner_ = std::make_unique<TemporalAligner>(
      config.dma.ta, config.chips, config.bus_count, config.AlignmentQuorum(),
      config.RequestTime());
  if (config.dma.ta.enabled) ScheduleEpoch();
  if (config.dma.pl.enabled) ScheduleLayoutInterval();

  if (config.monitor.enabled) {
    // Sampling ticks are the multiples of sampling_interval since time 0.
    DMASIM_EXPECTS(simulator->Now() == 0);
    // dmasim-lint: allow(heap-alloc) -- one-time construction.
    monitor_ = std::make_unique<RegionMonitor>(config_.monitor,
                                               config.TotalPages(),
                                               config.chips);
    ScheduleMonitorAggregation();
  }
}

MemoryController::~MemoryController() = default;

std::uint64_t MemoryController::StartDmaTransfer(int bus,
                                                 std::uint64_t logical_page,
                                                 std::int64_t bytes,
                                                 DmaKind kind,
                                                 Callback on_complete) {
  DMASIM_EXPECTS(bus >= 0 && bus < bus_count());
  DMASIM_EXPECTS(logical_page < page_to_chip_.size());
  DMASIM_EXPECTS(bytes > 0);

  // The new transfer starts unseen: make sure a probe samples it at the
  // next tick. Armed first, so the probe precedes every event this
  // transfer schedules at that tick.
  if (monitor_ != nullptr && !probe_armed_) ArmMonitorProbe();

  DmaTransfer* transfer = pool_.Acquire();
  transfer->id = next_transfer_id_++;
  transfer->bus_id = bus;
  transfer->chip_index = page_to_chip_[logical_page];
  transfer->physical_page = logical_page;
  transfer->kind = kind;
  transfer->total_bytes = bytes;
  transfer->start_time = simulator_->Now();
  transfer->on_complete = std::move(on_complete);
  if (monitor_ != nullptr) started_since_probe_.push_back(transfer);

  popularity_.Record(logical_page);
  CountUnblocked(transfer, 1);
  ++stats_.transfers_started;
  ++transfers_per_chip_[static_cast<std::size_t>(transfer->chip_index)];

  const std::uint64_t id = transfer->id;
  buses_[static_cast<std::size_t>(bus)]->StartTransfer(transfer);
  return id;
}

void MemoryController::CpuAccess(std::uint64_t logical_page,
                                 std::int64_t bytes,
                                 ChipCallback on_complete) {
  DMASIM_EXPECTS(logical_page < page_to_chip_.size());
  const int chip_index = page_to_chip_[logical_page];
  MemoryChip& chip = *chips_[static_cast<std::size_t>(chip_index)];
  ++stats_.cpu_accesses;
  if (aligner_->enabled()) {
    aligner_->OnCpuAccess(
        chip_index, chip.ServiceTime(RequestKind::kCpu, ByteCount(bytes)));
  }
  chip.Enqueue(
      ChipRequest{RequestKind::kCpu, ByteCount(bytes), std::move(on_complete)});
  // The processor access activates the chip regardless (it has priority),
  // so any gated DMA requests ride along for free: keeping them delayed
  // would only force a second activation later.
  if (aligner_->enabled() && aligner_->HasGated(chip_index)) {
    ReleaseChip(chip_index, ReleaseCause::kCpuPriority);
  }
}

void MemoryController::DeliverChunk(DmaTransfer* transfer,
                                    std::int64_t chunk_bytes, bool first) {
  const Tick now = simulator_->Now();
  // DMA-TA lockstep: once past its (possibly gated) first request, a
  // transfer flows without further DMA-TA interference.
  if (!first) DMASIM_CHECK(!transfer->blocked);
  if (aligner_->enabled()) {
    aligner_->slack().CreditArrival();
    if (first) {
      MemoryChip& chip =
          *chips_[static_cast<std::size_t>(transfer->chip_index)];
      if (chip.InLowPowerForGating()) {
        if (aligner_->WorthGating(*transfer, chunk_bytes)) {
          const int chip_index = transfer->chip_index;
          const TemporalAligner::GateResult gate =
              aligner_->Gate(chip_index, transfer, chunk_bytes, now);
          CountUnblocked(transfer, -1);
          if (obs_.tracer != nullptr) {
            obs_.tracer->Gate(now, chip_index, transfer->bus_id,
                              transfer->id);
          }
          if (gate.release_now) {
            ReleaseChip(chip_index, aligner_->last_release_cause());
          } else {
            // Re-check when this request's delay budget runs out. The
            // check is idempotent: if the chip was released earlier,
            // nothing is gated any more and the event is a no-op.
            simulator_->ScheduleAt(gate.deadline, [this, chip_index]() {
              if (aligner_->HasGated(chip_index) &&
                  aligner_->ShouldRelease(chip_index, simulator_->Now())) {
                ReleaseChip(chip_index, aligner_->last_release_cause());
              }
            });
          }
          return;
        }
      }
    }
  }
  ForwardChunk(transfer, now, first);
}

void MemoryController::ForwardChunk(DmaTransfer* transfer, Tick issue_time,
                                    bool first) {
  MemoryChip& chip = *chips_[static_cast<std::size_t>(transfer->chip_index)];
  if (first) {
    // First chunk actually reaching the chip: the transfer is now in
    // flight for idle-energy attribution purposes.
    chip.BeginTransfer();
  }
  transfer->chunk_issue = issue_time;
  Append(&chunk_fifos_[static_cast<std::size_t>(transfer->chip_index)],
         transfer);
  chip.Enqueue(ChunkRequest(transfer));
}

ChipRequest MemoryController::ChunkRequest(DmaTransfer* transfer) {
  return ChipRequest{
      RequestKind::kDma,
      ByteCount(transfer->issued_bytes - transfer->completed_bytes),
      [this, transfer](Tick completion) {
        OnChunkComplete(transfer, completion);
      }};
}

void MemoryController::ReleaseChip(int chip_index, ReleaseCause cause) {
  // A release forwards chunks, and chips serve them and buses issue the
  // next only from later events, so ReleaseChip never re-enters and one
  // buffer serves every release.
  std::vector<GatedRequest>& gated = released_;
  aligner_->TakeGated(chip_index, &gated);
  if (gated.empty()) return;
  if (obs_.tracer != nullptr) {
    obs_.tracer->Release(simulator_->Now(), chip_index,
                         static_cast<int>(cause),
                         static_cast<int>(gated.size()));
  }
  MemoryChip& chip = *chips_[static_cast<std::size_t>(chip_index)];
  if (chip.power_state() != PowerState::kActive) {
    const Ticks wake =
        chip_model_->TransitionBetween(chip.power_state(), PowerState::kActive)
            .duration;
    aligner_->slack().DebitActivation(wake, static_cast<int>(gated.size()));
  }
  for (GatedRequest& request : gated) {
    request.transfer->blocked = false;
    CountUnblocked(request.transfer, 1);
    const Tick issue = request.gated_at;
    request.transfer->gated_at = -1;
    if (obs_.gate_delay != nullptr) {
      obs_.gate_delay->Add(
          static_cast<double>(simulator_->Now() - request.gated_at));
    }
    ForwardChunk(request.transfer, issue, /*first=*/true);
  }
}

void MemoryController::OnChunkComplete(DmaTransfer* transfer,
                                       Tick completion) {
  ChunkFifo& fifo =
      chunk_fifos_[static_cast<std::size_t>(transfer->chip_index)];
  DMASIM_CHECK(fifo.head == transfer);
  fifo.head = transfer->chip_next;
  if (fifo.head == nullptr) fifo.tail = nullptr;
  chunk_service_.Add(static_cast<double>(completion - transfer->chunk_issue));
  transfer->completed_bytes = transfer->issued_bytes;

  if (transfer->Complete()) {
    // A run stops before this completion, whose callback reaches the
    // server; once the callback has run, the rest of the group may go on.
    const int chip_index = transfer->chip_index;
    CompleteTransfer(transfer, completion);
    TryStartRun(chip_index, nullptr, completion);
    return;
  }
  if (TryStartRun(transfer->chip_index, transfer, completion)) return;
  buses_[static_cast<std::size_t>(transfer->bus_id)]->MakeReady(transfer);
}

void MemoryController::CompleteTransfer(DmaTransfer* transfer,
                                        Tick completion) {
  chips_[static_cast<std::size_t>(transfer->chip_index)]->EndTransfer();
  CountUnblocked(transfer, -1);
  ++stats_.transfers_completed;
  transfer_latency_.Add(
      static_cast<double>(completion - transfer->start_time));
  if (obs_.transfer_latency != nullptr) {
    obs_.transfer_latency->Add(
        static_cast<double>(completion - transfer->start_time));
  }
  if (obs_.tracer != nullptr) {
    obs_.tracer->Transfer(transfer->start_time, completion, transfer->id,
                          transfer->chip_index, transfer->bus_id,
                          static_cast<int>(transfer->kind),
                          transfer->obs_was_gated, transfer->total_bytes);
  }
  Callback on_complete = std::move(transfer->on_complete);
  pool_.Release(transfer);
  if (on_complete) on_complete(completion);
}

// --- Coalesced group runs --------------------------------------------------

void MemoryController::CountUnblocked(const DmaTransfer* transfer,
                                      int delta) {
  const std::size_t bus = static_cast<std::size_t>(transfer->bus_id);
  const std::size_t chip = static_cast<std::size_t>(transfer->chip_index);
  std::uint32_t& count = unblocked_[chip * buses_.size() + bus];
  const std::uint64_t bit = std::uint64_t{1} << bus;
  std::uint32_t& chips = chips_on_bus_[bus];
  if (delta > 0) {
    if (count++ != 0) return;
    group_buses_[chip] |= bit;
    ++chips;
  } else {
    DMASIM_CHECK_GT(count, 0u);
    if (--count != 0) return;
    group_buses_[chip] &= ~bit;
    --chips;
  }
  // A chip joined or left the bus.
  single_chip_buses_ = chips == 1 ? single_chip_buses_ | bit
                                  : single_chip_buses_ & ~bit;
}

bool MemoryController::GroupIsClosed(int chip) const {
  // Each bus carrying one of the chip's unblocked transfers carries no
  // unblocked transfer for another chip: every bus in its mask carries a
  // single chip's. One mask test, not a pool scan.
  return (group_buses_[static_cast<std::size_t>(chip)] &
          ~single_chip_buses_) == 0;
}

bool MemoryController::TryStartRun(int chip_index, DmaTransfer* ready_first,
                                   Tick now) {
  if (!config_.coalesce_chunk_runs) return false;
  MemoryChip& chip = *chips_[static_cast<std::size_t>(chip_index)];
  // A CPU access or migration copy is not DMA, and a gated request is
  // released only by an outside event, which perturbs the chip.
  if (!GroupIsClosed(chip_index) || !chip.CanHostDmaRun()) return false;
  if (aligner_->enabled() && aligner_->HasGated(chip_index)) return false;

  // Most attempts end here: an outside event comes before anything the
  // group could execute.
  const std::uint64_t members =
      group_buses_[static_cast<std::size_t>(chip_index)];
  const Simulator::EventRef taken_serve =
      chip.serving() ? chip.pending_serve_done() : kNoEvent;
  Tick first = taken_serve.when;
  if (ready_first != nullptr) {
    first = std::min(
        first,
        std::max(now, buses_[static_cast<std::size_t>(ready_first->bus_id)]
                          ->next_free_slot()));
  }
  for (std::uint64_t mask = members; mask != 0; mask &= mask - 1) {
    first = std::min(
        first, buses_[static_cast<std::size_t>(std::countr_zero(mask))]
                   ->pending_issue()
                   .when);
  }
  if (simulator_->NextPendingTick() < first) return false;

  // The group's own pending events: one Issue per member bus at most and
  // the chip's ServeDone. The run may take them over.
  lanes_.clear();
  for (std::uint64_t mask = members; mask != 0; mask &= mask - 1) {
    RunLane lane;
    lane.bus = buses_[static_cast<std::size_t>(std::countr_zero(mask))].get();
    lane.taken = lane.issue = lane.bus->pending_issue();
    lane_of_bus_[static_cast<std::size_t>(lane.bus->id())] =
        static_cast<int>(lanes_.size());
    lanes_.push_back(lane);
  }

  // The horizon is the earliest pending event the group does not own, or
  // the loop's bound if that comes first: only group events strictly
  // before it are absorbed, so nothing else executes, observes or
  // schedules in the window the run resolves.
  Simulator::EventRef skip[TemporalAligner::kMaxBuses + 1];
  std::size_t skipped = 0;
  for (const RunLane& lane : lanes_) {
    if (lane.taken.when != Simulator::kNoPendingEvent) {
      skip[skipped++] = lane.taken;
    }
  }
  if (chip.serving()) skip[skipped++] = taken_serve;
  const Tick limit =
      std::min(simulator_->NextPendingTickSkipping(skip, skipped),
               simulator_->LoopBound());

  run_sequence_ = kVirtualSequence;
  run_serve_ = taken_serve;
  if (ready_first != nullptr) RunMakeReady(ready_first, now);
  const std::uint64_t events = AdvanceRunChunks(chip_index, limit);
  if (events > 0) simulator_->CreditExecuted(events);

  // Leave the chip and the buses in the exact per-chunk state the
  // timeline reached: the chip's DMA chunks in FIFO order, the first in
  // service; each replayed pending event superseded; and each event the
  // timeline scheduled and did not reach scheduled now, in the order the
  // timeline scheduled it. A pending event the run did not reach keeps
  // its own sequence number.
  if (events > 0) {  // Every event played moved the chip's FIFO.
    chip.ClearDmaRequests();
    bool in_service = true;
    for (DmaTransfer* transfer =
             chunk_fifos_[static_cast<std::size_t>(chip_index)].head;
         transfer != nullptr; transfer = transfer->chip_next) {
      chip.InstallDmaRequest(ChunkRequest(transfer), in_service);
      in_service = false;
    }
  }
  if (run_serve_.sequence != taken_serve.sequence &&
      taken_serve.when != Simulator::kNoPendingEvent) {
    chip.TakeOverServeDone();
  }
  // Events the run scheduled and did not reach, named by lane (-1 for
  // the chip's ServeDone).
  struct Pending {
    std::uint64_t sequence;
    Tick when;
    int lane;
  };
  Pending pending[TemporalAligner::kMaxBuses + 1];
  std::size_t count = 0;
  if (run_serve_.sequence != taken_serve.sequence &&
      run_serve_.when != Simulator::kNoPendingEvent) {
    pending[count++] = {run_serve_.sequence, run_serve_.when, -1};
  }
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const RunLane& lane = lanes_[i];
    if (lane.issue.sequence == lane.taken.sequence) continue;
    if (lane.taken.when != Simulator::kNoPendingEvent) {
      lane.bus->TakeOverIssue();
    }
    if (lane.issue.when != Simulator::kNoPendingEvent) {
      pending[count++] = {lane.issue.sequence, lane.issue.when,
                          static_cast<int>(i)};
    }
  }
  // Insertion sort: a run leaves at most one pending event per lane.
  for (std::size_t i = 1; i < count; ++i) {
    for (std::size_t j = i;
         j > 0 && pending[j].sequence < pending[j - 1].sequence; --j) {
      std::swap(pending[j], pending[j - 1]);
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (pending[i].lane < 0) {
      chip.ScheduleServeDoneAt(pending[i].when);
    } else {
      lanes_[static_cast<std::size_t>(pending[i].lane)].bus->ScheduleIssueAt(
          pending[i].when);
    }
  }
  return true;
}

void MemoryController::RunMakeReady(DmaTransfer* transfer, Tick now) {
  // IoBus::MakeReady on the timeline.
  RunLane& lane =
      lanes_[static_cast<std::size_t>(lane_of_bus_[static_cast<std::size_t>(
          transfer->bus_id)])];
  lane.bus->PushReady(transfer);
  if (lane.issue.when == Simulator::kNoPendingEvent) {
    lane.issue = {std::max(now, lane.bus->next_free_slot()), run_sequence_++};
  }
}

std::uint64_t MemoryController::AdvanceRunChunks(int chip_index, Tick limit) {
  // Plays the group's events strictly before `limit` in (time, sequence)
  // order, each with the bookkeeping its per-chunk execution performs, in
  // the same order, and stops before a chunk completion that finishes its
  // transfer (the completion callback reaches the server). Returns the
  // number of events played.
  MemoryChip& chip = *chips_[static_cast<std::size_t>(chip_index)];
  ChunkFifo& fifo = chunk_fifos_[static_cast<std::size_t>(chip_index)];
  SlackAccount* slack = aligner_->enabled() ? &aligner_->slack() : nullptr;
  std::uint64_t events = 0;
  for (;;) {
    RunLane* lane = nullptr;
    Simulator::EventRef next = run_serve_;
    for (RunLane& candidate : lanes_) {
      if (Earlier(candidate.issue, next)) {
        next = candidate.issue;
        lane = &candidate;
      }
    }
    if (next.when >= limit) break;
    const Tick now = next.when;
    if (lane == nullptr) {
      // MemoryChip::ServeDone of the FIFO's head, then its callback.
      DmaTransfer* done = fifo.head;
      if (done->issued_bytes >= done->total_bytes) break;
      fifo.head = done->chip_next;
      if (fifo.head == nullptr) fifo.tail = nullptr;
      chip.ReplayDmaServed();
      if (const DmaTransfer* after = fifo.head; after != nullptr) {
        const ByteCount bytes(after->issued_bytes - after->completed_bytes);
        run_serve_ = {now + chip.ServiceTime(RequestKind::kDma, bytes).value(),
                      run_sequence_++};
        chip.ReplayDmaService(now, bytes);
      } else {
        run_serve_ = kNoEvent;
        chip.ReplayDmaIdle(now);
      }
      chunk_service_.Add(static_cast<double>(now - done->chunk_issue));
      done->completed_bytes = done->issued_bytes;
      RunMakeReady(done, now);
    } else {
      // IoBus::Issue, DeliverChunk and ForwardChunk. The chip is active,
      // so no first chunk is gated.
      IoBus& bus = *lane->bus;
      DmaTransfer* transfer = bus.PopReady();
      const std::int64_t chunk = std::min<std::int64_t>(
          bus.chunk_bytes(), transfer->RemainingToIssue());
      if (transfer->FirstChunk()) {
        chip.ReplayBeginTransfer(now, fifo.head != nullptr);
      }
      bus.AccountReplayedIssue(transfer, chunk, now);
      if (slack != nullptr) slack->CreditArrival();
      transfer->chunk_issue = now;
      if (fifo.head == nullptr) {
        const ByteCount bytes(chunk);
        run_serve_ = {now + chip.ServiceTime(RequestKind::kDma, bytes).value(),
                      run_sequence_++};
        chip.ReplayDmaService(now, bytes);
      }
      Append(&fifo, transfer);
      lane->issue = bus.HasReady() ? Simulator::EventRef{bus.next_free_slot(),
                                                         run_sequence_++}
                                   : kNoEvent;
    }
    ++events;
  }
  return events;
}

// ---------------------------------------------------------------------------

void MemoryController::ScheduleEpoch() {
  simulator_->ScheduleAfter(config_.dma.ta.epoch_length, [this]() {
    const std::vector<int>& to_release = aligner_->OnEpoch(simulator_->Now());
    for (std::size_t i = 0; i < to_release.size(); ++i) {
      ReleaseChip(to_release[i], aligner_->last_epoch_causes()[i]);
    }
    if (obs_.tracer != nullptr) {
      obs_.tracer->SlackSample(simulator_->Now(), aligner_->slack().slack(),
                               aligner_->TotalPending());
    }
    ScheduleEpoch();
  });
}

void MemoryController::ScheduleLayoutInterval() {
  simulator_->ScheduleAfter(config_.dma.pl.interval,
                            [this]() { RunLayoutInterval(); });
}

void MemoryController::ArmMonitorProbe() {
  probe_armed_ = true;
  const Tick interval = config_.monitor.sampling_interval;
  const Tick tick = (simulator_->Now() / interval + 1) * interval;
  simulator_->ScheduleAt(tick, [this]() {
    probe_armed_ = false;
    // Charge every tick since the last charge, this one included. The
    // skipped ticks had no unseen transfer in flight (one would have
    // armed this probe earlier), so they only cost their probe; each
    // counts as the event a per-tick probe would have executed, and this
    // event's own count is one of them.
    simulator_->CreditExecuted(
        monitor_->ChargeProbesThrough(simulator_->Now()));
    simulator_->UncountExecuted();
    // Occupancy probe: attribute each in-flight transfer not yet seen by
    // an earlier probe to its region (edge-triggered; see DmaTransfer).
    // Every such transfer started since the previous probe, so it is in
    // started_since_probe_; visiting that list in slab order observes
    // exactly what a walk over the whole slab would, in the same order.
    // A descriptor released since its start is skipped, and one recycled
    // into a new transfer appears twice: the first visit observes and
    // marks it. A coalesced run never plays past a pending event outside
    // its group, so every transfer completing before this probe has
    // already been released. Afterwards every in-flight transfer is
    // seen, so nothing re-arms until the next transfer starts.
    std::sort(started_since_probe_.begin(), started_since_probe_.end(),
              [](const DmaTransfer* a, const DmaTransfer* b) {
                return a->pool_index < b->pool_index;
              });
    for (DmaTransfer* transfer : started_since_probe_) {
      if (!transfer->pool_active || transfer->monitor_seen) continue;
      transfer->monitor_seen = true;
      monitor_->ObserveTransfer(transfer->physical_page,
                                transfer->chip_index);
    }
    started_since_probe_.clear();
  });
}

void MemoryController::ScheduleMonitorAggregation() {
  simulator_->ScheduleAfter(config_.monitor.aggregation_interval, [this]() {
    // Aggregation: age/merge regions and apply the demote-chip schemes.
    const std::vector<ChipDemotion>& demote = monitor_->Aggregate();
    for (const ChipDemotion& demotion : demote) {
      if (chips_[static_cast<std::size_t>(demotion.chip)]->TryStepDown(
              demotion.depth)) {
        monitor_->NoteDemotionApplied();
      }
    }
    ScheduleMonitorAggregation();
  });
}

void MemoryController::RunLayoutInterval() {
  // With the monitor enabled the layout planner sees the monitored
  // popularity estimate instead of the oracle per-page counts; the oracle
  // tracker keeps recording either way so the estimate can be scored
  // against it (hotness error). Either source hands the planner only its
  // referenced pages.
  const std::vector<PageCountRun>* runs = &oracle_runs_;
  if (monitor_ != nullptr) {
    runs = &monitor_->MaterializeRuns();
    monitor_->RecordHotnessError(popularity_.counts(),
                                 popularity_.nonzero_pages());
  } else {
    oracle_runs_.clear();
    for (const std::uint32_t page : popularity_.nonzero_pages()) {
      oracle_runs_.push_back({page, 1, popularity_.counts()[page]});
    }
  }
  const LayoutPlan plan = layout_.Plan(*runs, page_to_chip_);
  if (!plan.moves.empty()) ++stats_.migration_rounds;
  stats_.deferred_migrations += static_cast<std::uint64_t>(plan.deferred_moves);
  // Count the earlier rounds' moves whose copies are done by now.
  std::size_t kept = 0;
  for (const PendingMove& move : pending_moves_) {
    if (MoveDone(move)) {
      ++stats_.migrations;
    } else {
      pending_moves_[kept++] = move;
    }
  }
  pending_moves_.resize(kept);
  for (const PageMove& move : plan.moves) {
    DMASIM_CHECK_EQ(page_to_chip_[move.page], move.from_chip);
    page_to_chip_[move.page] = move.to_chip;
    ++migrations_planned_;
    // Charge the copy: a read on the source chip and a write on the
    // destination chip. Copies run at lowest priority and in small chunks
    // (Section 4.2.2's "perform page migration in small chunks") so DMA
    // and CPU requests are delayed by at most one chunk service.
    for (std::int64_t offset = 0; offset < config_.page_bytes;
         offset += config_.chunk_bytes) {
      const std::int64_t chunk =
          std::min(config_.chunk_bytes, config_.page_bytes - offset);
      chips_[static_cast<std::size_t>(move.from_chip)]->Enqueue(
          ChipRequest{RequestKind::kMigration, ByteCount(chunk), {}});
      chips_[static_cast<std::size_t>(move.to_chip)]->Enqueue(
          ChipRequest{RequestKind::kMigration, ByteCount(chunk), {}});
    }
    std::uint64_t& from_end =
        copies_queued_[static_cast<std::size_t>(move.from_chip)];
    std::uint64_t& to_end = copies_queued_[static_cast<std::size_t>(move.to_chip)];
    from_end += copies_per_move_;
    to_end += copies_per_move_;
    pending_moves_.push_back(
        PendingMove{move.from_chip, move.to_chip, from_end, to_end});
  }
  ++layout_intervals_run_;
  if (config_.dma.pl.age_period_intervals > 0 &&
      layout_intervals_run_ % config_.dma.pl.age_period_intervals == 0) {
    popularity_.Age();
  }
  ScheduleLayoutInterval();
}

std::uint64_t MemoryController::CopiesServed(int chip,
                                             std::uint64_t end) const {
  const std::uint64_t served =
      chips_[static_cast<std::size_t>(chip)]->stats().migration_requests;
  const std::uint64_t start = end - copies_per_move_;
  return served <= start ? 0 : std::min(served, end) - start;
}

bool MemoryController::MoveDone(const PendingMove& move) const {
  return CopiesServed(move.from_chip, move.from_end) == copies_per_move_ &&
         CopiesServed(move.to_chip, move.to_end) == copies_per_move_;
}

ControllerStats MemoryController::stats() const {
  ControllerStats stats = stats_;
  for (const PendingMove& move : pending_moves_) {
    ++(MoveDone(move) ? stats.migrations : stats.migrations_pending);
  }
  return stats;
}

std::uint64_t MemoryController::PendingMigrationBytesServed() const {
  // Only a page's last chunk may be short, so n chunks hold
  // min(n * chunk_bytes, page_bytes) bytes.
  const auto copy_bytes = [this](std::uint64_t chunks) {
    return std::min(chunks * static_cast<std::uint64_t>(config_.chunk_bytes),
                    static_cast<std::uint64_t>(config_.page_bytes));
  };
  std::uint64_t bytes = 0;
  for (const PendingMove& move : pending_moves_) {
    if (MoveDone(move)) continue;
    bytes += copy_bytes(CopiesServed(move.from_chip, move.from_end)) +
             copy_bytes(CopiesServed(move.to_chip, move.to_end));
  }
  return bytes;
}

double MemoryController::HottestChipShare() const {
  std::uint64_t total = 0;
  std::uint64_t best = 0;
  for (std::uint64_t count : transfers_per_chip_) {
    total += count;
    if (count > best) best = count;
  }
  return total > 0 ? static_cast<double>(best) / static_cast<double>(total)
                   : 0.0;
}

EnergyBreakdown MemoryController::CollectEnergy() {
  if (monitor_ != nullptr) {
    // Ticks since the last probe saw nothing new: charge them, and count
    // the probe events a per-tick monitor would have executed for them.
    simulator_->CreditExecuted(
        monitor_->ChargeProbesThrough(simulator_->Now()));
  }
  EnergyBreakdown total;
  for (auto& chip : chips_) {
    chip->SyncAccounting();
    total += chip->energy();
  }
  return total;
}

double MemoryController::UtilizationFactor() {
  Tick serving = 0;
  Tick idle_dma = 0;
  for (auto& chip : chips_) {
    chip->SyncAccounting();
    serving += chip->stats().dma_serving;
    idle_dma += chip->stats().active_idle_dma;
  }
  const Tick active = serving + idle_dma;
  return active > 0 ? static_cast<double>(serving) /
                          static_cast<double>(active)
                    : 0.0;
}

}  // namespace dmasim
