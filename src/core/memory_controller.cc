#include "core/memory_controller.h"

#include <algorithm>
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
  DMASIM_EXPECTS(config.bus_count >= 1);
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
  run_by_chip_.assign(static_cast<std::size_t>(config.chips), nullptr);
  run_by_bus_.assign(static_cast<std::size_t>(config.bus_count), nullptr);
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

  // The new transfer contends for the bus: any coalesced run there no
  // longer owns it exclusively.
  if (run_by_bus_[static_cast<std::size_t>(bus)] != nullptr) {
    SettleRun(run_by_bus_[static_cast<std::size_t>(bus)], simulator_->Now());
  }

  DmaTransfer* transfer = pool_.Acquire();
  transfer->id = next_transfer_id_++;
  transfer->bus_id = bus;
  transfer->chip_index = page_to_chip_[logical_page];
  transfer->physical_page = logical_page;
  transfer->kind = kind;
  transfer->total_bytes = bytes;
  transfer->start_time = simulator_->Now();
  transfer->on_complete = std::move(on_complete);

  popularity_.Record(logical_page);
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
  // The access perturbs its chip and debits the (order-sensitive) slack
  // account: bring every coalesced run up to date first.
  SettleAllRuns(simulator_->Now());
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
    // Note: this credit commutes with the credits coalesced runs replay
    // later (all arrival credits are identical), so no settle is needed
    // on the common path.
    aligner_->slack().CreditArrival();
    if (first) {
      MemoryChip& chip =
          *chips_[static_cast<std::size_t>(transfer->chip_index)];
      if (chip.InLowPowerForGating()) {
        // The gating decision reads the slack account: apply every run's
        // pending credits first.
        SettleAllRuns(now);
        if (aligner_->WorthGating(*transfer, chunk_bytes)) {
          const int chip_index = transfer->chip_index;
          const TemporalAligner::GateResult gate =
              aligner_->Gate(chip_index, transfer, chunk_bytes, now);
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
              SettleAllRuns(simulator_->Now());
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
  ForwardChunk(transfer, chunk_bytes, now, first);
}

void MemoryController::ForwardChunk(DmaTransfer* transfer,
                                    std::int64_t chunk_bytes, Tick issue_time,
                                    bool first) {
  MemoryChip& chip = *chips_[static_cast<std::size_t>(transfer->chip_index)];
  // The chunk perturbs its chip's queue (and, for a first chunk, its
  // in-flight count): a run on that chip no longer owns it exclusively.
  DmaTransfer* run = run_by_chip_[static_cast<std::size_t>(transfer->chip_index)];
  if (run != nullptr && run != transfer) SettleRun(run, simulator_->Now());
  if (first) {
    // First chunk actually reaching the chip: the transfer is now in
    // flight for idle-energy attribution purposes.
    chip.BeginTransfer();
  }
  chip.Enqueue(ChipRequest{
      RequestKind::kDma, ByteCount(chunk_bytes),
      [this, transfer, chunk_bytes, issue_time](Tick completion) {
        OnChunkComplete(transfer, chunk_bytes, issue_time, completion);
      }});
}

void MemoryController::ReleaseChip(int chip_index, ReleaseCause cause) {
  std::vector<GatedRequest> gated = aligner_->TakeGated(chip_index);
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
    const Tick issue = request.gated_at;
    request.transfer->gated_at = -1;
    if (obs_.gate_delay != nullptr) {
      obs_.gate_delay->Add(
          static_cast<double>(simulator_->Now() - request.gated_at));
    }
    ForwardChunk(request.transfer, request.chunk_bytes, issue, /*first=*/true);
  }
}

void MemoryController::OnChunkComplete(DmaTransfer* transfer,
                                       std::int64_t chunk_bytes,
                                       Tick issue_time, Tick completion) {
  chunk_service_.Add(static_cast<double>(completion - issue_time));
  transfer->completed_bytes += chunk_bytes;

  if (transfer->Complete()) {
    CompleteTransfer(transfer, completion);
    return;
  }
  // Re-queueing on the bus perturbs any other transfer's run there.
  DmaTransfer* run = run_by_bus_[static_cast<std::size_t>(transfer->bus_id)];
  if (run != nullptr && run != transfer) SettleRun(run, completion);
  if (TryStartRun(transfer, completion)) return;
  buses_[static_cast<std::size_t>(transfer->bus_id)]->MakeReady(transfer);
}

void MemoryController::CompleteTransfer(DmaTransfer* transfer,
                                        Tick completion) {
  chips_[static_cast<std::size_t>(transfer->chip_index)]->EndTransfer();
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

// --- Chunk-run coalescing --------------------------------------------------

bool MemoryController::TryStartRun(DmaTransfer* transfer, Tick now) {
  if (!config_.coalesce_chunk_runs) return false;
  MemoryChip& chip = *chips_[static_cast<std::size_t>(transfer->chip_index)];
  IoBus& bus = *buses_[static_cast<std::size_t>(transfer->bus_id)];
  if (!chip.CanCoalesceDmaRun() || !bus.CanCoalesce()) return false;
  if (aligner_->enabled() && aligner_->HasGated(transfer->chip_index)) {
    return false;
  }

  // With the chip and bus exclusively owned, the remaining chunks'
  // timeline is closed-form: issue at max(previous issue + slot,
  // previous completion), serve for ServiceTime(chunk).
  //
  // The run absorbs only the chunks that complete strictly before the
  // earliest pending event. That horizon is what makes coalescing exact:
  // no event executes (and so nothing is scheduled) while the run is in
  // flight, so replacing the per-chunk events removes a contiguous block
  // of schedulings and every surviving event keeps its relative
  // (time, sequence) order. Without the horizon, an event landing on a
  // chunk boundary tick would have to be ordered against replayed chunks
  // by sequence number — information the replay no longer has.
  const Tick horizon = simulator_->NextPendingTick();
  const Tick slot = bus.SlotTime();
  const Tick first_issue = std::max(now, bus.next_free_slot());
  Tick issue = first_issue;
  Tick run_end = first_issue;
  std::int64_t chunks = 0;
  std::int64_t remaining = transfer->RemainingToIssue();
  DMASIM_CHECK_GT(remaining, 0);
  while (remaining > 0) {
    const std::int64_t chunk = std::min<std::int64_t>(bus.chunk_bytes(),
                                                      remaining);
    const Tick completion =
        issue + chip.ServiceTime(RequestKind::kDma, ByteCount(chunk)).value();
    if (completion >= horizon) break;
    run_end = completion;
    ++chunks;
    remaining -= chunk;
    issue = std::max(issue + slot, completion);
  }
  if (chunks == 0) return false;

  transfer->run_active = true;
  transfer->run_next_issue = first_issue;
  transfer->run_chunks_left = chunks;
  const std::uint64_t generation = ++transfer->run_generation;
  run_by_chip_[static_cast<std::size_t>(transfer->chip_index)] = transfer;
  run_by_bus_[static_cast<std::size_t>(transfer->bus_id)] = transfer;
  ++active_runs_;
  simulator_->ScheduleAt(run_end, [this, transfer, generation]() {
    FinishRun(transfer, generation);
  });
  return true;
}

std::uint64_t MemoryController::AdvanceRunChunks(DmaTransfer* transfer,
                                                 Tick bound) {
  // Replays this run's chunk timeline strictly before `bound`
  // (issue counted if issue < bound, completion if completion < bound —
  // matching what the per-chunk events would have executed by then), in
  // the exact order the events would have run. Returns the number of
  // events the replay stands in for.
  MemoryChip& chip = *chips_[static_cast<std::size_t>(transfer->chip_index)];
  IoBus& bus = *buses_[static_cast<std::size_t>(transfer->bus_id)];
  const Tick slot = bus.SlotTime();
  std::uint64_t credits = 0;
  while (transfer->run_chunks_left > 0) {
    const Tick issue = transfer->run_next_issue;
    if (issue >= bound) break;
    const std::int64_t chunk = std::min<std::int64_t>(
        bus.chunk_bytes(), transfer->RemainingToIssue());
    const Tick completion =
        issue + chip.ServiceTime(RequestKind::kDma, ByteCount(chunk)).value();
    bus.AccountCoalescedChunk(transfer, chunk, issue);
    if (aligner_->enabled()) aligner_->slack().CreditArrival();
    ++credits;  // Stands in for the bus Issue event.
    if (completion >= bound) {
      // Mid-service at the settle point: restore the chip's real state
      // and let the completion fire as an ordinary event.
      chip.ResumeCoalescedService(
          issue,
          ChipRequest{RequestKind::kDma, ByteCount(chunk),
                      [this, transfer, chunk, issue](Tick done) {
                        OnChunkComplete(transfer, chunk, issue, done);
                      }});
      return credits;
    }
    chip.AccountCoalescedCycle(issue, completion, ByteCount(chunk));
    chunk_service_.Add(static_cast<double>(completion - issue));
    transfer->completed_bytes += chunk;
    ++credits;  // Stands in for the chip ServeDone event.
    --transfer->run_chunks_left;
    transfer->run_next_issue = std::max(issue + slot, completion);
  }
  return credits;
}

void MemoryController::SettleRun(DmaTransfer* transfer, Tick bound) {
  DMASIM_CHECK(transfer->run_active);
  // Dissolve first: the pending run-end event becomes a stale no-op.
  transfer->run_active = false;
  ++transfer->run_generation;
  run_by_chip_[static_cast<std::size_t>(transfer->chip_index)] = nullptr;
  run_by_bus_[static_cast<std::size_t>(transfer->bus_id)] = nullptr;
  --active_runs_;

  MemoryChip& chip = *chips_[static_cast<std::size_t>(transfer->chip_index)];
  const std::uint64_t credits = AdvanceRunChunks(transfer, bound);
  if (credits > 0) simulator_->CreditExecuted(credits);
  // The run-end event sits at the last completion, which is >= bound
  // whenever a settle interrupts the run — so the transfer cannot have
  // finished here.
  DMASIM_CHECK(!transfer->Complete());
  if (!chip.serving()) {
    // Settled in an inter-chunk gap: hand the transfer back to the bus
    // for its next chunk (the replay left run_next_issue >= bound - 1).
    buses_[static_cast<std::size_t>(transfer->bus_id)]
        ->ResumeCoalescedTransfer(transfer, transfer->run_next_issue);
  }
}

void MemoryController::SettleAllRuns(Tick bound) {
  if (active_runs_ == 0) return;
  for (std::size_t chip = 0; chip < run_by_chip_.size(); ++chip) {
    if (run_by_chip_[chip] != nullptr) SettleRun(run_by_chip_[chip], bound);
  }
  DMASIM_CHECK_EQ(active_runs_, 0);
}

void MemoryController::FinishRun(DmaTransfer* transfer,
                                 std::uint64_t generation) {
  if (transfer->run_generation != generation) {
    // The run was settled (or the descriptor recycled) before this event
    // fired: it stands in for nothing and must not count.
    simulator_->UncountExecuted();
    return;
  }
  const Tick now = simulator_->Now();
  transfer->run_active = false;
  ++transfer->run_generation;
  run_by_chip_[static_cast<std::size_t>(transfer->chip_index)] = nullptr;
  run_by_bus_[static_cast<std::size_t>(transfer->bus_id)] = nullptr;
  --active_runs_;

  // bound = now + 1: this event IS the run's last absorbed completion, so
  // the whole run — that completion included — is in the replayed past.
  const std::uint64_t credits = AdvanceRunChunks(transfer, now + 1);
  DMASIM_CHECK_EQ(transfer->run_chunks_left, 0);
  DMASIM_CHECK_GE(credits, 1u);
  // This event already counted itself; credit the rest of the 2-per-chunk
  // events it replaced.
  simulator_->CreditExecuted(credits - 1);
  if (transfer->Complete()) {
    CompleteTransfer(transfer, now);
    return;
  }
  // The run absorbed only the chunks that fit before the next pending
  // event. Continue exactly as the last absorbed chunk's completion event
  // would have: open the next run if the window allows, else requeue on
  // the bus for the ordinary per-chunk path.
  if (TryStartRun(transfer, now)) return;
  buses_[static_cast<std::size_t>(transfer->bus_id)]->MakeReady(transfer);
}

// ---------------------------------------------------------------------------

void MemoryController::ScheduleEpoch() {
  simulator_->ScheduleAfter(config_.dma.ta.epoch_length, [this]() {
    // Epoch accounting reads the slack account and may release chips.
    SettleAllRuns(simulator_->Now());
    const std::vector<int> to_release = aligner_->OnEpoch(simulator_->Now());
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
    // Invisible to the simulated hardware, so coalesced runs need no
    // settling — the kernel's pending-event horizon guarantees that any
    // transfer completing before this event has already been released,
    // and a mid-run descriptor's page/chip fields are stable. Afterwards
    // every in-flight transfer is seen, so nothing re-arms until the
    // next transfer starts.
    pool_.ForEachActive([this](DmaTransfer& transfer) {
      if (transfer.monitor_seen) return;
      transfer.monitor_seen = true;
      monitor_->ObserveTransfer(transfer.physical_page, transfer.chip_index);
    });
  });
}

void MemoryController::ScheduleMonitorAggregation() {
  simulator_->ScheduleAfter(config_.monitor.aggregation_interval, [this]() {
    // Aggregation: age/merge regions and apply the demote-chip schemes.
    // TryStepDown refuses on any chip with queued work or an in-flight
    // transfer, and a coalesced run's chip always has in-flight >= 1, so
    // runs again need no settling.
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
  // Migration copies contend with any coalesced run's chips.
  SettleAllRuns(simulator_->Now());
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
  for (const PageMove& move : plan.moves) {
    DMASIM_CHECK_EQ(page_to_chip_[move.page], move.from_chip);
    page_to_chip_[move.page] = move.to_chip;
    ++stats_.migrations;
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
  }
  ++layout_intervals_run_;
  if (config_.dma.pl.age_period_intervals > 0 &&
      layout_intervals_run_ % config_.dma.pl.age_period_intervals == 0) {
    popularity_.Age();
  }
  ScheduleLayoutInterval();
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
  // Reading results after RunUntil(T): events at exactly T have executed,
  // so the replay bound is T + 1 (issue/completion at T are in the past).
  SettleAllRuns(simulator_->Now() + 1);
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
  SettleAllRuns(simulator_->Now() + 1);
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
