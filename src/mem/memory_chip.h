// RDRAM memory chip model: request service, power-state machine, and
// per-bucket energy integration.
//
// The chip serves 8-byte DMA-memory requests in 4 memory cycles (at the
// default 3.2 GB/s data rate) and 64-byte processor accesses in 32 cycles.
// Between requests of an in-flight DMA transfer it is idle in active mode;
// that time is attributed to the ActiveIdleDma energy bucket, which is the
// waste DMA-TA attacks. A chip-local `LowPowerPolicy` decides when the
// idle chip steps down; waking and stepping incur the Table 1 transition
// costs.
//
// Requests are served in priority order: processor accesses first (the
// paper's Section 4.1.3 "processors take priority" solution), then DMA,
// then page-migration copies.
#ifndef DMASIM_MEM_MEMORY_CHIP_H_
#define DMASIM_MEM_MEMORY_CHIP_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>

#include "audit/chip_audit_sink.h"
#include "mem/chip_power_model.h"
#include "mem/power_fsm.h"
#include "mem/power_model.h"
#include "mem/power_policy.h"
#include "obs/event_trace.h"
#include "sim/inline_function.h"
#include "sim/simulator.h"
#include "stats/energy.h"
#include "util/check.h"
#include "util/ring.h"
#include "util/time.h"

namespace dmasim {

// RequestKind lives in mem/chip_power_model.h so activation-aware chip
// models can price accesses by requester class.

// Completion callback carried by a ChipRequest. Deliberately smaller
// than SmallFunction: chip callbacks capture at most four pointers/values
// (the controller's chunk-completion lambdas), and requests are moved
// through per-chip queues on every chunk, so the 32-byte capacity keeps
// sizeof(ChipRequest) to a single cache line.
using ChipCallback = InlineFunction<void(Tick), 32>;

// One memory request as seen by a chip. `on_complete` runs when the last
// byte has been transferred (may be empty).
struct ChipRequest {
  RequestKind kind = RequestKind::kDma;
  ByteCount bytes{8};
  ChipCallback on_complete;
};

// Aggregate per-chip statistics (times in ticks).
struct ChipStats {
  Tick dma_serving = 0;
  Tick cpu_serving = 0;
  Tick migration_serving = 0;
  Tick active_idle_dma = 0;
  Tick active_idle_threshold = 0;
  Tick transition = 0;
  Tick low_power[kPowerStateCount] = {};  // Indexed by PowerState.
  std::uint64_t dma_requests = 0;
  std::uint64_t cpu_requests = 0;
  std::uint64_t migration_requests = 0;
  std::uint64_t migration_bytes = 0;  // Bytes of migration copies served.
  std::uint64_t wakeups = 0;
  std::uint64_t step_downs = 0;
};

class MemoryChip {
 public:
  // `simulator`, `model`, and `policy` must outlive the chip.
  MemoryChip(Simulator* simulator, const ChipPowerModel* model,
             const LowPowerPolicy* policy, int id);

  MemoryChip(const MemoryChip&) = delete;
  MemoryChip& operator=(const MemoryChip&) = delete;

  // Submits a request. If the chip is in (or stepping to) a low-power
  // state it wakes first, paying the Table 1 transition cost.
  void Enqueue(ChipRequest request);

  // Registers / unregisters an in-flight DMA transfer targeting this chip.
  // While at least one transfer is in flight, idle-active time counts as
  // ActiveIdleDma; otherwise as ActiveIdleThreshold.
  void BeginTransfer();
  void EndTransfer();

  // True when a newly arriving DMA-memory request would find the chip in a
  // low-power mode (the condition under which DMA-TA may delay it).
  bool InLowPowerForGating() const { return fsm_.InLowPowerForGating(); }

  // Steps the chip down `depth` policy steps below its current state in
  // one transition, without waiting for the idle threshold (the access
  // monitor's demote-chip scheme action; depth > 1 follows the policy's
  // step chain — e.g. Active -> Nap — and clamps at the chain's end).
  // Refuses — returning false — unless the chip is genuinely quiescent:
  // not serving, not transitioning, nothing queued, no DMA transfer in
  // flight, and the policy has a lower state to offer. Cancels the
  // pending idle timer so the demotion and the threshold path cannot
  // race.
  bool TryStepDown(int depth = 1);

  // --- Group-run support (see MemoryController) --------------------------

  // True when nothing but DMA chunks can move the chip until the next
  // outside event: active, not transitioning, and no CPU access or
  // migration copy queued or in service. The controller may then play
  // its DMA chunks' events as a coalesced run (Replay* below).
  bool CanHostDmaRun() const {
    return !fsm_.transitioning() && fsm_.state() == PowerState::kActive &&
           cpu_queue_.empty() && migration_queue_.empty() &&
           (!serving_ || active_request_.kind == RequestKind::kDma);
  }

  // The pending ServeDone event (meaningful while serving()).
  Simulator::EventRef pending_serve_done() const {
    return {serve_when_, serve_sequence_};
  }
  // A coalesced run replayed the pending ServeDone: when the event fires
  // it finds itself superseded, uncounts itself and does nothing.
  void TakeOverServeDone() { serve_sequence_ = Simulator::kNoSequence; }

  // Replay a DMA service starting at `when` (after an idle-DMA gap or
  // straight after the previous service), the chip falling idle with
  // transfers in flight, a served chunk, and a transfer's first chunk
  // reaching the chip. They integrate exactly the segments the per-chunk
  // Enqueue / ServeRequest / ServeDone / BecomeIdleActive / BeginTransfer
  // path would, in the same order, ahead of the clock: a coalesced run
  // plays its group's events inside one event. `bytes` is the chunk size
  // (activation-aware models price serving by burst).
  void ReplayDmaService(Tick when, ByteCount bytes) {
    AccountTo(when);
    SwitchToServingAccounting(RequestKind::kDma, bytes);
  }
  void ReplayDmaIdle(Tick when) {
    AccountTo(when);
    bucket_ = EnergyBucket::kActiveIdleDma;
    power_mw_ = model_->StatePowerMw(PowerState::kActive);
    time_slot_ = &stats_.active_idle_dma;
  }
  void ReplayDmaServed() { ++stats_.dma_requests; }
  // BeginTransfer at `when`, the chip idle unless `serving`.
  void ReplayBeginTransfer(Tick when, bool serving) {
    if (++in_flight_transfers_ == 1 && !serving) {
      ++timer_generation_;
      ReplayDmaIdle(when);
    }
  }

  // Installs the DMA requests a replay reached: ClearDmaRequests drops
  // the chip's (all DMA), then InstallDmaRequest adds them in FIFO order,
  // the first into service when `in_service`. The pending ServeDone is
  // set apart (TakeOverServeDone, ScheduleServeDoneAt).
  void ClearDmaRequests();
  void InstallDmaRequest(ChipRequest request, bool in_service);
  void ScheduleServeDoneAt(Tick when);

  PowerState power_state() const { return fsm_.state(); }
  bool serving() const { return serving_; }
  bool transitioning() const { return fsm_.transitioning(); }
  int in_flight_transfers() const { return in_flight_transfers_; }
  int id() const { return id_; }
  std::size_t QueuedRequests() const { return queued_; }
  // CPU accesses queued or in service: enqueued, not yet in stats().
  std::size_t PendingCpuRequests() const {
    return cpu_queue_.size() +
           (serving_ && active_request_.kind == RequestKind::kCpu ? 1 : 0);
  }

  // model().ServiceTime(bytes), remembered per request kind (see
  // ServiceMemo).
  Ticks ServiceTime(RequestKind kind, ByteCount bytes) {
    return Ticks(Memo(kind, bytes).ticks);
  }

  // Flushes accounting up to the current simulated time. Call before
  // reading `energy()` or `stats()` at the end of a run.
  void SyncAccounting();

  const EnergyBreakdown& energy() const { return energy_; }
  const ChipStats& stats() const { return stats_; }
  const ChipPowerModel& model() const { return *model_; }
  // Simulated time up to which energy/stats have been integrated.
  Tick accounted_until() const { return accounted_until_; }

  // Attaches the invariant auditor's observer (null detaches). The sink
  // sees every completed power-state transition and every integrated
  // energy segment.
  void SetAuditSink(ChipAuditSink* sink) { audit_sink_ = sink; }

  // Attaches the observability tracer (null detaches). From this moment
  // the chip closes a residency or transition interval event whenever its
  // power state machine moves; `FlushObsResidency` closes the open
  // interval at `accounted_until()` (call after SyncAccounting so the
  // trace's residency totals reconcile exactly with `stats()`).
  void SetObsTracer(EventTracer* tracer) {
    obs_tracer_ = tracer;
    obs_interval_start_ = simulator_->Now();
  }
  void FlushObsResidency();

  // Deepest state a policy lets an idle chip settle into (the natural
  // initial state for a freshly simulated chip).
  static PowerState RestingState(const LowPowerPolicy& policy);

 private:
  // `retire_inline` allows ServeRequest to retire a chain of
  // callback-free requests, its last included, without events; only
  // callers whose event ends right after the call may grant it (see
  // ServeRequest).
  void StartNextService(bool retire_inline);
  ChipRequest PopNextRequest();
  void SwitchToServingAccounting(RequestKind kind, ByteCount bytes) {
    bucket_ = kind == RequestKind::kMigration ? EnergyBucket::kMigration
                                              : EnergyBucket::kActiveServing;
    power_mw_ = Memo(kind, bytes).serving_power;
    switch (kind) {
      case RequestKind::kDma:
        time_slot_ = &stats_.dma_serving;
        break;
      case RequestKind::kCpu:
        time_slot_ = &stats_.cpu_serving;
        break;
      case RequestKind::kMigration:
        time_slot_ = &stats_.migration_serving;
        break;
    }
  }
  void ServeRequest(ChipRequest&& request, bool retire_inline);
  // Bumps the served counters for a request whose service completed.
  void CountServed(const ChipRequest& request);
  void ServeDone();
  // The chip falls idle at `when` (now, or an inline-retired completion
  // ahead of the clock) and arms the policy timer from there.
  void BecomeIdleActive(Tick when);
  void ArmPolicyTimer(Tick idle_since);
  void StartWake();
  void StartStepDown(PowerState target);
  void TransitionDone();
  bool HasQueuedRequest() const { return queued_ > 0; }

  // Integrates the current accounting mode up to `when` (>= the last
  // accounted time; may be in the simulated future while a coalesced run
  // plays its group's events).
  void AccountTo(Tick when) {
    DMASIM_CHECK_GE(when, accounted_until_);
    const Tick elapsed = when - accounted_until_;
    if (elapsed > 0) {
      const JoulesEnergy joules = EnergyOver(power_mw_, Ticks(elapsed));
      energy_.Add(bucket_, joules);
      *time_slot_ += elapsed;
      if (audit_sink_ != nullptr) {
        audit_sink_->OnEnergyAccounted(id_, bucket_, joules, Ticks(elapsed));
      }
    }
    accounted_until_ = when;
  }
  // Switches the energy/time accounting mode, integrating the elapsed
  // interval into the previous mode.
  void SetAccounting(EnergyBucket bucket, MilliwattPower power_mw,
                     Tick* time_slot);

  Simulator* simulator_;
  const ChipPowerModel* model_;
  const LowPowerPolicy* policy_;
  int id_;

  // The extracted power-state machine (shared with the protocol checker;
  // see mem/power_fsm.h). The chip layers serving, queueing, timers, and
  // energy accounting on top of it.
  PowerFsm fsm_;
  bool serving_ = false;
  int in_flight_transfers_ = 0;
  std::uint64_t timer_generation_ = 0;

  // The request being served; ServeDone events capture only `this`.
  ChipRequest active_request_;
  // The live pending ServeDone event. An event whose sequence no longer
  // matches was taken over by a coalesced run.
  Tick serve_when_ = 0;
  std::uint64_t serve_sequence_ = Simulator::kNoSequence;

  // CPU and DMA requests queue on rings. Migration copies arrive in
  // bursts (a moved page queues 16 chunk copies per chip) at layout
  // intervals, so their queue stays a deque, which returns its memory as
  // it drains where a ring would keep its deepest burst's capacity.
  Ring<ChipRequest> cpu_queue_;
  Ring<ChipRequest> dma_queue_;
  std::deque<ChipRequest> migration_queue_;
  std::size_t queued_ = 0;  // Requests in all three queues.

  // The model's ServiceTime and ServingPowerMw are pure functions of the
  // request kind and byte count, and each kind comes in one or two sizes
  // (64 B CPU accesses, the chunk size), so the last size priced per kind
  // almost always hits and the memo is exact. 0 bytes is never a request.
  struct ServiceMemo {
    std::int64_t bytes = 0;
    Tick ticks = 0;
    MilliwattPower serving_power;
  };
  ServiceMemo& Memo(RequestKind kind, ByteCount bytes) {
    ServiceMemo& memo = service_memo_[static_cast<int>(kind)];
    if (memo.bytes != bytes.count()) {
      memo.ticks = model_->ServiceTime(bytes).value();
      memo.serving_power = model_->ServingPowerMw(kind, bytes);
      memo.bytes = bytes.count();
    }
    return memo;
  }
  ServiceMemo service_memo_[3];

  // Accounting mode.
  Tick accounted_until_ = 0;
  EnergyBucket bucket_ = EnergyBucket::kActiveIdleThreshold;
  MilliwattPower power_mw_;
  Tick* time_slot_;

  EnergyBreakdown energy_;
  ChipStats stats_;

  ChipAuditSink* audit_sink_ = nullptr;
  Tick audit_transition_start_ = 0;

  // Closes the open residency interval at `now` (no-op when detached or
  // zero-length; zero-length intervals carry no time and would only bloat
  // the trace).
  void ObsCloseResidency(Tick now);

  EventTracer* obs_tracer_ = nullptr;
  Tick obs_interval_start_ = 0;
};

}  // namespace dmasim

#endif  // DMASIM_MEM_MEMORY_CHIP_H_
