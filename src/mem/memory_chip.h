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

  // --- Chunk-run coalescing support (see MemoryController) ---------------

  // True when the chip's near future is fully determined by the single
  // in-flight DMA transfer: active, idle, nothing queued, no competing
  // transfer. Under these conditions the controller may serve a run of
  // chunks in one event and replay the chip-side accounting afterwards.
  bool CanCoalesceDmaRun() const {
    return !serving_ && !fsm_.transitioning() &&
           fsm_.state() == PowerState::kActive && in_flight_transfers_ == 1 &&
           !HasQueuedRequest();
  }

  // Replays one full DMA chunk cycle that happened in the past: idle-DMA
  // time up to `issue`, serving time in [issue, completion), back to
  // idle-DMA at `completion`. Integrates exactly the energy terms the
  // per-chunk execution would have, in the same order. `bytes` is the
  // chunk size (activation-aware models price serving power by burst).
  void AccountCoalescedCycle(Tick issue, Tick completion, ByteCount bytes);

  // Reconstructs the chip mid-service: the chunk was issued at `issue`
  // (in the past) and its ServeDone is rescheduled as a real event.
  void ResumeCoalescedService(Tick issue, ChipRequest request);

  PowerState power_state() const { return fsm_.state(); }
  bool serving() const { return serving_; }
  bool transitioning() const { return fsm_.transitioning(); }
  int in_flight_transfers() const { return in_flight_transfers_; }
  int id() const { return id_; }
  std::size_t QueuedRequests() const { return queued_; }

  // model().ServiceTime(bytes), remembered per request kind: the model's
  // is a pure function, so the memo is exact.
  Ticks ServiceTime(RequestKind kind, ByteCount bytes);

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
  // `retire_inline` allows ServeRequest to retire a chain of queued
  // callback-free requests without events; only callers whose event ends
  // right after the call may grant it (see ServeRequest).
  void StartNextService(bool retire_inline);
  ChipRequest PopNextRequest();
  void SwitchToServingAccounting(RequestKind kind, ByteCount bytes);
  void ServeRequest(ChipRequest&& request, bool retire_inline);
  // Bumps the served counters for a request whose service completed.
  void CountServed(const ChipRequest& request);
  void ServeDone();
  void BecomeIdleActive();
  void ArmPolicyTimer();
  void StartWake();
  void StartStepDown(PowerState target);
  void TransitionDone();
  bool HasQueuedRequest() const { return queued_ > 0; }

  // Integrates the current accounting mode up to `when` (>= the last
  // accounted time; may be in the simulated past during coalesced replay).
  void AccountTo(Tick when);
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

  // FIFO of chip requests on a power-of-two ring. It doubles when full and
  // keeps its capacity, so once warmed up it never allocates: the CPU and
  // DMA queues stay a few requests deep, and this spares the deque's node
  // allocation per eight queued requests. Only the live slots hold objects,
  // so growing moves the queued requests and nothing else.
  class RequestRing {
   public:
    RequestRing() = default;
    RequestRing(const RequestRing&) = delete;
    RequestRing& operator=(const RequestRing&) = delete;
    ~RequestRing() {
      while (size_ > 0) pop_front();
      Release();
    }

    bool empty() const { return size_ == 0; }

    void push_back(ChipRequest&& request) {
      if (size_ == capacity_) Grow();
      std::construct_at(slots_ + ((head_ + size_) & (capacity_ - 1)),
                        std::move(request));
      ++size_;
    }

    ChipRequest pop_front() {
      DMASIM_CHECK_GT(size_, 0u);
      ChipRequest* front = slots_ + head_;
      ChipRequest request = std::move(*front);
      std::destroy_at(front);
      head_ = (head_ + 1) & (capacity_ - 1);
      --size_;
      return request;
    }

   private:
    void Grow() {
      const std::size_t capacity = capacity_ == 0 ? 8 : 2 * capacity_;
      ChipRequest* grown = std::allocator<ChipRequest>().allocate(capacity);
      for (std::size_t i = 0; i < size_; ++i) {
        ChipRequest* from = slots_ + ((head_ + i) & (capacity_ - 1));
        std::construct_at(grown + i, std::move(*from));
        std::destroy_at(from);
      }
      Release();
      slots_ = grown;
      capacity_ = capacity;
      head_ = 0;
    }

    void Release() {
      if (slots_ != nullptr) {
        std::allocator<ChipRequest>().deallocate(slots_, capacity_);
      }
    }

    ChipRequest* slots_ = nullptr;
    std::size_t capacity_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  // CPU and DMA requests queue on rings. Migration copies arrive in
  // bursts (a moved page queues 16 chunk copies per chip) at layout
  // intervals, so their queue stays a deque, which returns its memory as
  // it drains where a ring would keep its deepest burst's capacity.
  RequestRing cpu_queue_;
  RequestRing dma_queue_;
  std::deque<ChipRequest> migration_queue_;
  std::size_t queued_ = 0;  // Requests in all three queues.

  // ServiceTime is a pure function of the byte count, and each kind comes
  // in one or two sizes (64 B CPU accesses, the chunk size), so the last
  // size priced per kind almost always hits. 0 bytes is never a request.
  struct ServiceMemo {
    std::int64_t bytes = 0;
    Tick ticks = 0;
  };
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
