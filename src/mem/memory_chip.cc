#include "mem/memory_chip.h"

#include <utility>


namespace dmasim {

MemoryChip::MemoryChip(Simulator* simulator, const ChipPowerModel* model,
                       const LowPowerPolicy* policy, int id)
    : simulator_(simulator),
      model_(model),
      policy_(policy),
      id_(id),
      fsm_(RestingState(*policy)),
      accounted_until_(simulator->Now()),
      power_mw_(model->StatePowerMw(fsm_.state())) {
  if (fsm_.state() == PowerState::kActive) {
    bucket_ = EnergyBucket::kActiveIdleThreshold;
    time_slot_ = &stats_.active_idle_threshold;
    ArmPolicyTimer(simulator_->Now());
  } else {
    bucket_ = EnergyBucket::kLowPower;
    time_slot_ = &stats_.low_power[static_cast<int>(fsm_.state())];
    ArmPolicyTimer(simulator_->Now());
  }
}

PowerState MemoryChip::RestingState(const LowPowerPolicy& policy) {
  return PowerFsm::RestingState(policy);
}

void MemoryChip::SetAccounting(EnergyBucket bucket, MilliwattPower power_mw,
                               Tick* time_slot) {
  AccountTo(simulator_->Now());
  bucket_ = bucket;
  power_mw_ = power_mw;
  time_slot_ = time_slot;
}

void MemoryChip::SyncAccounting() {
  SetAccounting(bucket_, power_mw_, time_slot_);
}

void MemoryChip::Enqueue(ChipRequest request) {
  DMASIM_EXPECTS(request.bytes.count() > 0);
  // Invalidate any pending idle timer: the chip is no longer idle.
  ++timer_generation_;
  if (!serving_ && !fsm_.transitioning() &&
      fsm_.state() == PowerState::kActive && !HasQueuedRequest()) {
    // Idle active chip, empty queues: StartNextService would pop back
    // this very request, so serve it directly without the deque
    // round-trip. This is the common case on an uncontended chip.
    ServeRequest(std::move(request), /*retire_inline=*/false);
    return;
  }
  switch (request.kind) {
    case RequestKind::kCpu:
      cpu_queue_.push_back(std::move(request));
      break;
    case RequestKind::kDma:
      dma_queue_.push_back(std::move(request));
      break;
    case RequestKind::kMigration:
      migration_queue_.push_back(std::move(request));
      break;
  }
  ++queued_;
  if (serving_ || fsm_.transitioning()) return;  // Picked up on completion.
  if (fsm_.state() == PowerState::kActive) {
    StartNextService(/*retire_inline=*/false);
  } else {
    StartWake();
  }
}

void MemoryChip::BeginTransfer() {
  ++in_flight_transfers_;
  if (!serving_ && !fsm_.transitioning() &&
      fsm_.state() == PowerState::kActive && in_flight_transfers_ == 1) {
    // Re-attribute idle-active time. The idle-threshold timer is disarmed:
    // in the real 8-byte-request system, gaps within an in-flight transfer
    // (12 memory cycles) are always below the step-down threshold, so the
    // policy never fires mid-transfer. Encoding that invariant directly
    // keeps the model independent of the configured chunk granularity.
    ++timer_generation_;
    SetAccounting(EnergyBucket::kActiveIdleDma,
                  model_->StatePowerMw(PowerState::kActive),
                  &stats_.active_idle_dma);
  }
}

void MemoryChip::EndTransfer() {
  DMASIM_EXPECTS(in_flight_transfers_ > 0);
  --in_flight_transfers_;
  if (!serving_ && !fsm_.transitioning() &&
      fsm_.state() == PowerState::kActive && in_flight_transfers_ == 0) {
    SetAccounting(EnergyBucket::kActiveIdleThreshold,
                  model_->StatePowerMw(PowerState::kActive),
                  &stats_.active_idle_threshold);
    ArmPolicyTimer(simulator_->Now());
  }
}

void MemoryChip::StartNextService(bool retire_inline) {
  DMASIM_CHECK(!serving_ && !fsm_.transitioning());
  DMASIM_CHECK_EQ(fsm_.state(), PowerState::kActive);
  DMASIM_CHECK(HasQueuedRequest());

  ServeRequest(PopNextRequest(), retire_inline);
}

ChipRequest MemoryChip::PopNextRequest() {
  --queued_;
  if (!cpu_queue_.empty()) return cpu_queue_.pop_front();
  if (!dma_queue_.empty()) return dma_queue_.pop_front();
  ChipRequest request = std::move(migration_queue_.front());
  migration_queue_.pop_front();
  return request;
}

void MemoryChip::ServeRequest(ChipRequest&& request, bool retire_inline) {
  serving_ = true;
  AccountTo(simulator_->Now());
  SwitchToServingAccounting(request.kind, request.bytes);

  // Inline retirement of callback-free requests (CPU accesses, migration
  // copies). A request with no completion callback whose service ends
  // strictly before the next pending event has a ServeDone that can only
  // bump stats and, at the same tick, start the next queued service or,
  // with nothing queued, leave the chip idle and arm the policy timer:
  // nothing else can run, observe, or enqueue in between. Retiring the
  // whole chain here, its last request included, folds N back-to-back
  // services into one scheduled event or none while producing identical
  // energy accounting, stats, and (time, seq) ordering for every
  // surviving event.
  //
  // The horizon is only a horizon if nothing runs after this call within
  // the current event: a completion callback that runs later (ServeDone)
  // or an Enqueue caller can schedule work earlier than the sampled
  // NextPendingTick() and find this chip's queue already retired. So the
  // caller grants `retire_inline` only where serving is the last thing
  // its event does. Nor can it pass the bound of a sharded window: the
  // barrier may deliver a request there that no pending event announces,
  // so the horizon is QuietUntil(), not NextPendingTick().
  Tick issue = simulator_->Now();
  if (retire_inline && !request.on_complete) {
    const Tick horizon = simulator_->QuietUntil();
    std::uint64_t batched = 0;
    for (;;) {
      const Tick completion =
          issue + ServiceTime(request.kind, request.bytes).value();
      if (completion >= horizon) break;
      AccountTo(completion);
      CountServed(request);
      if (!HasQueuedRequest()) {
        // The chain's end: play its ServeDone at the completion tick. The
        // policy timer draws the sequence number that ServeDone would
        // have drawn, which orders it after every pending event and
        // before anything scheduled later, as the popped ServeDone's
        // timer would be.
        serving_ = false;
        if (batched > 0) simulator_->CreditExecuted(batched);
        simulator_->CreditRetiredEvent(completion);
        BecomeIdleActive(completion);
        return;
      }
      ++batched;
      issue = completion;
      request = PopNextRequest();
      SwitchToServingAccounting(request.kind, request.bytes);
      if (request.on_complete) break;
    }
    // Keep the logical event count identical to the unbatched kernel.
    if (batched > 0) simulator_->CreditExecuted(batched);
  }

  const Tick service = ServiceTime(request.kind, request.bytes).value();
  active_request_ = std::move(request);
  ScheduleServeDoneAt(issue + service);
}

void MemoryChip::ScheduleServeDoneAt(Tick when) {
  serve_when_ = when;
  serve_sequence_ = simulator_->ScheduleAt(when, [this]() { ServeDone(); });
}

void MemoryChip::CountServed(const ChipRequest& request) {
  switch (request.kind) {
    case RequestKind::kDma:
      ++stats_.dma_requests;
      break;
    case RequestKind::kCpu:
      ++stats_.cpu_requests;
      break;
    case RequestKind::kMigration:
      ++stats_.migration_requests;
      stats_.migration_bytes +=
          static_cast<std::uint64_t>(request.bytes.count());
      break;
  }
}

void MemoryChip::ServeDone() {
  if (simulator_->CurrentSequence() != serve_sequence_) {
    // Taken over: the coalesced run that replayed it counted it.
    simulator_->UncountExecuted();
    return;
  }
  DMASIM_CHECK(serving_);
  serving_ = false;
  // Move the request out first: completing may start the next service,
  // which overwrites the active-request slot.
  ChipRequest request = std::move(active_request_);
  CountServed(request);

  if (HasQueuedRequest()) {
    // The callback below runs after the next service starts, so the next
    // service may retire inline only if there is no callback.
    StartNextService(/*retire_inline=*/!request.on_complete);
  } else {
    BecomeIdleActive(simulator_->Now());
  }
  // Run the completion callback last so that anything it enqueues sees a
  // settled chip state.
  if (request.on_complete) request.on_complete(simulator_->Now());
}

void MemoryChip::ClearDmaRequests() {
  DMASIM_CHECK(CanHostDmaRun());
  while (!dma_queue_.empty()) {
    dma_queue_.pop_front();
    --queued_;
  }
  DMASIM_CHECK_EQ(queued_, 0u);
  active_request_ = ChipRequest{};
  serving_ = false;
}

void MemoryChip::InstallDmaRequest(ChipRequest request, bool in_service) {
  DMASIM_EXPECTS(request.kind == RequestKind::kDma);
  if (in_service) {
    DMASIM_CHECK(!serving_);
    serving_ = true;
    active_request_ = std::move(request);
    return;
  }
  DMASIM_CHECK(serving_);
  dma_queue_.push_back(std::move(request));
  ++queued_;
}

void MemoryChip::ObsCloseResidency(Tick now) {
  if (obs_tracer_ == nullptr) return;
  if (now > obs_interval_start_) {
    obs_tracer_->PowerResidency(id_, static_cast<int>(fsm_.state()),
                                obs_interval_start_, now);
  }
  obs_interval_start_ = now;
}

void MemoryChip::FlushObsResidency() {
  if (obs_tracer_ == nullptr) return;
  const Tick now = accounted_until_;
  if (now > obs_interval_start_) {
    if (fsm_.transitioning()) {
      // Mid-transition at flush time: emit the partial transition so the
      // trace's interval totals still cover every accounted tick.
      obs_tracer_->PowerTransition(id_, static_cast<int>(fsm_.state()),
                                   static_cast<int>(fsm_.transition_target()),
                                   fsm_.transition_up(), obs_interval_start_,
                                   now);
    } else {
      obs_tracer_->PowerResidency(id_, static_cast<int>(fsm_.state()),
                                  obs_interval_start_, now);
    }
  }
  obs_interval_start_ = now;
}

void MemoryChip::BecomeIdleActive(Tick when) {
  DMASIM_CHECK(!serving_ && !fsm_.transitioning());
  DMASIM_CHECK_EQ(fsm_.state(), PowerState::kActive);
  AccountTo(when);
  if (in_flight_transfers_ > 0) {
    bucket_ = EnergyBucket::kActiveIdleDma;
    time_slot_ = &stats_.active_idle_dma;
  } else {
    bucket_ = EnergyBucket::kActiveIdleThreshold;
    time_slot_ = &stats_.active_idle_threshold;
  }
  power_mw_ = model_->StatePowerMw(PowerState::kActive);
  ArmPolicyTimer(when);
}

void MemoryChip::ArmPolicyTimer(Tick idle_since) {
  // See BeginTransfer: no step-down while a DMA transfer is in flight.
  if (fsm_.state() == PowerState::kActive && in_flight_transfers_ > 0) return;
  const auto step = policy_->NextStep(fsm_.state());
  if (!step.has_value()) return;
  const std::uint64_t generation = ++timer_generation_;
  const PowerState expected_state = fsm_.state();
  const PowerState target = step->target;
  simulator_->ScheduleAt(idle_since + step->after_idle.value(),
                         [this, generation, expected_state, target]() {
    if (timer_generation_ != generation) return;  // Timer was cancelled.
    if (serving_ || fsm_.transitioning() || HasQueuedRequest()) return;
    if (fsm_.state() != expected_state) return;
    StartStepDown(target);
  });
}

bool MemoryChip::TryStepDown(int depth) {
  DMASIM_EXPECTS(depth >= 1);
  if (serving_ || fsm_.transitioning() || HasQueuedRequest()) return false;
  if (in_flight_transfers_ > 0) return false;
  const auto step = policy_->NextStep(fsm_.state());
  if (!step.has_value()) return false;
  // Follow the policy's step chain `depth` states down (clamped at the
  // chain's end) and make the whole descent one transition. A deeper
  // single transition is legal — the FSM and the power-state auditor
  // only require a strictly lower target with that target's down
  // transition time — and cheaper than stepping through the
  // intermediate states one aggregation interval apart.
  PowerState target = step->target;
  for (int i = 1; i < depth; ++i) {
    const auto deeper = policy_->NextStep(target);
    if (!deeper.has_value()) break;
    target = deeper->target;
  }
  // Invalidate the armed idle timer: its threshold step would otherwise
  // fire mid-transition (harmless — it re-checks state — but the
  // generation bump keeps the cancellation explicit).
  ++timer_generation_;
  StartStepDown(target);
  return true;
}

void MemoryChip::StartWake() {
  DMASIM_CHECK(!serving_);
  const Transition& transition = fsm_.BeginWake(*model_);
  audit_transition_start_ = simulator_->Now();
  ObsCloseResidency(simulator_->Now());
  SetAccounting(EnergyBucket::kTransition, transition.power_mw,
                &stats_.transition);
  simulator_->ScheduleAfter(transition.duration, [this]() { TransitionDone(); });
}

void MemoryChip::StartStepDown(PowerState target) {
  DMASIM_CHECK(!serving_);
  const Transition& transition = fsm_.BeginStepDown(target, *model_);
  audit_transition_start_ = simulator_->Now();
  ObsCloseResidency(simulator_->Now());
  SetAccounting(EnergyBucket::kTransition, transition.power_mw,
                &stats_.transition);
  simulator_->ScheduleAfter(transition.duration, [this]() { TransitionDone(); });
}

void MemoryChip::TransitionDone() {
  DMASIM_CHECK(fsm_.transitioning());
  if (audit_sink_ != nullptr) {
    audit_sink_->OnPowerTransition(id_, fsm_.state(), fsm_.transition_target(),
                                   fsm_.transition_up(),
                                   audit_transition_start_, simulator_->Now());
  }
  if (obs_tracer_ != nullptr) {
    obs_tracer_->PowerTransition(id_, static_cast<int>(fsm_.state()),
                                 static_cast<int>(fsm_.transition_target()),
                                 fsm_.transition_up(), obs_interval_start_,
                                 simulator_->Now());
    obs_interval_start_ = simulator_->Now();
  }
  const bool woke = fsm_.CompleteTransition();

  if (woke) {
    ++stats_.wakeups;
    DMASIM_CHECK_EQ(fsm_.state(), PowerState::kActive);
    if (HasQueuedRequest()) {
      StartNextService(/*retire_inline=*/true);
    } else {
      BecomeIdleActive(simulator_->Now());
    }
    return;
  }

  ++stats_.step_downs;
  if (HasQueuedRequest()) {
    // A request arrived while stepping down: wake immediately.
    StartWake();
    return;
  }
  SetAccounting(EnergyBucket::kLowPower, model_->StatePowerMw(fsm_.state()),
                &stats_.low_power[static_cast<int>(fsm_.state())]);
  ArmPolicyTimer(simulator_->Now());
}

}  // namespace dmasim
