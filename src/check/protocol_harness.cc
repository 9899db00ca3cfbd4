#include "check/protocol_harness.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "util/check.h"

namespace dmasim::check {

namespace {

std::unique_ptr<ChipPowerModel> MakeActingModel(const CheckerConfig& config) {
  if (config.chip_model == ChipModelKind::kDdr4) {
    Ddr4Options options;
    if (config.fault == CheckFault::kResyncSkip) {
      // DDR4 flavor of the PR 3 regression: self-refresh exits skip the
      // tXS resync while the reference oracle demands it.
      options.self_refresh_exit = 0;
    }
    return std::make_unique<Ddr4ChipModel>(options);
  }
  PowerModel params;  // Pristine Table 1 defaults.
  if (config.fault == CheckFault::kResyncSkip) {
    // The PR 3 regression: wakes from nap skip the 60 ns resync.
    params.from_nap.duration = Ticks(0);
  }
  return MakeChipPowerModel(config.chip_model, params);
}

std::unique_ptr<ChipPowerModel> MakeReferenceModel(
    const CheckerConfig& config) {
  return MakeChipPowerModel(config.chip_model, PowerModel{});
}

TemporalAlignmentConfig MakeTaConfig(const CheckerConfig& config) {
  TemporalAlignmentConfig ta;
  ta.enabled = true;
  ta.mu = config.mu;
  ta.epoch_length = config.epoch_length;
  ta.gather_depth_factor = config.gather_depth_factor;
  ta.min_gating_budget = config.min_gating_budget;
  ta.slack_cap_requests = config.slack_cap_requests;
  return ta;
}

std::unique_ptr<LowPowerPolicy> MakePolicy(const CheckerConfig& config) {
  if (config.chip_model == ChipModelKind::kDdr4) {
    // The DDR4 cascade has no nap/powerdown for the static policies to
    // target; its exploration walks the model's own chain.
    DMASIM_CHECK_MSG(config.policy == CheckPolicy::kDynamicThreshold,
                     "ddr4 exploration requires the dynamic-threshold policy");
    return std::make_unique<ModelChainPolicy>(config.chip_model, PowerModel{},
                                              DynamicThresholdConfig{});
  }
  switch (config.policy) {
    case CheckPolicy::kDynamicThreshold:
      return std::make_unique<DynamicThresholdPolicy>();
    case CheckPolicy::kStaticNap:
      return std::make_unique<StaticPolicy>(PowerState::kNap);
    case CheckPolicy::kStaticPowerdown:
      return std::make_unique<StaticPolicy>(PowerState::kPowerdown);
  }
  DMASIM_CHECK_MSG(false, "invalid check policy");
}

std::string Sprintf(const char* format, auto... args) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), format, args...);
  return std::string(buffer);
}

}  // namespace

ProtocolHarness::ProtocolHarness(const CheckerConfig& config)
    : config_(config),
      acting_model_(MakeActingModel(config)),
      reference_model_(MakeReferenceModel(config)),
      policy_(MakePolicy(config)),
      aligner_(MakeTaConfig(config), config.chips, config.buses, config.k,
               config.t_request),
      auditor_(InvariantAuditor::Mode::kCollect),
      power_auditor_(reference_model_.get(), config.chips) {
  DMASIM_EXPECTS(config.chips >= 1 && config.chips <= kMaxCheckChips);
  DMASIM_EXPECTS(config.buses >= 1 && config.buses <= kMaxCheckBuses);
  DMASIM_EXPECTS(config.k >= 1);
  DMASIM_EXPECTS(config.max_arrivals >= 1 &&
                 config.max_arrivals <= kMaxCheckArrivals);
  DMASIM_EXPECTS(config.max_cpu_accesses >= 0);
  DMASIM_EXPECTS(config.max_epochs >= 0);
  DMASIM_EXPECTS(config.max_depth >= 1);
  DMASIM_EXPECTS(config.transfer_requests >= 1);
  DMASIM_EXPECTS(config.cpu_access_bytes > 0);

  const PowerState resting = PowerFsm::RestingState(*policy_);
  fsms_.assign(static_cast<std::size_t>(config.chips), PowerFsm(resting));
  for (int chip = 0; chip < config.chips; ++chip) {
    power_auditor_.Seed(chip, resting);
  }

  next_epoch_ = config.epoch_length;
  transfers_.resize(static_cast<std::size_t>(config.max_arrivals));
  ledger_.resize(static_cast<std::size_t>(config.max_arrivals));

  // Sound overdraft floor: slack only ever decreases through a bounded
  // number of bounded debits. Epoch debits: at most max_epochs, each at
  // most P * epoch_length with P = max_arrivals pending. Activation
  // debits: one per release, at most one release per gated transfer,
  // each at most P * (deepest wake). CPU-service debits: at most
  // max_cpu_accesses, each at most P * t_cpu. Anything below this floor
  // means a debit outside the protocol's accounting.
  Tick wake_max = 0;
  for (int i = 1; i < acting_model_->StateCount(); ++i) {
    wake_max = std::max(
        wake_max, acting_model_
                      ->TransitionBetween(acting_model_->State(i),
                                          PowerState::kActive)
                      .duration.value());
  }
  const Tick t_cpu =
      acting_model_->ServiceTime(ByteCount(config.cpu_access_bytes)).value();
  const double pending = static_cast<double>(config.max_arrivals);
  slack_floor_ =
      -(static_cast<double>(config.max_epochs) * pending *
            static_cast<double>(config.epoch_length) +
        pending * pending * static_cast<double>(wake_max) +
        static_cast<double>(config.max_cpu_accesses) * pending *
            static_cast<double>(t_cpu));

  RegisterInvariants();
}

void ProtocolHarness::RegisterInvariants() {
  const unsigned always = AuditPhase::kPeriodic | AuditPhase::kEndOfRun;
  auditor_.Register("check.conservation", always, [this](std::string* m) {
    return CheckConservation(m);
  });
  auditor_.Register("check.lockstep", always, [this](std::string* m) {
    return CheckLockstep(m);
  });
  auditor_.Register("check.slack-overdraft", always, [this](std::string* m) {
    return CheckSlackOverdraft(m);
  });
  auditor_.Register("check.bounded-release-delay", always,
                    [this](std::string* m) {
                      return CheckBoundedReleaseDelay(m);
                    });
  auditor_.Register("check.full-drain", AuditPhase::kEndOfRun,
                    [this](std::string* m) { return CheckFullDrain(m); });
}

bool ProtocolHarness::IsEnabled(const Action& action) const {
  if (action.bus < 0 || action.chip < 0) return false;
  switch (action.kind) {
    case ActionKind::kArrive:
      return arrivals_done_ < config_.max_arrivals &&
             action.bus < config_.buses && action.chip < config_.chips;
    case ActionKind::kCpuAccess:
      return cpu_done_ < config_.max_cpu_accesses &&
             action.chip < config_.chips;
    case ActionKind::kStepDown:
      return action.chip < config_.chips &&
             policy_->NextStep(fsms_[static_cast<std::size_t>(action.chip)]
                                   .state())
                 .has_value();
    case ActionKind::kAdvance:
      return NextAdvanceTarget() > now_;
  }
  return false;
}

void ProtocolHarness::EnabledActions(std::vector<Action>* out) const {
  out->clear();
  for (int bus = 0; bus < config_.buses; ++bus) {
    for (int chip = 0; chip < config_.chips; ++chip) {
      const Action action{ActionKind::kArrive, bus, chip};
      if (IsEnabled(action)) out->push_back(action);
    }
  }
  for (int chip = 0; chip < config_.chips; ++chip) {
    const Action action{ActionKind::kCpuAccess, 0, chip};
    if (IsEnabled(action)) out->push_back(action);
  }
  for (int chip = 0; chip < config_.chips; ++chip) {
    const Action action{ActionKind::kStepDown, 0, chip};
    if (IsEnabled(action)) out->push_back(action);
  }
  const Action advance{ActionKind::kAdvance, 0, 0};
  if (IsEnabled(advance)) out->push_back(advance);
}

bool ProtocolHarness::Apply(const Action& action) {
  DMASIM_CHECK(!violation_.has_value());
  DMASIM_CHECK(IsEnabled(action));
  switch (action.kind) {
    case ActionKind::kArrive:
      DoArrive(action.bus, action.chip);
      break;
    case ActionKind::kCpuAccess:
      DoCpuAccess(action.chip);
      break;
    case ActionKind::kStepDown:
      DoStepDown(action.chip);
      break;
    case ActionKind::kAdvance:
      DoAdvance();
      break;
  }
  auditor_.RunPhase(AuditPhase::kPeriodic);
  CollectFailures();
  return !violation_.has_value();
}

void ProtocolHarness::DoArrive(int bus, int chip) {
  const std::size_t slot = static_cast<std::size_t>(arrivals_done_);
  DmaTransfer* transfer = &transfers_[slot];
  transfer->Reset();
  transfer->id = static_cast<std::uint64_t>(arrivals_done_) + 1;
  transfer->bus_id = bus;
  transfer->chip_index = chip;
  transfer->chunk_bytes = 8;
  transfer->total_bytes = config_.transfer_requests * transfer->chunk_bytes;
  transfer->start_time = now_;
  // The bus has issued the transfer's first DMA-memory request; that is
  // the request DMA-TA may buffer (and the state the audited Gate
  // lockstep assertions demand).
  transfer->issued_bytes = transfer->chunk_bytes;
  ledger_[slot] = RequestRecord{chip, bus, now_, false, -1, false};
  ++arrivals_done_;

  aligner_.slack().CreditArrival();
  PowerFsm& fsm = fsms_[static_cast<std::size_t>(chip)];
  if (fsm.InLowPowerForGating() &&
      aligner_.WorthGating(*transfer, transfer->chunk_bytes)) {
    ledger_[slot].gated_ever = true;
    const TemporalAligner::GateResult result =
        aligner_.Gate(chip, transfer, transfer->chunk_bytes, now_);
    // No release now: the controller schedules a re-check at
    // result.deadline, which DoAdvance reconstructs from the gated list.
    if (result.release_now) Release(chip);
  } else {
    if (fsm.state() != PowerState::kActive) WakeChip(chip);
    ServeTransfer(transfer);
  }
}

void ProtocolHarness::DoCpuAccess(int chip) {
  const Ticks service =
      acting_model_->ServiceTime(ByteCount(config_.cpu_access_bytes));
  aligner_.OnCpuAccess(chip, service);
  if (aligner_.HasGated(chip)) {
    // The controller's kCpuPriority path: the access is going to wake the
    // chip anyway, so the gated requests ride the same activation.
    Release(chip);
  } else if (fsms_[static_cast<std::size_t>(chip)].state() !=
             PowerState::kActive) {
    WakeChip(chip);
  }
  ++cpu_done_;
}

void ProtocolHarness::DoStepDown(int chip) {
  PowerFsm& fsm = fsms_[static_cast<std::size_t>(chip)];
  const auto step = policy_->NextStep(fsm.state());
  DMASIM_CHECK(step.has_value());
  const PowerState from = fsm.state();
  const Transition& down = fsm.BeginStepDown(step->target, *acting_model_);
  const Tick start = now_;
  const Tick end = now_ + down.duration.value();
  fsm.CompleteTransition();
  const std::string error =
      power_auditor_.Validate(chip, from, step->target, /*up=*/false, start,
                              end);
  if (!error.empty()) ReportFailure("check.power-state-legality", error);
}

void ProtocolHarness::DoAdvance() {
  const Tick target = NextAdvanceTarget();
  DMASIM_CHECK(target > now_);
  now_ = target;

  if (epochs_done_ < config_.max_epochs && now_ == next_epoch_) {
    const std::vector<int> to_release = aligner_.OnEpoch(now_);
    ++epochs_done_;
    next_epoch_ += config_.epoch_length;
    for (const int chip : to_release) {
      if (aligner_.HasGated(chip)) Release(chip);
    }
  }

  // Deadline re-checks: every Gate schedules one at its deadline; the
  // ones firing at `now_` re-evaluate ShouldRelease (any cause may hold
  // by now -- a CPU access may have drained the slack since).
  for (int chip = 0; chip < config_.chips; ++chip) {
    if (!aligner_.HasGated(chip)) continue;
    bool due = false;
    for (const GatedRequest& request : aligner_.GatedFor(chip)) {
      if (request.deadline <= now_) {
        due = true;
        break;
      }
    }
    if (!due) continue;
    if (!aligner_.ShouldRelease(chip, now_)) continue;
    if (config_.fault == CheckFault::kStuckDeadline &&
        aligner_.last_release_cause() == ReleaseCause::kDeadline) {
      continue;  // Seeded fault: the re-check forgets deadline releases.
    }
    Release(chip);
  }
}

void ProtocolHarness::Release(int chip) {
  std::vector<GatedRequest> taken = aligner_.TakeGated(chip);
  DMASIM_CHECK(!taken.empty());
  PowerFsm& fsm = fsms_[static_cast<std::size_t>(chip)];
  if (fsm.state() != PowerState::kActive) {
    // Controller ordering: the activation debit reads the chip's
    // still-low power state, *then* the wake begins.
    const Transition& up =
        acting_model_->TransitionBetween(fsm.state(), PowerState::kActive);
    aligner_.slack().DebitActivation(up.duration,
                                     static_cast<int>(taken.size()));
    WakeChip(chip);
  }
  if (config_.fault == CheckFault::kLostRelease) {
    // Seeded fault: the release forwards all but its last request, which
    // simply vanishes (stays marked gated in its descriptor but is no
    // longer buffered anywhere).
    taken.pop_back();
    ++lost_count_;
  }
  for (const GatedRequest& request : taken) {
    if (now_ > request.deadline) {
      ReportFailure(
          "check.deadline-honored",
          Sprintf("chip %d: transfer %llu released at %lld past its "
                  "deadline %lld (gated at %lld)",
                  chip, static_cast<unsigned long long>(request.transfer->id),
                  static_cast<long long>(now_),
                  static_cast<long long>(request.deadline),
                  static_cast<long long>(request.gated_at)));
    }
    ledger_[static_cast<std::size_t>(LedgerIndex(request.transfer))]
        .released_at = now_;
    ServeTransfer(request.transfer);
  }
}

void ProtocolHarness::ServeTransfer(DmaTransfer* transfer) {
  const int index = LedgerIndex(transfer);
  DMASIM_CHECK(index >= 0);
  transfer->blocked = false;
  transfer->gated_at = -1;
  transfer->issued_bytes = transfer->total_bytes;
  transfer->completed_bytes = transfer->total_bytes;
  RequestRecord& record = ledger_[static_cast<std::size_t>(index)];
  record.served = true;
  if (record.released_at < 0) record.released_at = now_;
  ++served_count_;
  // The transfer's remaining n-1 requests stream in strict lockstep once
  // the first is through; each credits the account on arrival, exactly
  // as the controller's per-chunk delivery does.
  for (std::int64_t i = 1; i < config_.transfer_requests; ++i) {
    aligner_.slack().CreditArrival();
  }
}

void ProtocolHarness::WakeChip(int chip) {
  PowerFsm& fsm = fsms_[static_cast<std::size_t>(chip)];
  const PowerState from = fsm.state();
  const Transition& up = fsm.BeginWake(*acting_model_);
  const Tick start = now_;
  const Tick end = now_ + up.duration.value();
  fsm.CompleteTransition();
  const std::string error = power_auditor_.Validate(
      chip, from, PowerState::kActive, /*up=*/true, start, end);
  if (!error.empty()) ReportFailure("check.power-state-legality", error);
}

Tick ProtocolHarness::NextAdvanceTarget() const {
  Tick target = -1;
  for (int chip = 0; chip < config_.chips; ++chip) {
    for (const GatedRequest& request : aligner_.GatedFor(chip)) {
      if (request.deadline > now_ &&
          (target < 0 || request.deadline < target)) {
        target = request.deadline;
      }
    }
  }
  if (epochs_done_ < config_.max_epochs &&
      (target < 0 || next_epoch_ < target)) {
    target = next_epoch_;
  }
  return target;
}

bool ProtocolHarness::Quiescent() const {
  return arrivals_done_ == config_.max_arrivals &&
         cpu_done_ == config_.max_cpu_accesses &&
         aligner_.TotalPending() == 0;
}

void ProtocolHarness::CheckTerminal() {
  if (violation_.has_value()) return;
  auditor_.RunPhase(AuditPhase::kEndOfRun);
  CollectFailures();
}

void ProtocolHarness::EncodeState(std::vector<std::uint64_t>* out) const {
  out->clear();
  out->push_back(static_cast<std::uint64_t>(arrivals_done_));
  out->push_back(static_cast<std::uint64_t>(cpu_done_));
  out->push_back(static_cast<std::uint64_t>(epochs_done_));
  out->push_back(static_cast<std::uint64_t>(served_count_));
  // All times relative to `now`: the aligner compares deadlines against
  // `now`, orders requests by gated_at, and debits durations -- none of
  // its decisions depend on absolute time, so shifted states are
  // behaviorally identical and must dedup.
  out->push_back(epochs_done_ < config_.max_epochs
                     ? static_cast<std::uint64_t>(next_epoch_ - now_)
                     : 0u);
  std::uint64_t slack_bits = 0;
  const double slack = aligner_.slack().slack();
  static_assert(sizeof(slack_bits) == sizeof(slack));
  std::memcpy(&slack_bits, &slack, sizeof(slack_bits));
  out->push_back(slack_bits);
  for (int chip = 0; chip < config_.chips; ++chip) {
    out->push_back(static_cast<std::uint64_t>(
        fsms_[static_cast<std::size_t>(chip)].state()));
    const std::vector<GatedRequest>& gated = aligner_.GatedFor(chip);
    out->push_back(gated.size());
    for (const GatedRequest& request : gated) {
      out->push_back(static_cast<std::uint64_t>(request.transfer->bus_id));
      out->push_back(static_cast<std::uint64_t>(now_ - request.gated_at));
      out->push_back(static_cast<std::uint64_t>(request.deadline - now_));
    }
  }
}

void ProtocolHarness::ReportFailure(const std::string& property,
                                    const std::string& message) {
  auditor_.ReportFailure(property, message);
}

void ProtocolHarness::CollectFailures() {
  const std::vector<AuditFailure>& failures = auditor_.failures();
  if (!violation_.has_value() && failures.size() > consumed_failures_) {
    violation_ = Violation{failures[consumed_failures_].invariant,
                           failures[consumed_failures_].message};
  }
  consumed_failures_ = failures.size();
}

int ProtocolHarness::LedgerIndex(const DmaTransfer* transfer) const {
  const DmaTransfer* base = transfers_.data();
  if (transfer < base || transfer >= base + arrivals_done_) return -1;
  return static_cast<int>(transfer - base);
}

bool ProtocolHarness::CheckConservation(std::string* message) const {
  std::vector<int> gated_count(static_cast<std::size_t>(arrivals_done_), 0);
  int total_gated = 0;
  for (int chip = 0; chip < config_.chips; ++chip) {
    for (const GatedRequest& request : aligner_.GatedFor(chip)) {
      const int index = LedgerIndex(request.transfer);
      if (index < 0) {
        *message = Sprintf("chip %d holds a gated request for an unknown "
                           "transfer",
                           chip);
        return false;
      }
      if (ledger_[static_cast<std::size_t>(index)].chip != chip) {
        *message = Sprintf("transfer %d targets chip %d but is gated under "
                           "chip %d",
                           index + 1,
                           ledger_[static_cast<std::size_t>(index)].chip,
                           chip);
        return false;
      }
      ++gated_count[static_cast<std::size_t>(index)];
      ++total_gated;
    }
  }
  for (int i = 0; i < arrivals_done_; ++i) {
    const RequestRecord& record = ledger_[static_cast<std::size_t>(i)];
    const int gated = gated_count[static_cast<std::size_t>(i)];
    if (record.served && gated != 0) {
      *message = Sprintf("transfer %d duplicated: served and still gated "
                         "%d time(s)",
                         i + 1, gated);
      return false;
    }
    if (!record.served && gated == 0) {
      *message = Sprintf("transfer %d lost: neither gated nor served", i + 1);
      return false;
    }
    if (gated > 1) {
      *message = Sprintf("transfer %d gated %d times", i + 1, gated);
      return false;
    }
  }
  if (total_gated != aligner_.TotalPending()) {
    *message = Sprintf("aligner pending count %d disagrees with its gated "
                       "lists (%d)",
                       aligner_.TotalPending(), total_gated);
    return false;
  }
  return true;
}

bool ProtocolHarness::CheckLockstep(std::string* message) const {
  for (int i = 0; i < arrivals_done_; ++i) {
    const DmaTransfer& transfer = transfers_[static_cast<std::size_t>(i)];
    const RequestRecord& record = ledger_[static_cast<std::size_t>(i)];
    if (record.served) {
      if (transfer.blocked || !transfer.Complete() ||
          transfer.issued_bytes != transfer.total_bytes) {
        *message = Sprintf("transfer %d broke lockstep after release: "
                           "blocked=%d issued=%lld completed=%lld of %lld",
                           i + 1, transfer.blocked ? 1 : 0,
                           static_cast<long long>(transfer.issued_bytes),
                           static_cast<long long>(transfer.completed_bytes),
                           static_cast<long long>(transfer.total_bytes));
        return false;
      }
    } else {
      // While gated, only the transfer's first request may exist.
      if (!transfer.blocked || transfer.issued_bytes != transfer.chunk_bytes ||
          transfer.completed_bytes != 0) {
        *message = Sprintf("gated transfer %d broke lockstep: blocked=%d "
                           "issued=%lld completed=%lld",
                           i + 1, transfer.blocked ? 1 : 0,
                           static_cast<long long>(transfer.issued_bytes),
                           static_cast<long long>(transfer.completed_bytes));
        return false;
      }
    }
  }
  return true;
}

bool ProtocolHarness::CheckSlackOverdraft(std::string* message) const {
  const double slack = aligner_.slack().slack();
  if (slack < slack_floor_) {
    *message = Sprintf("slack %.1f below the provable overdraft floor %.1f",
                       slack, slack_floor_);
    return false;
  }
  return true;
}

bool ProtocolHarness::CheckBoundedReleaseDelay(std::string* message) const {
  for (int chip = 0; chip < config_.chips; ++chip) {
    for (const GatedRequest& request : aligner_.GatedFor(chip)) {
      if (request.deadline < now_) {
        *message = Sprintf(
            "chip %d: transfer %llu still gated at %lld, past its deadline "
            "%lld (gated at %lld) -- delay budget exceeded",
            chip, static_cast<unsigned long long>(request.transfer->id),
            static_cast<long long>(now_),
            static_cast<long long>(request.deadline),
            static_cast<long long>(request.gated_at));
        return false;
      }
    }
  }
  return true;
}

bool ProtocolHarness::CheckFullDrain(std::string* message) const {
  if (aligner_.TotalPending() != 0) {
    *message = Sprintf("terminal state still buffers %d gated request(s)",
                       aligner_.TotalPending());
    return false;
  }
  for (int i = 0; i < arrivals_done_; ++i) {
    if (!ledger_[static_cast<std::size_t>(i)].served) {
      *message = Sprintf("transfer %d never served", i + 1);
      return false;
    }
  }
  // Credit conservation: every arrival credited once at delivery, and
  // each served transfer's remaining n-1 requests credited at release.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(arrivals_done_) +
      static_cast<std::uint64_t>(served_count_) *
          static_cast<std::uint64_t>(config_.transfer_requests - 1);
  if (aligner_.slack().arrivals() != expected) {
    *message = Sprintf("slack account saw %llu arrivals, protocol implies "
                       "%llu",
                       static_cast<unsigned long long>(
                           aligner_.slack().arrivals()),
                       static_cast<unsigned long long>(expected));
    return false;
  }
  return true;
}

}  // namespace dmasim::check
