// Deterministic stepping seam between the explorer and the *real*
// DMA-TA implementation.
//
// The harness instantiates the production TemporalAligner (which owns
// the production SlackAccount), one production PowerFsm per chip, and
// the production LowPowerPolicy implementations, then drives them with
// the exact decision sequence MemoryController uses:
//
//   arrival:    CreditArrival -> InLowPowerForGating? -> WorthGating? ->
//               Gate -> release now, or re-check at the returned deadline
//   CPU access: OnCpuAccess debit -> release gated (kCpuPriority) -> wake
//   release:    TakeGated -> DebitActivation while the chip is still in
//               its low-power state -> wake
//   epoch:      OnEpoch -> release the chips it names
//
// What it abstracts away is *time inside the chip*: transitions and
// request service complete atomically (their real durations are still
// recorded and judged by PowerStateAuditor against the pristine
// reference model), and step-down timing is a nondeterministic kStepDown
// choice instead of an idle-threshold timer -- so one exploration covers
// every timer phasing the real simulator could exhibit.
//
// Properties are evaluated through the src/audit registry: registered
// invariants run at kPeriodic (after every action) and kEndOfRun
// (at quiescence); transition-time checks go through ReportFailure.
// The first failure freezes the harness as a Violation.
#ifndef DMASIM_CHECK_PROTOCOL_HARNESS_H_
#define DMASIM_CHECK_PROTOCOL_HARNESS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/invariant_auditor.h"
#include "audit/power_state_auditor.h"
#include "check/action.h"
#include "check/check_config.h"
#include "core/temporal_aligner.h"
#include "io/dma_transfer.h"
#include "mem/chip_power_model.h"
#include "mem/power_fsm.h"
#include "mem/power_model.h"
#include "mem/power_policy.h"
#include "util/time.h"

namespace dmasim::check {

// First property failure observed; the harness rejects further actions
// once one is set.
struct Violation {
  std::string property;  // Invariant name, e.g. "check.power-state-legality".
  std::string message;
};

// Per-transfer conservation ledger entry (index = arrival order).
struct RequestRecord {
  int chip = 0;
  int bus = 0;
  Tick arrived_at = 0;
  bool gated_ever = false;
  Tick released_at = -1;  // -1 while gated or never gated.
  bool served = false;
};

class ProtocolHarness {
 public:
  explicit ProtocolHarness(const CheckerConfig& config);

  ProtocolHarness(const ProtocolHarness&) = delete;
  ProtocolHarness& operator=(const ProtocolHarness&) = delete;

  // Enumerates the enabled actions in a fixed deterministic order
  // (arrivals by (bus, chip), CPU accesses by chip, step-downs by chip,
  // then advance). Clears `out` first.
  void EnabledActions(std::vector<Action>* out) const;
  bool IsEnabled(const Action& action) const;

  // Applies one enabled action, then runs the kPeriodic property pass.
  // Returns false when a property failed (violation() is then set).
  // Requires IsEnabled(action) and no prior violation.
  bool Apply(const Action& action);

  // True when nothing protocol-relevant can happen anymore: all arrival
  // and CPU budgets spent and no request still gated. (Step-downs and
  // epoch crossings may remain enabled; they cannot affect any property
  // from a drained state, so the explorer prunes here.)
  bool Quiescent() const;

  // Runs the kEndOfRun property pass (full drain, credit conservation).
  void CheckTerminal();

  // Canonical state encoding for visited-set hashing. All times are
  // relative to `now` -- the aligner's decisions depend only on
  // deadline-vs-now differences, gating order, and the slack balance, so
  // two states equal under this encoding have identical futures.
  void EncodeState(std::vector<std::uint64_t>* out) const;

  const std::optional<Violation>& violation() const { return violation_; }

  // Introspection for tests and the CLI.
  Tick now() const { return now_; }
  const TemporalAligner& aligner() const { return aligner_; }
  const PowerFsm& fsm(int chip) const {
    return fsms_[static_cast<std::size_t>(chip)];
  }
  const RequestRecord& record(int index) const {
    return ledger_[static_cast<std::size_t>(index)];
  }
  int arrivals_done() const { return arrivals_done_; }
  int served_count() const { return served_count_; }
  const CheckerConfig& config() const { return config_; }
  const ChipPowerModel& acting_model() const { return *acting_model_; }
  std::uint64_t transitions_checked() const {
    return power_auditor_.transitions_checked();
  }

 private:
  void DoArrive(int bus, int chip);
  void DoCpuAccess(int chip);
  void DoStepDown(int chip);
  void DoAdvance();

  // Releases `chip`'s gated requests: TakeGated, DebitActivation while
  // the chip is still in its low-power state (the controller's ordering),
  // wake, then serve. Applies the kLostRelease fault here.
  void Release(int chip);
  void ServeTransfer(DmaTransfer* transfer);
  void WakeChip(int chip);

  // Earliest of (gated deadline strictly after now, next epoch boundary
  // if epochs remain); -1 when neither exists.
  Tick NextAdvanceTarget() const;

  // Records a transition-time or release-time property failure.
  void ReportFailure(const std::string& property, const std::string& message);
  // Latches new registry failures into violation_.
  void CollectFailures();
  void RegisterInvariants();

  bool CheckConservation(std::string* message) const;
  bool CheckLockstep(std::string* message) const;
  bool CheckSlackOverdraft(std::string* message) const;
  bool CheckBoundedReleaseDelay(std::string* message) const;
  bool CheckFullDrain(std::string* message) const;

  int LedgerIndex(const DmaTransfer* transfer) const;

  CheckerConfig config_;
  // Fault-injected instance driving the FSMs, and the pristine oracle
  // of the same ChipModelKind the auditor judges against.
  std::unique_ptr<ChipPowerModel> acting_model_;
  std::unique_ptr<ChipPowerModel> reference_model_;
  std::unique_ptr<LowPowerPolicy> policy_;

  TemporalAligner aligner_;
  std::vector<GatedRequest> released_;  // TakeGated's buffer.
  std::vector<PowerFsm> fsms_;

  InvariantAuditor auditor_;  // kCollect; registry of the properties.
  PowerStateAuditor power_auditor_;

  Tick now_ = 0;
  Tick next_epoch_ = 0;
  int arrivals_done_ = 0;
  int cpu_done_ = 0;
  int epochs_done_ = 0;
  int served_count_ = 0;
  int lost_count_ = 0;  // kLostRelease fault drops.
  double slack_floor_ = 0.0;

  std::vector<DmaTransfer> transfers_;  // Stable storage; never resized.
  std::vector<RequestRecord> ledger_;

  std::size_t consumed_failures_ = 0;
  std::optional<Violation> violation_;
};

}  // namespace dmasim::check

#endif  // DMASIM_CHECK_PROTOCOL_HARNESS_H_
