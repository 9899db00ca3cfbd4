// Wires the invariant auditor into a live simulation: attaches itself as
// every chip's ChipAuditSink, registers the standard dmasim invariants
// (catalogued in DESIGN.md), and at level 2 schedules periodic registry
// sweeps and validates each power-state transition the moment it
// completes.
//
// The driver builds one only when a run asks for audit_level >= 1; an
// unaudited run attaches no sink, so the chips' hooks stay a null test.
#ifndef DMASIM_AUDIT_SIMULATION_AUDIT_H_
#define DMASIM_AUDIT_SIMULATION_AUDIT_H_

#include <array>
#include <cstdint>
#include <vector>

#include "audit/chip_audit_sink.h"
#include "audit/invariant_auditor.h"
#include "audit/power_state_auditor.h"
#include "core/memory_controller.h"
#include "mem/memory_chip.h"
#include "sim/simulator.h"
#include "stats/energy.h"
#include "util/time.h"

namespace dmasim {

class SimulationAudit : public ChipAuditSink {
 public:
  struct Options {
    // 1 = end-of-run registry pass only, 2 = also periodic passes and
    // transition-time validation/abort.
    int level = 1;
    Tick period = kMillisecond;  // Cadence of level-2 periodic passes.
    InvariantAuditor::Mode mode = InvariantAuditor::Mode::kAbort;
    // Model the power-state legality invariant judges transitions
    // against; null means the controller's own configured model.
    const ChipPowerModel* reference_model = nullptr;
  };

  // Both `simulator` and `controller` must outlive the audit. The
  // constructor attaches chip sinks and, at level 2, schedules the first
  // periodic pass.
  SimulationAudit(Simulator* simulator, MemoryController* controller,
                  const Options& options);
  ~SimulationAudit() override;

  SimulationAudit(const SimulationAudit&) = delete;
  SimulationAudit& operator=(const SimulationAudit&) = delete;

  // Runs the end-of-run registry phase. Call once, after the trace (and
  // drain) completed.
  void Finish();

  InvariantAuditor& auditor() { return auditor_; }
  const InvariantAuditor& auditor() const { return auditor_; }
  std::uint64_t transition_violations() const { return transition_violations_; }

  // ChipAuditSink:
  void OnPowerTransition(int chip, PowerState from, PowerState to, bool up,
                         Tick start, Tick end) override;
  void OnEnergyAccounted(int chip, EnergyBucket bucket, JoulesEnergy joules,
                         Ticks duration) override;

 private:
  void RegisterStandardInvariants();
  void SchedulePeriodicPass();
  bool CheckEnergyConservation(std::string* message);

  Simulator* simulator_;
  MemoryController* controller_;
  Options options_;
  InvariantAuditor auditor_;
  PowerStateAuditor power_auditor_;

  // Shadow energy accumulated bucket-by-bucket in the same order as the
  // chips' own breakdowns (bit-identical by construction).
  std::vector<std::array<JoulesEnergy, kEnergyBucketCount>> shadow_energy_;
  // Chip state at attach time, so invariants judge only what happened on
  // this audit's watch.
  std::vector<ChipStats> base_stats_;
  std::vector<EnergyBreakdown> base_energy_;
  std::vector<Tick> base_accounted_;
  bool attached_at_zero_ = true;

  std::uint64_t transition_violations_ = 0;
  std::string first_transition_violation_;
};

}  // namespace dmasim

#endif  // DMASIM_AUDIT_SIMULATION_AUDIT_H_
