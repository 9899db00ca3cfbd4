// Declarative experiment sweeps.
//
// An `ExperimentSpec` names the axes of a design-space sweep — workload
// presets, management schemes, CP-Limits, low-level policies, hardware
// variants (chip/bus counts), TA knobs, and RNG seeds — and `ExpandGrid`
// takes their cross product into a flat list of fully-resolved
// `RunPlan`s. Expansion is pure and deterministic: run ids, cell ids,
// and every per-run seed depend only on the spec, never on execution
// order or thread count.
//
// Runs are grouped into *cells*: a cell is one (workload x policy x
// hardware x seed) combination, i.e. everything a baseline measurement
// must share with the runs compared against it. Expansion injects
// exactly one baseline run per cell (whether or not the baseline scheme
// was requested) because two downstream quantities need it: the
// CP-Limit -> mu calibration (Section 5.1 of the paper) and the
// energy-savings / response-degradation deltas in the artifacts.
#ifndef DMASIM_EXP_EXPERIMENT_SPEC_H_
#define DMASIM_EXP_EXPERIMENT_SPEC_H_

#include <string>
#include <vector>

#include "server/simulation_driver.h"
#include "trace/workloads.h"
#include "util/time.h"

namespace dmasim {

// Which DMA-aware technique a run enables on top of the low-level policy.
enum class SchemeKind : int {
  kBaseline = 0,  // Low-level policy only.
  kTa,            // DMA temporal alignment.
  kTaPl,          // DMA-TA plus popularity-based layout.
};

struct SchemeSpec {
  SchemeKind kind = SchemeKind::kBaseline;
  int pl_groups = 2;  // Only meaningful for kTaPl.

  // "baseline", "DMA-TA", "DMA-TA-PL(2)", ...
  std::string Label() const;

  friend bool operator==(const SchemeSpec& a, const SchemeSpec& b) {
    return a.kind == b.kind &&
           (a.kind != SchemeKind::kTaPl || a.pl_groups == b.pl_groups);
  }
};

// Named scheme constructors for spec-building code.
SchemeSpec BaselineScheme();
SchemeSpec TaScheme();
SchemeSpec TaPlScheme(int groups = 2);

struct ExperimentSpec {
  std::string name = "sweep";

  // Axis 1: workloads (fully parameterized specs; duration included).
  std::vector<WorkloadSpec> workloads;

  // Axis 2: schemes. Baseline is always run once per cell regardless.
  std::vector<SchemeSpec> schemes = {BaselineScheme()};

  // Axis 3: CP-Limits, applied to TA/TA-PL runs (ignored by baseline
  // runs, which need no slack budget).
  std::vector<double> cp_limits = {0.10};

  // Axis 4: low-level power policies.
  std::vector<PolicyKind> policies = {PolicyKind::kDynamic};

  // Axis 5/6: hardware variants. Empty = keep `base`'s value.
  std::vector<int> chip_counts;
  std::vector<int> bus_counts;

  // Axis 7/8: TA knobs (ignored by baseline runs). Empty = keep default.
  std::vector<Tick> epoch_lengths;
  std::vector<double> gather_depth_factors;

  // Axis 9: RNG seeds. Empty = each workload's own seed. A seed value
  // replaces the workload seed and re-derives the server seed, so
  // replicated runs differ in every stochastic component.
  std::vector<std::uint64_t> seeds;

  // Template for everything not swept.
  SimulationOptions base;
};

// One fully-resolved simulation in the grid. `options.memory.dma.ta.mu`
// is left 0 for TA/TA-PL runs: mu depends on the cell's measured
// baseline, so the runner fills it in after phase 1 (see sweep_runner.h).
struct RunPlan {
  int run_id = 0;   // Dense, 0-based, expansion order.
  int cell_id = 0;  // Baseline-sharing group.
  bool is_baseline = false;

  SchemeSpec scheme;
  PolicyKind policy = PolicyKind::kDynamic;
  double cp_limit = -1.0;  // < 0 for baseline runs.
  Tick epoch_length = 0;   // 0 = default (baseline or un-swept).
  double gather_depth_factor = 0.0;  // 0 = default.

  WorkloadSpec workload;      // Seed already applied.
  SimulationOptions options;  // Fully resolved except ta.mu.

  // "OLTP-St/DMA-TA-PL(2)/cp=0.10" style label for tables and logs.
  std::string Label() const;
};

struct RunGrid {
  std::vector<RunPlan> runs;
  int cell_count = 0;
};

// Expands the cross product. Aborts (DMASIM_CHECK) on an empty workload
// axis; per-run validation problems are left to the runner so one bad
// combination fails one run, not the sweep.
RunGrid ExpandGrid(const ExperimentSpec& spec);

// Returns an empty string if `options` can be simulated, else a
// human-readable reason. The runner records the reason as a failed run.
std::string ValidateOptions(const SimulationOptions& options);

// Returns an empty string if `workload` draws from no more pages than
// `memory` holds, else a reason naming both counts.
std::string ValidateWorkloadPages(const WorkloadSpec& workload,
                                  const MemorySystemConfig& memory);

}  // namespace dmasim

#endif  // DMASIM_EXP_EXPERIMENT_SPEC_H_
