// The benchmark's workloads: what each one simulates, how it is set up,
// and how its runs are checked and traced.
//
// Every workload uses the RDRAM chip model, the dynamic-threshold
// low-power policy, and DMA-TA-PL with mu calibrated at CP-Limit 10% from
// a baseline run (no DMA-TA/PL) on the same trace. See README.md for why
// these three were chosen and which layers each one exercises.
#ifndef DMABENCH_WORKLOADS_H_
#define DMABENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace dmabench {

// The CP-Limit the managed configuration is calibrated at, and the
// client-perceived degradation every managed run must stay within.
inline constexpr double kCpLimit = 0.10;

// What the checks and the end-to-end metrics need from one run.
struct RunOutcome {
  std::uint64_t fingerprint = 0;
  // False for a comparison run of another configuration, which is checked
  // for everything but the reference fingerprint.
  bool compare_fingerprint = true;
  double sim_seconds = 0.0;  // Simulated time the run covered.
  double energy_saving_pct = 0.0;
  double cp_degradation_pct = 0.0;
  bool energy_non_negative = true;
  // False when a traced round regenerated a trace that differs from the
  // setup trace (the spans would then describe another input).
  bool same_trace = true;
};

// Names of the checks a run failed (empty = all passed). Every run must
// reproduce `reference_fingerprint`, stay within the CP-Limit, have
// non-negative energy buckets, and have run on the setup trace.
std::vector<std::string> FailedChecks(const RunOutcome& run,
                                      std::uint64_t reference_fingerprint);

// Per-layer metric values of one traced round, by metric name. A metric a
// workload does not exercise is absent (reported as 0).
using LayerValues = std::map<std::string, double>;

struct MetricDef {
  const char* name;
  const char* unit;
};
// Every per-layer metric the traced run reports, in output order.
const std::vector<MetricDef>& PerLayerMetrics();

class Workload {
 public:
  virtual ~Workload() = default;

  // Threads a managed run keeps busy (the host-speed probe uses as many).
  virtual int threads() const = 0;

  // Trace generation, the baseline run and the CP calibration. Repeatable:
  // each call redoes all three from the seed.
  virtual void Setup() = 0;

  // The check reference for this process: runs the managed configuration
  // untimed (this is also the process's discarded warm-up run). Failed
  // checks on the reference itself are appended to `failures`.
  virtual RunOutcome Reference(std::vector<std::string>* failures) = 0;

  // One untraced run of the managed configuration.
  virtual RunOutcome RunManaged() = 0;

  // One traced round: an untraced managed run, a traced one, and any
  // comparison run the workload's layer metrics need. Appends each run's
  // outcome to `runs` (checked by the caller) and fills `values`.
  virtual void TraceRound(SpanRecorder* spans, std::vector<RunOutcome>* runs,
                          LayerValues* values) = 0;
};

// Null for an unknown name. `repo_root` locates the scheme file the
// monitored workload reads.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const std::string& repo_root);

}  // namespace dmabench

#endif  // DMABENCH_WORKLOADS_H_
