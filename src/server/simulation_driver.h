// End-to-end simulation driver: wires trace -> data server -> memory
// controller -> chips, runs to completion, and collects the metrics the
// paper reports (energy breakdown, savings, client response time,
// utilization factor).
//
// Also home of the CP-Limit calibration: the paper's DMA-TA takes the
// per-request slowdown mu, derived offline from a client-perceived
// response-time degradation limit. `Calibrate` measures the baseline
// response time R0 and the average memory-transfer time per client
// request M0; mu(cp) = cp * R0 / M0 then converts a client-perceived
// limit into the controller parameter (Section 5.1).
#ifndef DMASIM_SERVER_SIMULATION_DRIVER_H_
#define DMASIM_SERVER_SIMULATION_DRIVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/memory_controller.h"
#include "mem/power_policy.h"
#include "obs/metrics.h"
#include "server/data_server.h"
#include "sim/simulator.h"
#include "stats/energy.h"
#include "trace/trace.h"
#include "trace/workloads.h"

namespace dmasim {

enum class PolicyKind : int {
  kDynamic = 0,     // Lebeck et al. dynamic thresholds (the baseline).
  kStaticStandby,
  kStaticNap,
  kStaticPowerdown,
  kAlwaysActive,
};

std::string PolicyKindName(PolicyKind kind);
// Builds the policy for `kind` on the RDRAM state chain.
std::unique_ptr<LowPowerPolicy> MakePolicy(PolicyKind kind,
                                           const DynamicThresholdConfig&
                                               thresholds);
// Model-aware overload: kDynamic walks `memory.chip_model`'s own state
// chain (a DDR4 chip steps through its power-down cascade, not the
// RDRAM one); static policies targeting states the model lacks abort.
std::unique_ptr<LowPowerPolicy> MakePolicy(PolicyKind kind,
                                           const DynamicThresholdConfig&
                                               thresholds,
                                           const MemorySystemConfig& memory);

struct SimulationOptions {
  MemorySystemConfig memory;
  ServerConfig server;
  PolicyKind policy = PolicyKind::kDynamic;
  DynamicThresholdConfig thresholds;
  // Extra simulated time after the last trace record, letting in-flight
  // transfers, gated requests, and migrations finish.
  Tick drain = 10 * kMillisecond;
  // Worker threads for the sharded engine (sim/sharded_engine.h). A
  // single-controller run is one shard — one memory-controller domain —
  // so any value routes through the engine's windowed execution with
  // identical results (the determinism suite pins this); real
  // parallelism needs the multi-domain fleet driver. 1 = the plain
  // serial kernel.
  int sim_threads = 1;

  // --- Runtime invariant auditing (src/audit/) ---------------------------
  // 0 = off, 1 = end-of-run registry pass, 2 = + periodic passes and
  // transition-time validation.
  int audit_level = 0;
  Tick audit_period = kMillisecond;  // Cadence of level-2 periodic passes.
  // Abort on a violated invariant (false collects failures into
  // SimulationResults::audit_failures instead — used by tests).
  bool audit_abort = true;
  // Model the power-state legality invariant judges transitions against;
  // null means the run's own chip model (the seeded-fault regression
  // test points this at the pristine reference while corrupting the
  // model the chips actually run).
  const ChipPowerModel* audit_reference_model = nullptr;

  // --- Observability (src/obs/) ------------------------------------------
  // 0 = off, 1 = metrics registry, 2 = + structured event trace.
  int obs_level = 0;
  // When non-empty (and the effective level is >= 2), the event trace is
  // written to this path as Chrome/Perfetto trace_event JSON.
  std::string obs_trace_path;
  // Event-trace buffer bound; events past it are dropped and counted in
  // SimulationResults::obs_dropped_events.
  std::size_t obs_trace_capacity = std::size_t{1} << 20;
};

// Access-monitor outcome of one run (zero/default unless the run was
// monitored).
struct MonitorSummary {
  bool enabled = false;
  int regions = 0;  // Final region count.
  std::uint64_t probes = 0;
  std::uint64_t observations = 0;
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
  std::uint64_t aggregations = 0;
  std::uint64_t scheme_matches = 0;
  std::uint64_t demotions_requested = 0;
  std::uint64_t demotions_applied = 0;
  // Simulated monitoring cost as a fraction of the run's duration.
  double overhead_fraction = 0.0;
  // Latest estimated-vs-oracle hotness error (total variation; -1 when
  // never computed, i.e. no layout interval ran).
  double hotness_error = -1.0;
};

struct SimulationResults {
  std::string workload;
  std::string scheme;
  Tick duration = 0;

  EnergyBreakdown energy;
  double utilization_factor = 0.0;
  RunningMean client_response;   // Ticks.
  RunningMean chunk_service;     // Ticks.
  RunningMean transfer_latency;  // Ticks.

  ControllerStats controller;
  ServerStats server;

  std::uint64_t gated_requests = 0;
  std::uint64_t releases_by_quorum = 0;
  std::uint64_t releases_by_slack = 0;
  std::int64_t max_gated_buffer_bytes = 0;
  std::uint64_t executed_events = 0;  // Logical (coalescing-invariant).
  std::uint64_t stepped_events = 0;   // Actual queue pops.
  double hottest_chip_share = 0.0;
  // Calendar-queue internals of the run's kernel (bucket loads,
  // cascades, overflow refills, occupancy peaks).
  Simulator::CalendarStats calendar;

  // Invariant auditor outcome (zero unless the run was audited).
  std::uint64_t audit_checks = 0;
  std::uint64_t audit_failures = 0;

  // Observability outcome (empty/zero unless the run was observed).
  std::vector<MetricSample> metrics;
  std::uint64_t obs_events = 0;
  std::uint64_t obs_dropped_events = 0;

  // Access-monitor outcome (disabled unless the run was monitored).
  MonitorSummary monitor;

  // Fractional energy saving relative to `baseline` (positive = better).
  double EnergySavingsVs(const SimulationResults& baseline) const;
  // Fractional client-perceived response-time degradation vs `baseline`.
  double ResponseDegradationVs(const SimulationResults& baseline) const;
  // Average memory time spent on DMA transfers per client request.
  double MemoryTimePerRequest() const;
};

// Human-readable scheme label for a memory config ("baseline", "DMA-TA",
// "DMA-TA-PL(2)").
std::string SchemeName(const MemorySystemConfig& config);

// Fills the per-system metric block of `results` — duration, energy,
// latencies, controller/server/monitor statistics, kernel counters —
// from one simulated system's components. Shared by RunTrace and the
// fleet driver (which calls it once per domain).
void CollectRunResults(Simulator* simulator, MemoryController* controller,
                       DataServer* server, SimulationResults* results);

// Runs `trace` (with the given forced miss ratio, < 0 for cache-driven
// misses) against `options` for `duration` + drain.
SimulationResults RunTrace(const Trace& trace, double miss_ratio,
                           Tick duration, const SimulationOptions& options,
                           const std::string& workload_name);

// Generates the workload and runs it.
SimulationResults RunWorkload(const WorkloadSpec& spec,
                              const SimulationOptions& options);

// CP-Limit -> mu transformation (calibrated on a baseline run).
struct CpCalibration {
  double r0 = 0.0;  // Baseline average client response time (ticks).
  double m0 = 0.0;  // Average DMA memory time per client request (ticks).

  double MuFor(double cp_limit) const {
    return m0 > 0.0 ? cp_limit * r0 / m0 : 0.0;
  }
};

CpCalibration Calibrate(const SimulationResults& baseline);

}  // namespace dmasim

#endif  // DMASIM_SERVER_SIMULATION_DRIVER_H_
