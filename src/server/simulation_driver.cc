#include "server/simulation_driver.h"

#include <cstddef>
#include <memory>
#include <utility>

#include "audit/simulation_audit.h"
#include "exp/thread_pool.h"
#include "obs/simulation_obs.h"
#include "obs/trace_export.h"
#include "sim/sharded_engine.h"
#include "sim/simulator.h"

namespace dmasim {

namespace {

// Cursor-based trace feeder: keeps the event queue small even for
// CPU-access heavy database traces. Lives on RunTrace's stack (the
// simulator never outlives the call) so feed events capture one pointer.
struct TraceFeeder {
  Simulator* simulator;
  DataServer* server;
  const Trace* trace;
  std::size_t cursor = 0;

  void Pump() {
    while (cursor < trace->size() &&
           (*trace)[cursor].time <= simulator->Now()) {
      const TraceRecord& record = (*trace)[cursor++];
      switch (record.kind) {
        case TraceEventKind::kClientRead:
          server->ClientRead(record.page, record.bytes);
          break;
        case TraceEventKind::kClientWrite:
          server->ClientWrite(record.page, record.bytes);
          break;
        case TraceEventKind::kCpuAccess:
          server->CpuAccess(record.page, record.bytes);
          break;
      }
    }
    if (cursor < trace->size()) {
      simulator->ScheduleAt((*trace)[cursor].time,
                            [this]() { Pump(); });
    }
  }
};

}  // namespace

std::string PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kDynamic:
      return "dynamic";
    case PolicyKind::kStaticStandby:
      return "static-standby";
    case PolicyKind::kStaticNap:
      return "static-nap";
    case PolicyKind::kStaticPowerdown:
      return "static-powerdown";
    case PolicyKind::kAlwaysActive:
      return "always-active";
  }
  return "?";
}

std::unique_ptr<LowPowerPolicy> MakePolicy(
    PolicyKind kind, const DynamicThresholdConfig& thresholds) {
  switch (kind) {
    case PolicyKind::kDynamic:
      return std::make_unique<DynamicThresholdPolicy>(thresholds);
    case PolicyKind::kStaticStandby:
      return std::make_unique<StaticPolicy>(PowerState::kStandby);
    case PolicyKind::kStaticNap:
      return std::make_unique<StaticPolicy>(PowerState::kNap);
    case PolicyKind::kStaticPowerdown:
      return std::make_unique<StaticPolicy>(PowerState::kPowerdown);
    case PolicyKind::kAlwaysActive:
      return std::make_unique<AlwaysActivePolicy>();
  }
  DMASIM_CHECK_MSG(false, "invalid policy kind");
}

std::unique_ptr<LowPowerPolicy> MakePolicy(PolicyKind kind,
                                           const DynamicThresholdConfig&
                                               thresholds,
                                           const MemorySystemConfig& memory) {
  if (memory.chip_model == ChipModelKind::kRdram ||
      memory.chip_model == ChipModelKind::kRdramCorrected ||
      memory.chip_model == ChipModelKind::kSectored) {
    // The whole family shares the RDRAM 4-state chain, so the classic
    // policies apply unchanged.
    return MakePolicy(kind, thresholds);
  }
  switch (kind) {
    case PolicyKind::kDynamic:
      // dmasim-lint: allow(heap-alloc) -- one-time construction.
      return std::make_unique<ModelChainPolicy>(memory.chip_model,
                                                memory.power, thresholds);
    case PolicyKind::kStaticStandby:
      // DDR4 keeps a precharge-standby state, so static-standby is legal.
      return std::make_unique<StaticPolicy>(PowerState::kStandby);
    case PolicyKind::kAlwaysActive:
      return std::make_unique<AlwaysActivePolicy>();
    case PolicyKind::kStaticNap:
    case PolicyKind::kStaticPowerdown:
      break;  // RDRAM-only states; fall through to the abort.
  }
  DMASIM_CHECK_MSG(false, "policy targets a state this chip model lacks");
}

std::string SchemeName(const MemorySystemConfig& config) {
  std::string name;
  if (!config.dma.ta.enabled) {
    name = "baseline";
  } else if (!config.dma.pl.enabled) {
    name = "DMA-TA";
  } else {
    name = "DMA-TA-PL(" + std::to_string(config.dma.pl.groups) + ")";
  }
  // The suffixes (like the JSON monitor section) appear only when the
  // feature is on, so default-config artifacts stay byte-identical.
  if (config.monitor.enabled) name += "+mon";
  if (config.chip_model != ChipModelKind::kRdram) {
    name += "+" + std::string(ChipModelKindName(config.chip_model));
  }
  return name;
}

void CollectRunResults(Simulator* simulator, MemoryController* controller,
                       DataServer* server, SimulationResults* results) {
  results->duration = simulator->Now();
  results->energy = controller->CollectEnergy();
  results->utilization_factor = controller->UtilizationFactor();
  results->client_response = server->ResponseTime();
  results->chunk_service = controller->ChunkServiceTime();
  results->transfer_latency = controller->TransferLatency();
  results->controller = controller->stats();
  results->server = server->stats();
  results->gated_requests = controller->aligner().TotalGated();
  results->releases_by_quorum = controller->aligner().ReleasedByQuorum();
  results->releases_by_slack = controller->aligner().ReleasedBySlack();
  results->max_gated_buffer_bytes = controller->aligner().MaxBufferedBytes();
  results->executed_events = simulator->ExecutedEvents();
  results->stepped_events = simulator->SteppedEvents();
  results->hottest_chip_share = controller->HottestChipShare();
  results->calendar = simulator->calendar_stats();
  if (controller->monitor() != nullptr) {
    const RegionMonitor& monitor = *controller->monitor();
    results->monitor.enabled = true;
    results->monitor.regions = static_cast<int>(monitor.regions().size());
    results->monitor.probes = monitor.stats().probes;
    results->monitor.observations = monitor.stats().observations;
    results->monitor.splits = monitor.stats().splits;
    results->monitor.merges = monitor.stats().merges;
    results->monitor.aggregations = monitor.stats().aggregations;
    results->monitor.scheme_matches = monitor.stats().scheme_region_matches;
    results->monitor.demotions_requested = monitor.stats().demotions_requested;
    results->monitor.demotions_applied = monitor.stats().demotions_applied;
    results->monitor.overhead_fraction =
        monitor.OverheadFraction(simulator->Now());
    results->monitor.hotness_error = monitor.latest_hotness_error();
  }
}

double SimulationResults::EnergySavingsVs(
    const SimulationResults& baseline) const {
  // Audited raw edge: the savings ratio is dimensionless, so the typed
  // totals drop to raw joules here.
  const double base = baseline.energy.Total().joules();
  return base > 0.0 ? 1.0 - energy.Total().joules() / base : 0.0;
}

double SimulationResults::ResponseDegradationVs(
    const SimulationResults& baseline) const {
  const double base = baseline.client_response.Mean();
  return base > 0.0 ? client_response.Mean() / base - 1.0 : 0.0;
}

double SimulationResults::MemoryTimePerRequest() const {
  const std::uint64_t requests = server.reads + server.writes;
  if (requests == 0) return 0.0;
  return transfer_latency.Sum() / static_cast<double>(requests);
}

SimulationResults RunTrace(const Trace& trace, double miss_ratio,
                           Tick duration, const SimulationOptions& options,
                           const std::string& workload_name) {
  DMASIM_EXPECTS(IsTimeSorted(trace));

  Simulator simulator;
  std::unique_ptr<LowPowerPolicy> policy =
      MakePolicy(options.policy, options.thresholds, options.memory);
  MemoryController controller(&simulator, options.memory, policy.get());
  ServerConfig server_config = options.server;
  server_config.forced_miss_ratio = miss_ratio;
  DataServer server(&simulator, &controller, server_config);

  TraceFeeder feeder{&simulator, &server, &trace};
  if (!trace.empty()) {
    simulator.ScheduleAt(trace[0].time, [&feeder]() { feeder.Pump(); });
  }

  std::unique_ptr<SimulationAudit> audit;
  if (options.audit_level >= 1) {
    SimulationAudit::Options audit_options;
    audit_options.level = options.audit_level;
    audit_options.period = options.audit_period;
    audit_options.mode = options.audit_abort ? InvariantAuditor::Mode::kAbort
                                             : InvariantAuditor::Mode::kCollect;
    audit_options.reference_model = options.audit_reference_model;
    audit = std::make_unique<SimulationAudit>(&simulator, &controller,
                                              audit_options);
  }

  // Built before the observer so the obs layer can export the engine's
  // window/mailbox counters. One controller = one shard (one
  // memory-controller domain), so the windowed execution is exactly the
  // serial order; the trailing RunUntil settles the clock at `end` the
  // same way the serial branch does.
  std::unique_ptr<ShardedEngine> engine;
  if (options.sim_threads != 1) {
    ShardedEngine::Options engine_options;
    engine = std::make_unique<ShardedEngine>(engine_options);
    engine->AddShard(&simulator, [](const ShardMessage&) {});
  }

  std::unique_ptr<SimulationObserver> observer;
  if (options.obs_level >= 1) {
    SimulationObserver::Options obs_options;
    obs_options.level = options.obs_level;
    obs_options.trace_capacity = options.obs_trace_capacity;
    obs_options.simulator = &simulator;
    obs_options.engine = engine.get();
    observer = std::make_unique<SimulationObserver>(&controller, &server,
                                                    obs_options);
  }

  const Tick end = duration + options.drain;
  if (engine != nullptr) {
    ThreadPool pool(options.sim_threads);
    engine->Run(end, &pool);
  }
  simulator.RunUntil(end);

  SimulationResults results;
  if (audit != nullptr) {
    audit->Finish();
    results.audit_checks = audit->auditor().checks_run();
    results.audit_failures = audit->auditor().failures().size();
  }
  results.workload = workload_name;
  results.scheme = SchemeName(options.memory) + "/" +
                   PolicyKindName(options.policy);
  CollectRunResults(&simulator, &controller, &server, &results);
  if (observer != nullptr) {
    observer->Finish();
    results.metrics = observer->SnapshotMetrics();
    if (observer->tracer() != nullptr) {
      results.obs_events = observer->tracer()->size();
      results.obs_dropped_events = observer->tracer()->dropped();
      if (!options.obs_trace_path.empty()) {
        const bool written = WriteChromeTraceFile(
            *observer->tracer(), options.obs_trace_path.c_str());
        DMASIM_CHECK_MSG(written, "failed to write observability trace");
      }
    }
  }
  return results;
}

SimulationResults RunWorkload(const WorkloadSpec& spec,
                              const SimulationOptions& options) {
  const Trace trace = GenerateWorkload(spec);
  SimulationOptions effective = options;
  effective.server.request_compute_time = spec.request_compute_time;
  return RunTrace(trace, spec.miss_ratio, spec.duration, effective, spec.name);
}

CpCalibration Calibrate(const SimulationResults& baseline) {
  CpCalibration calibration;
  calibration.r0 = baseline.client_response.Mean();
  calibration.m0 = baseline.MemoryTimePerRequest();
  return calibration;
}

}  // namespace dmasim
