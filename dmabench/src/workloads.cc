#include "workloads.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "mem/power_policy.h"
#include "mon/scheme_parser.h"
#include "server/fleet_driver.h"
#include "server/simulation_driver.h"
#include "stats/energy.h"
#include "trace/workloads.h"
#include "util/random.h"
#include "util/time.h"

namespace dmabench {

namespace {

using dmasim::SimulationOptions;
using dmasim::SimulationResults;
using dmasim::Tick;
using dmasim::Trace;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double NsToSeconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ salt;
  return dmasim::SplitMix64(state);
}

// FNV-1a over the run's simulated outcome: the energy-bucket bits, the
// executed and stepped event counts, and the mean client response.
class Fnv {
 public:
  void Mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffULL;
      hash_ *= 1099511628211ULL;
    }
  }
  void MixDouble(double value) { Mix(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::uint64_t Fingerprint(const SimulationResults& r) {
  Fnv fnv;
  for (int bucket = 0; bucket < dmasim::kEnergyBucketCount; ++bucket) {
    fnv.MixDouble(
        r.energy.Of(static_cast<dmasim::EnergyBucket>(bucket)).joules());
  }
  fnv.Mix(r.executed_events);
  fnv.Mix(r.stepped_events);
  fnv.Mix(r.client_response.Count());
  fnv.MixDouble(r.client_response.Mean());
  return fnv.hash();
}

bool EnergyNonNegative(const dmasim::EnergyBreakdown& energy) {
  for (int bucket = 0; bucket < dmasim::kEnergyBucketCount; ++bucket) {
    if (energy.Of(static_cast<dmasim::EnergyBucket>(bucket)).joules() < 0.0) {
      return false;
    }
  }
  return true;
}

const char* EnergyMetricName(dmasim::EnergyBucket bucket) {
  switch (bucket) {
    case dmasim::EnergyBucket::kActiveServing:
      return "mem.energy.active_serving_j";
    case dmasim::EnergyBucket::kActiveIdleDma:
      return "mem.energy.active_idle_dma_j";
    case dmasim::EnergyBucket::kActiveIdleThreshold:
      return "mem.energy.active_idle_threshold_j";
    case dmasim::EnergyBucket::kTransition:
      return "mem.energy.transition_j";
    case dmasim::EnergyBucket::kLowPower:
      return "mem.energy.low_power_j";
    case dmasim::EnergyBucket::kMigration:
      return "mem.energy.migration_j";
  }
  return "?";
}

// Turns the baseline configuration into the managed one: DMA-TA-PL with
// mu calibrated at the CP-Limit.
void EnableDmaTaPl(double mu, dmasim::MemorySystemConfig* memory) {
  memory->dma.ta.enabled = true;
  memory->dma.ta.mu = mu;
  memory->dma.pl.enabled = true;
}

// Layer values every workload reads off its SimulationResults (summed or
// merged over domains for the fleet by the caller).
void PutResultValues(const SimulationResults& r, LayerValues* v) {
  (*v)["server.requests"] =
      static_cast<double>(r.server.reads + r.server.writes);
  (*v)["server.misses"] = static_cast<double>(r.server.misses);
  (*v)["server.cpu_accesses"] = static_cast<double>(r.server.cpu_accesses);
  (*v)["server.response_mean_ms"] =
      r.client_response.Mean() / dmasim::kMillisecond;
  (*v)["core.gated"] = static_cast<double>(r.gated_requests);
  (*v)["core.releases_quorum"] = static_cast<double>(r.releases_by_quorum);
  (*v)["core.releases_slack"] = static_cast<double>(r.releases_by_slack);
  const std::uint64_t releases = r.releases_by_quorum + r.releases_by_slack;
  (*v)["core.quorum_release_ratio"] =
      releases > 0 ? static_cast<double>(r.releases_by_quorum) /
                         static_cast<double>(releases)
                   : 0.0;
  (*v)["core.max_gated_bytes"] = static_cast<double>(r.max_gated_buffer_bytes);
  (*v)["core.migrations"] = static_cast<double>(r.controller.migrations);
  (*v)["core.deferred_migrations"] =
      static_cast<double>(r.controller.deferred_migrations);
  (*v)["core.transfer_latency_mean_us"] =
      r.transfer_latency.Mean() / dmasim::kMicrosecond;
  (*v)["core.chunk_service_mean_ns"] =
      r.chunk_service.Mean() / dmasim::kNanosecond;
  (*v)["mem.utilization_factor"] = r.utilization_factor;
  (*v)["mem.hottest_chip_share"] = r.hottest_chip_share;
  for (int bucket = 0; bucket < dmasim::kEnergyBucketCount; ++bucket) {
    const auto b = static_cast<dmasim::EnergyBucket>(bucket);
    (*v)[EnergyMetricName(b)] = r.energy.Of(b).joules();
  }
  (*v)["sim.executed_events"] = static_cast<double>(r.executed_events);
  (*v)["sim.stepped_events"] = static_cast<double>(r.stepped_events);
  (*v)["sim.coalesce_ratio"] =
      r.stepped_events > 0 ? static_cast<double>(r.executed_events) /
                                 static_cast<double>(r.stepped_events)
                           : 0.0;
  (*v)["sim.bucket_loads"] = static_cast<double>(r.calendar.bucket_loads);
  (*v)["sim.cascades"] = static_cast<double>(r.calendar.cascades);
  (*v)["sim.overflow_refills"] =
      static_cast<double>(r.calendar.overflow_refills);
  (*v)["sim.max_bucket_events"] =
      static_cast<double>(r.calendar.max_bucket_events);
  if (r.monitor.enabled) {
    const dmasim::MonitorSummary& m = r.monitor;
    (*v)["mon.probes"] = static_cast<double>(m.probes);
    (*v)["mon.observations"] = static_cast<double>(m.observations);
    (*v)["mon.splits"] = static_cast<double>(m.splits);
    (*v)["mon.merges"] = static_cast<double>(m.merges);
    (*v)["mon.regions"] = static_cast<double>(m.regions);
    (*v)["mon.scheme_matches"] = static_cast<double>(m.scheme_matches);
    (*v)["mon.demotion_applied_ratio"] =
        m.demotions_requested > 0
            ? static_cast<double>(m.demotions_applied) /
                  static_cast<double>(m.demotions_requested)
            : 0.0;
    (*v)["mon.sim_overhead_pct"] = m.overhead_fraction * 100.0;
    (*v)["mon.hotness_error"] = m.hotness_error;
  }
}

// --- Traced single-domain composition --------------------------------------

// Forwards to the policy MakePolicy built, timing every decision.
class TimedPolicy final : public dmasim::LowPowerPolicy {
 public:
  TimedPolicy(std::unique_ptr<dmasim::LowPowerPolicy> inner,
              SpanRecorder* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  std::optional<dmasim::PolicyStep> NextStep(
      dmasim::PowerState current) const override {
    SpanScope span(spans_, SpanName::kPolicy);
    return inner_->NextStep(current);
  }
  std::string Name() const override { return inner_->Name(); }

 private:
  std::unique_ptr<dmasim::LowPowerPolicy> inner_;
  SpanRecorder* spans_;
};

// RunTrace's cursor feeder, with a span around each data-server call. It
// schedules exactly the events RunTrace's feeder does, in the same order.
struct TracedFeeder {
  dmasim::Simulator* simulator;
  dmasim::DataServer* server;
  const Trace* trace;
  SpanRecorder* spans;
  std::size_t cursor = 0;

  void Pump() {
    while (cursor < trace->size() &&
           (*trace)[cursor].time <= simulator->Now()) {
      const dmasim::TraceRecord& record = (*trace)[cursor++];
      switch (record.kind) {
        case dmasim::TraceEventKind::kClientRead: {
          SpanScope span(spans, SpanName::kServerRead);
          server->ClientRead(record.page, record.bytes);
          break;
        }
        case dmasim::TraceEventKind::kClientWrite: {
          SpanScope span(spans, SpanName::kServerWrite);
          server->ClientWrite(record.page, record.bytes);
          break;
        }
        case dmasim::TraceEventKind::kCpuAccess: {
          SpanScope span(spans, SpanName::kServerCpu);
          server->CpuAccess(record.page, record.bytes);
          break;
        }
      }
    }
    if (cursor < trace->size()) {
      simulator->ScheduleAt((*trace)[cursor].time, [this]() { Pump(); });
    }
  }
};

struct ComposedRun {
  SimulationResults results;
  std::uint64_t chunks_issued = 0;
  std::uint64_t transfers_started = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t step_downs = 0;
  std::uint64_t dma_requests = 0;
  std::uint64_t cpu_requests = 0;
};

// The single-domain system RunTrace builds (serial kernel, no audit, no
// observer), composed here from the public constructors so the benchmark
// can time the calls between layers. Must reproduce RunTrace bit for bit;
// every traced round checks its fingerprint against the reference.
ComposedRun RunComposed(const Trace& trace, double miss_ratio, Tick duration,
                        const SimulationOptions& options,
                        const std::string& workload_name,
                        SpanRecorder* spans) {
  dmasim::Simulator simulator;
  TimedPolicy policy(
      dmasim::MakePolicy(options.policy, options.thresholds, options.memory),
      spans);
  dmasim::MemoryController controller(&simulator, options.memory, &policy);
  dmasim::ServerConfig server_config = options.server;
  server_config.forced_miss_ratio = miss_ratio;
  dmasim::DataServer server(&simulator, &controller, server_config);

  TracedFeeder feeder{&simulator, &server, &trace, spans};
  if (!trace.empty()) {
    simulator.ScheduleAt(trace[0].time, [&feeder]() { feeder.Pump(); });
  }
  {
    SpanScope span(spans, SpanName::kRunUntil);
    simulator.RunUntil(duration + options.drain);
  }

  ComposedRun run;
  run.results.workload = workload_name;
  run.results.scheme = dmasim::SchemeName(options.memory) + "/" +
                       dmasim::PolicyKindName(options.policy);
  {
    SpanScope span(spans, SpanName::kCollect);
    dmasim::CollectRunResults(&simulator, &controller, &server, &run.results);
  }
  for (int i = 0; i < controller.bus_count(); ++i) {
    run.chunks_issued += controller.bus(i).ChunksIssued();
    run.transfers_started += controller.bus(i).TransfersStarted();
  }
  for (int i = 0; i < controller.chip_count(); ++i) {
    const dmasim::ChipStats& stats = controller.chip(i).stats();
    run.wakeups += stats.wakeups;
    run.step_downs += stats.step_downs;
    run.dma_requests += stats.dma_requests;
    run.cpu_requests += stats.cpu_requests;
  }
  return run;
}

// --- Single-domain workloads (oltp-st-mon, oltp-db) ------------------------

class SingleDomainWorkload final : public Workload {
 public:
  SingleDomainWorkload(dmasim::WorkloadSpec spec,
                       std::vector<dmasim::SchemeRule> monitor_rules)
      : spec_(std::move(spec)), monitor_rules_(std::move(monitor_rules)) {
    baseline_options_.server.request_compute_time = spec_.request_compute_time;
  }

  int threads() const override { return 1; }

  void Setup() override {
    trace_ = dmasim::GenerateWorkload(spec_);
    baseline_ = Run(baseline_options_);
    const dmasim::CpCalibration calibration = dmasim::Calibrate(baseline_);
    managed_ = baseline_options_;
    EnableDmaTaPl(calibration.MuFor(kCpLimit), &managed_.memory);
    // The unmonitored twin is the denominator of mon.host_ratio.
    unmonitored_ = managed_;
    if (!monitor_rules_.empty()) {
      managed_.memory.monitor.enabled = true;
      managed_.memory.monitor.rules = monitor_rules_;
    }
  }

  RunOutcome Reference(std::vector<std::string>* failures) override {
    const RunOutcome reference = RunManaged();
    for (const std::string& check :
         FailedChecks(reference, reference.fingerprint)) {
      failures->push_back(check);
    }
    return reference;
  }

  RunOutcome RunManaged() override { return Outcome(Run(managed_)); }

  void TraceRound(SpanRecorder* spans, std::vector<RunOutcome>* runs,
                  LayerValues* v) override {
    Clock::time_point start = Clock::now();
    const SimulationResults plain = Run(managed_);
    const double untraced_s = SecondsSince(start);
    runs->push_back(Outcome(plain));

    spans->Reset();
    Trace regenerated;
    {
      SpanScope span(spans, SpanName::kTraceGenerate);
      regenerated = dmasim::GenerateWorkload(spec_);
    }
    start = Clock::now();
    const ComposedRun traced = RunComposed(regenerated, spec_.miss_ratio,
                                           spec_.duration, managed_,
                                           spec_.name, spans);
    const double traced_s = SecondsSince(start);
    RunOutcome traced_outcome = Outcome(traced.results);
    traced_outcome.same_trace = regenerated == trace_;
    runs->push_back(traced_outcome);

    const SimulationResults& r = traced.results;
    PutResultValues(r, v);
    (*v)["trace.generate_s"] =
        NsToSeconds(spans->totals(SpanName::kTraceGenerate).total_ns);
    (*v)["trace.records"] = static_cast<double>(regenerated.size());
    (*v)["server.ingress_s"] =
        NsToSeconds(spans->totals(SpanName::kServerRead).self_ns +
                    spans->totals(SpanName::kServerWrite).self_ns +
                    spans->totals(SpanName::kServerCpu).self_ns);
    (*v)["io.chunks_issued"] = static_cast<double>(traced.chunks_issued);
    (*v)["io.transfers_started"] =
        static_cast<double>(traced.transfers_started);
    (*v)["mem.wakeups"] = static_cast<double>(traced.wakeups);
    (*v)["mem.step_downs"] = static_cast<double>(traced.step_downs);
    (*v)["mem.dma_requests"] = static_cast<double>(traced.dma_requests);
    (*v)["mem.cpu_requests"] = static_cast<double>(traced.cpu_requests);
    (*v)["mem.policy_calls"] =
        static_cast<double>(spans->totals(SpanName::kPolicy).count);
    (*v)["mem.policy_s"] =
        NsToSeconds(spans->totals(SpanName::kPolicy).total_ns);
    (*v)["sim.run_self_s"] =
        NsToSeconds(spans->totals(SpanName::kRunUntil).self_ns);
    (*v)["sim.host_ns_per_stepped_event"] =
        untraced_s * 1e9 / static_cast<double>(plain.stepped_events);
    (*v)["stats.collect_s"] =
        NsToSeconds(spans->totals(SpanName::kCollect).total_ns);
    (*v)["trace_overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0;

    if (managed_.memory.monitor.enabled) {
      start = Clock::now();
      RunOutcome comparison = Outcome(Run(unmonitored_));
      comparison.compare_fingerprint = false;
      runs->push_back(comparison);
      (*v)["mon.host_ratio"] = untraced_s / SecondsSince(start);
    }
  }

 private:
  SimulationResults Run(const SimulationOptions& options) const {
    return dmasim::RunTrace(trace_, spec_.miss_ratio, spec_.duration,
                            options, spec_.name);
  }

  RunOutcome Outcome(const SimulationResults& r) const {
    RunOutcome outcome;
    outcome.fingerprint = Fingerprint(r);
    outcome.sim_seconds = dmasim::TicksToSeconds(r.duration);
    outcome.energy_saving_pct = r.EnergySavingsVs(baseline_) * 100.0;
    outcome.cp_degradation_pct = r.ResponseDegradationVs(baseline_) * 100.0;
    outcome.energy_non_negative = EnergyNonNegative(r.energy);
    return outcome;
  }

  dmasim::WorkloadSpec spec_;
  std::vector<dmasim::SchemeRule> monitor_rules_;
  SimulationOptions baseline_options_;
  SimulationOptions managed_;
  SimulationOptions unmonitored_;
  Trace trace_;
  SimulationResults baseline_;
};

// --- Fleet workload (fleet-oltp-st) ----------------------------------------

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(std::uint64_t seed) {
    baseline_.workload = dmasim::OltpStorageSpec();
    baseline_.workload.duration = 200 * dmasim::kMillisecond;
    baseline_.workload.seed = DeriveSeed(seed, 0xf1ee7ULL);
    baseline_.domains = 8;
    baseline_.streams_per_domain = 1024;
    baseline_.remote_fraction = 0.05;
    baseline_.remote_latency = 20 * dmasim::kMicrosecond;
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    threads_ = static_cast<int>(std::min(4u, cpus));
    baseline_.sim_threads = threads_;
  }

  int threads() const override { return threads_; }

  void Setup() override {
    baseline_results_ = dmasim::RunFleet(baseline_);
    // Calibrate on the fleet-wide baseline: merged client responses over
    // merged DMA transfer time per client request.
    SimulationResults merged;
    merged.client_response = baseline_results_.client_response;
    for (const dmasim::FleetDomainResults& domain : baseline_results_.domains) {
      merged.transfer_latency.Merge(domain.results.transfer_latency);
      merged.server.reads += domain.results.server.reads;
      merged.server.writes += domain.results.server.writes;
    }
    managed_ = baseline_;
    EnableDmaTaPl(dmasim::Calibrate(merged).MuFor(kCpLimit),
                  &managed_.base.memory);
    serial_ = managed_;
    serial_.sim_threads = 1;
  }

  RunOutcome Reference(std::vector<std::string>* failures) override {
    // The serial fleet is the reference; the threaded warm-up run must
    // reproduce it bit for bit.
    const RunOutcome reference = Outcome(dmasim::RunFleet(serial_));
    std::vector<std::string> checks =
        FailedChecks(RunManaged(), reference.fingerprint);
    for (const std::string& check :
         FailedChecks(reference, reference.fingerprint)) {
      checks.push_back(check);
    }
    failures->insert(failures->end(), checks.begin(), checks.end());
    return reference;
  }

  RunOutcome RunManaged() override {
    return Outcome(dmasim::RunFleet(managed_));
  }

  void TraceRound(SpanRecorder* spans, std::vector<RunOutcome>* runs,
                  LayerValues* v) override {
    Clock::time_point start = Clock::now();
    runs->push_back(Outcome(dmasim::RunFleet(managed_)));
    const double untraced_s = SecondsSince(start);

    spans->Reset();
    dmasim::FleetResults r;
    {
      SpanScope span(spans, SpanName::kFleetRun);
      r = dmasim::RunFleet(managed_);
    }
    const double traced_s =
        NsToSeconds(spans->totals(SpanName::kFleetRun).total_ns);
    runs->push_back(Outcome(r));

    start = Clock::now();
    const dmasim::FleetResults serial = dmasim::RunFleet(serial_);
    const double serial_s = SecondsSince(start);
    runs->push_back(Outcome(serial));

    SimulationResults sum;
    double utilization = 0.0;
    double hottest = 0.0;
    double max_domain_events = 0.0;
    for (const dmasim::FleetDomainResults& domain : r.domains) {
      const SimulationResults& d = domain.results;
      sum.server.reads += d.server.reads;
      sum.server.writes += d.server.writes;
      sum.server.misses += d.server.misses;
      sum.server.cpu_accesses += d.server.cpu_accesses;
      sum.gated_requests += d.gated_requests;
      sum.releases_by_quorum += d.releases_by_quorum;
      sum.releases_by_slack += d.releases_by_slack;
      sum.max_gated_buffer_bytes =
          std::max(sum.max_gated_buffer_bytes, d.max_gated_buffer_bytes);
      sum.controller.migrations += d.controller.migrations;
      sum.controller.deferred_migrations += d.controller.deferred_migrations;
      sum.transfer_latency.Merge(d.transfer_latency);
      sum.chunk_service.Merge(d.chunk_service);
      sum.calendar.bucket_loads += d.calendar.bucket_loads;
      sum.calendar.cascades += d.calendar.cascades;
      sum.calendar.overflow_refills += d.calendar.overflow_refills;
      sum.calendar.max_bucket_events = std::max(
          sum.calendar.max_bucket_events, d.calendar.max_bucket_events);
      utilization += d.utilization_factor;
      hottest += d.hottest_chip_share;
      max_domain_events =
          std::max(max_domain_events, static_cast<double>(d.executed_events));
    }
    const double domains = static_cast<double>(r.domains.size());
    sum.client_response = r.client_response;
    sum.energy = r.energy;
    sum.executed_events = r.executed_events;
    sum.stepped_events = r.stepped_events;
    sum.utilization_factor = utilization / domains;
    sum.hottest_chip_share = hottest / domains;
    PutResultValues(sum, v);

    (*v)["fleet.remote_sent"] = static_cast<double>(r.remote_sent);
    (*v)["fleet.remote_completed"] = static_cast<double>(r.remote_completed);
    (*v)["fleet.remote_response_mean_us"] =
        r.remote_response.Mean() / dmasim::kMicrosecond;
    const double windows = static_cast<double>(r.engine.windows);
    (*v)["sim.engine.windows"] = windows;
    (*v)["sim.engine.delivered_messages"] =
        static_cast<double>(r.engine.delivered_messages);
    (*v)["sim.engine.mailbox_spills"] =
        static_cast<double>(r.engine.mailbox_spills);
    (*v)["sim.engine.max_mailbox_occupancy"] =
        static_cast<double>(r.engine.max_mailbox_occupancy);
    (*v)["sim.engine.events_per_window"] =
        static_cast<double>(r.executed_events) / windows;
    (*v)["sim.engine.host_us_per_window"] = untraced_s * 1e6 / windows;
    (*v)["sim.engine.shard_imbalance"] =
        max_domain_events / (static_cast<double>(r.executed_events) / domains);
    (*v)["sim.engine.speedup_vs_serial"] = serial_s / untraced_s;
    (*v)["sim.engine.threads"] = static_cast<double>(threads_);
    (*v)["sim.host_ns_per_stepped_event"] =
        serial_s * 1e9 / static_cast<double>(serial.stepped_events);
    (*v)["trace_overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0;
  }

 private:
  RunOutcome Outcome(const dmasim::FleetResults& r) const {
    RunOutcome outcome;
    outcome.fingerprint = r.Fingerprint();
    outcome.sim_seconds = dmasim::TicksToSeconds(r.duration);
    const double base_energy = baseline_results_.energy.Total().joules();
    outcome.energy_saving_pct =
        (1.0 - r.energy.Total().joules() / base_energy) * 100.0;
    outcome.cp_degradation_pct =
        (r.client_response.Mean() / baseline_results_.client_response.Mean() -
         1.0) *
        100.0;
    outcome.energy_non_negative = EnergyNonNegative(r.energy);
    return outcome;
  }

  dmasim::FleetOptions baseline_;
  dmasim::FleetOptions managed_;
  dmasim::FleetOptions serial_;
  dmasim::FleetResults baseline_results_;
  int threads_ = 1;
};

}  // namespace

std::vector<std::string> FailedChecks(const RunOutcome& run,
                                      std::uint64_t reference_fingerprint) {
  std::vector<std::string> failed;
  if (run.compare_fingerprint && run.fingerprint != reference_fingerprint) {
    failed.push_back("fingerprint");
  }
  if (!(run.cp_degradation_pct <= kCpLimit * 100.0)) {
    failed.push_back("cp_limit");
  }
  if (!run.energy_non_negative) failed.push_back("energy_non_negative");
  if (!run.same_trace) failed.push_back("same_trace");
  return failed;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> metrics = {
      {"trace.generate_s", "s"},
      {"trace.records", "count"},
      {"server.ingress_s", "s"},
      {"server.requests", "count"},
      {"server.misses", "count"},
      {"server.cpu_accesses", "count"},
      {"server.response_mean_ms", "ms"},
      {"fleet.remote_sent", "count"},
      {"fleet.remote_completed", "count"},
      {"fleet.remote_response_mean_us", "us"},
      {"core.gated", "count"},
      {"core.releases_quorum", "count"},
      {"core.releases_slack", "count"},
      {"core.quorum_release_ratio", "ratio"},
      {"core.max_gated_bytes", "bytes"},
      {"core.migrations", "count"},
      {"core.deferred_migrations", "count"},
      {"core.transfer_latency_mean_us", "us"},
      {"core.chunk_service_mean_ns", "ns"},
      {"io.chunks_issued", "count"},
      {"io.transfers_started", "count"},
      {"mem.wakeups", "count"},
      {"mem.step_downs", "count"},
      {"mem.dma_requests", "count"},
      {"mem.cpu_requests", "count"},
      {"mem.policy_calls", "count"},
      {"mem.policy_s", "s"},
      {"mem.utilization_factor", "ratio"},
      {"mem.hottest_chip_share", "ratio"},
      {"mem.energy.active_serving_j", "J"},
      {"mem.energy.active_idle_dma_j", "J"},
      {"mem.energy.active_idle_threshold_j", "J"},
      {"mem.energy.transition_j", "J"},
      {"mem.energy.low_power_j", "J"},
      {"mem.energy.migration_j", "J"},
      {"sim.run_self_s", "s"},
      {"sim.executed_events", "count"},
      {"sim.stepped_events", "count"},
      {"sim.coalesce_ratio", "ratio"},
      {"sim.host_ns_per_stepped_event", "ns"},
      {"sim.bucket_loads", "count"},
      {"sim.cascades", "count"},
      {"sim.overflow_refills", "count"},
      {"sim.max_bucket_events", "count"},
      {"sim.engine.windows", "count"},
      {"sim.engine.delivered_messages", "count"},
      {"sim.engine.mailbox_spills", "count"},
      {"sim.engine.max_mailbox_occupancy", "count"},
      {"sim.engine.events_per_window", "count"},
      {"sim.engine.host_us_per_window", "us"},
      {"sim.engine.shard_imbalance", "ratio"},
      {"sim.engine.speedup_vs_serial", "ratio"},
      {"sim.engine.threads", "count"},
      {"mon.probes", "count"},
      {"mon.observations", "count"},
      {"mon.splits", "count"},
      {"mon.merges", "count"},
      {"mon.regions", "count"},
      {"mon.scheme_matches", "count"},
      {"mon.demotion_applied_ratio", "ratio"},
      {"mon.sim_overhead_pct", "%"},
      {"mon.hotness_error", "ratio"},
      {"mon.host_ratio", "ratio"},
      {"stats.collect_s", "s"},
      {"trace_overhead_pct", "%"},
  };
  return metrics;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const std::string& repo_root) {
  if (name == "oltp-st-mon") {
    const dmasim::SchemeParseResult schemes = dmasim::ParseSchemeFile(
        repo_root + "/examples/schemes/hot_cold.scheme");
    if (!schemes.ok() || schemes.rules.empty()) return nullptr;
    dmasim::WorkloadSpec spec = dmasim::OltpStorageSpec();
    spec.duration = 400 * dmasim::kMillisecond;
    spec.seed = DeriveSeed(seed, 0x5717ULL);
    return std::make_unique<SingleDomainWorkload>(spec, schemes.rules);
  }
  if (name == "oltp-db") {
    dmasim::WorkloadSpec spec = dmasim::OltpDatabaseSpec();
    spec.duration = 100 * dmasim::kMillisecond;
    spec.seed = DeriveSeed(seed, 0xdbULL);
    return std::make_unique<SingleDomainWorkload>(
        spec, std::vector<dmasim::SchemeRule>{});
  }
  if (name == "fleet-oltp-st") return std::make_unique<FleetWorkload>(seed);
  return nullptr;
}

}  // namespace dmabench
