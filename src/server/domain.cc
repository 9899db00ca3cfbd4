#include "server/domain.h"

#include <string>

namespace dmasim {

namespace {

ServerConfig WithMissRatio(ServerConfig config, double miss_ratio) {
  config.forced_miss_ratio = miss_ratio;
  return config;
}

}  // namespace

Domain::Domain(const SimulationOptions& options, double miss_ratio,
               const Trace& trace, const ShardedEngine* engine)
    : options_(options),
      trace_(trace),
      policy_(MakePolicy(options.policy, options.thresholds, options.memory)),
      controller_(&simulator_, options.memory, policy_.get()),
      server_(&simulator_, &controller_,
              WithMissRatio(options.server, miss_ratio)) {
  // One scan, before the first event: the records are in time order, and
  // each names a page inside the memory (one past it would abort mid-run,
  // in the controller's page map).
  const std::uint64_t pages = options.memory.TotalPages();
  for (std::size_t i = 0; i < trace_.size(); ++i) {
    const TraceRecord& record = trace_[i];
    DMASIM_EXPECTS(i == 0 || trace_[i - 1].time <= record.time);
    if (record.page >= pages) {
      const std::string message =
          "trace record " + std::to_string(i) + " (time " +
          std::to_string(record.time) + " ps) names page " +
          std::to_string(record.page) + ", but the memory holds " +
          std::to_string(pages) + " pages";
      DMASIM_CHECK_MSG(record.page < pages, message.c_str());
    }
  }
  if (!trace_.empty()) {
    simulator_.ScheduleAt(trace_[0].time, [this]() { Pump(); });
  }

  if (options.audit_level >= 1) {
    SimulationAudit::Options audit_options;
    audit_options.level = options.audit_level;
    audit_options.period = options.audit_period;
    audit_options.mode = options.audit_abort ? InvariantAuditor::Mode::kAbort
                                             : InvariantAuditor::Mode::kCollect;
    audit_options.reference_model = options.audit_reference_model;
    audit_ = std::make_unique<SimulationAudit>(&simulator_, &controller_,
                                               audit_options);
  }

  if (options.obs_level >= 1) {
    SimulationObserver::Options obs_options;
    obs_options.level = options.obs_level;
    obs_options.trace_capacity = options.obs_trace_capacity;
    obs_options.simulator = &simulator_;
    obs_options.engine = engine;  // Fleet-wide window and mailbox counters.
    observer_ = std::make_unique<SimulationObserver>(&controller_, &server_,
                                                     obs_options);
  }
}

// dmasim-lint: window-context
void Domain::Pump() {
  while (cursor_ < trace_.size() && trace_[cursor_].time <= simulator_.Now()) {
    const std::uint64_t position = cursor_;
    const TraceRecord& record = trace_[cursor_++];
    switch (record.kind) {
      case TraceEventKind::kClientRead:
        if (routed_ != nullptr && routed_->Serve(record, position)) break;
        server_.ClientRead(record.page, record.bytes);
        break;
      case TraceEventKind::kClientWrite:
        server_.ClientWrite(record.page, record.bytes);
        break;
      case TraceEventKind::kCpuAccess:
        server_.CpuAccess(record.page, record.bytes);
        break;
    }
  }
  if (cursor_ < trace_.size()) {
    simulator_.ScheduleAt(trace_[cursor_].time, [this]() { Pump(); });
  }
}

SimulationResults Domain::Collect(const std::string& workload) {
  SimulationResults results;
  results.workload = workload;
  results.scheme =
      SchemeName(options_.memory) + "/" + PolicyKindName(options_.policy);
  if (audit_ != nullptr) {
    audit_->Finish();
    results.audit_checks = audit_->auditor().checks_run();
    results.audit_failures = audit_->auditor().failures().size();
  }
  CollectRunResults(&simulator_, &controller_, &server_, &results);
  if (observer_ != nullptr) {
    observer_->Finish();
    results.metrics = observer_->SnapshotMetrics();
    if (observer_->tracer() != nullptr) {
      results.obs_events = observer_->tracer()->size();
      results.obs_dropped_events = observer_->tracer()->dropped();
    }
  }
  return results;
}

}  // namespace dmasim
