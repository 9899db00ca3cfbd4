#include "exp/result_sink.h"

#include <fstream>
#include <ostream>

#include "stats/table.h"
#include "util/check.h"

namespace dmasim {
namespace {

Json RunningMeanToJson(const RunningMean& mean) {
  Json json = Json::Object();
  json.Set("count", mean.Count());
  json.Set("mean", mean.Mean());
  json.Set("min", mean.Min());
  json.Set("max", mean.Max());
  return json;
}

Json MetricSampleToJson(const MetricSample& sample) {
  Json json = Json::Object();
  json.Set("component", sample.component);
  json.Set("name", sample.name);
  switch (sample.kind) {
    case MetricSample::Kind::kCounter:
      json.Set("kind", std::string("counter"));
      json.Set("count", sample.count);
      break;
    case MetricSample::Kind::kGauge:
      json.Set("kind", std::string("gauge"));
      json.Set("value", sample.value);
      break;
    case MetricSample::Kind::kHistogram: {
      json.Set("kind", std::string("histogram"));
      json.Set("lo", sample.lo);
      json.Set("hi", sample.hi);
      json.Set("total", sample.total);
      json.Set("nan_count", sample.nan_count);
      Json bins = Json::Array();
      for (std::uint64_t bin : sample.bins) bins.Append(bin);
      json.Set("bins", std::move(bins));
      break;
    }
  }
  return json;
}

}  // namespace

std::string RunStatusName(RunRecord::Status status) {
  switch (status) {
    case RunRecord::Status::kOk:
      return "ok";
    case RunRecord::Status::kFailed:
      return "failed";
    case RunRecord::Status::kSkipped:
      return "skipped";
  }
  return "?";
}

void ResultSink::OnRunComplete(const RunRecord&) {}
void ResultSink::OnSweepComplete(const SweepSummary&,
                                 const std::vector<RunRecord>&) {}

Json SimulationResultsToJson(const SimulationResults& results) {
  Json json = Json::Object();
  json.Set("workload", results.workload);
  json.Set("scheme", results.scheme);
  json.Set("duration_ticks", results.duration);

  Json energy = Json::Object();
  for (int i = 0; i < kEnergyBucketCount; ++i) {
    const auto bucket = static_cast<EnergyBucket>(i);
    energy.Set(std::string(EnergyBucketName(bucket)),
               results.energy.Of(bucket).joules());
  }
  energy.Set("total_joules", results.energy.Total().joules());
  json.Set("energy", std::move(energy));

  json.Set("utilization_factor", results.utilization_factor);
  json.Set("client_response_ticks", RunningMeanToJson(results.client_response));
  json.Set("chunk_service_ticks", RunningMeanToJson(results.chunk_service));
  json.Set("transfer_latency_ticks",
           RunningMeanToJson(results.transfer_latency));

  Json controller = Json::Object();
  controller.Set("transfers_started", results.controller.transfers_started);
  controller.Set("transfers_completed",
                 results.controller.transfers_completed);
  controller.Set("cpu_accesses", results.controller.cpu_accesses);
  controller.Set("migrations", results.controller.migrations);
  controller.Set("migration_rounds", results.controller.migration_rounds);
  controller.Set("deferred_migrations",
                 results.controller.deferred_migrations);
  json.Set("controller", std::move(controller));

  Json server = Json::Object();
  server.Set("reads", results.server.reads);
  server.Set("writes", results.server.writes);
  server.Set("hits", results.server.hits);
  server.Set("misses", results.server.misses);
  server.Set("cpu_accesses", results.server.cpu_accesses);
  json.Set("server", std::move(server));

  json.Set("gated_requests", results.gated_requests);
  json.Set("releases_by_quorum", results.releases_by_quorum);
  json.Set("releases_by_slack", results.releases_by_slack);
  json.Set("max_gated_buffer_bytes", results.max_gated_buffer_bytes);
  json.Set("executed_events", results.executed_events);
  json.Set("hottest_chip_share", results.hottest_chip_share);

  // Only observed runs carry a metrics section: default-options artifacts
  // stay byte-identical to the pre-observability format (the determinism
  // contract pins their serialized bytes).
  if (!results.metrics.empty()) {
    Json metrics = Json::Array();
    for (const MetricSample& sample : results.metrics) {
      metrics.Append(MetricSampleToJson(sample));
    }
    json.Set("metrics", std::move(metrics));
    json.Set("obs_events", results.obs_events);
    json.Set("obs_dropped_events", results.obs_dropped_events);
  }

  // Same contract for the access monitor: only monitored runs carry the
  // section, so default-options artifacts keep their pinned bytes.
  if (results.monitor.enabled) {
    Json monitor = Json::Object();
    monitor.Set("regions", results.monitor.regions);
    monitor.Set("probes", results.monitor.probes);
    monitor.Set("observations", results.monitor.observations);
    monitor.Set("splits", results.monitor.splits);
    monitor.Set("merges", results.monitor.merges);
    monitor.Set("aggregations", results.monitor.aggregations);
    monitor.Set("scheme_matches", results.monitor.scheme_matches);
    monitor.Set("demotions_requested", results.monitor.demotions_requested);
    monitor.Set("demotions_applied", results.monitor.demotions_applied);
    monitor.Set("overhead_fraction", results.monitor.overhead_fraction);
    monitor.Set("hotness_error", results.monitor.hotness_error);
    json.Set("monitor", std::move(monitor));
  }
  return json;
}

Json RunRecordToJson(const RunRecord& record, bool include_timing) {
  const RunPlan& plan = record.plan;
  Json json = Json::Object();
  json.Set("run_id", plan.run_id);
  json.Set("cell_id", plan.cell_id);
  json.Set("label", plan.Label());
  json.Set("status", RunStatusName(record.status));
  if (!record.error.empty()) json.Set("error", record.error);

  Json config = Json::Object();
  config.Set("workload", plan.workload.name);
  config.Set("scheme", plan.scheme.Label());
  config.Set("policy", PolicyKindName(plan.policy));
  config.Set("is_baseline", plan.is_baseline);
  if (!plan.is_baseline) {
    config.Set("cp_limit", plan.cp_limit);
    config.Set("mu", record.mu);
  }
  config.Set("chips", plan.options.memory.chips);
  config.Set("buses", plan.options.memory.bus_count);
  if (plan.options.memory.chip_model != ChipModelKind::kRdram) {
    // Default runs omit the key so pinned artifacts stay byte-identical.
    config.Set("chip_model",
               std::string(ChipModelKindName(plan.options.memory.chip_model)));
  }
  config.Set("seed", plan.workload.seed);
  config.Set("duration_ticks", plan.workload.duration);
  if (plan.epoch_length > 0) {
    config.Set("epoch_length_ticks", plan.epoch_length);
  }
  if (plan.gather_depth_factor > 0.0) {
    config.Set("gather_depth_factor", plan.gather_depth_factor);
  }
  json.Set("config", std::move(config));

  if (record.ok()) {
    json.Set("results", SimulationResultsToJson(record.results));
    if (record.has_baseline_delta) {
      json.Set("energy_savings_vs_baseline", record.energy_savings);
      json.Set("response_degradation_vs_baseline",
               record.response_degradation);
    }
  }
  if (include_timing) json.Set("wall_seconds", record.wall_seconds);
  return json;
}

Json SweepToJson(const SweepSummary& summary,
                 const std::vector<RunRecord>& records, bool include_timing) {
  Json json = Json::Object();
  json.Set("sweep", summary.name);
  json.Set("runs_ok", summary.ok);
  json.Set("runs_failed", summary.failed);
  json.Set("runs_skipped", summary.skipped);
  if (include_timing) {
    json.Set("threads", summary.threads);
    json.Set("wall_seconds", summary.wall_seconds);
  }
  Json runs = Json::Array();
  for (const RunRecord& record : records) {
    runs.Append(RunRecordToJson(record, include_timing));
  }
  json.Set("runs", std::move(runs));
  return json;
}

JsonFileSink::JsonFileSink(std::string path, bool include_timing)
    : path_(std::move(path)), include_timing_(include_timing) {}

void JsonFileSink::OnSweepComplete(const SweepSummary& summary,
                                   const std::vector<RunRecord>& records) {
  std::ofstream out(path_);
  DMASIM_CHECK_MSG(out.good(), "cannot open JSON artifact path");
  out << SweepToJson(summary, records, include_timing_).Dump(true) << '\n';
}

MetricsFileSink::MetricsFileSink(std::string path) : path_(std::move(path)) {}

void MetricsFileSink::OnSweepComplete(const SweepSummary& summary,
                                      const std::vector<RunRecord>& records) {
  Json json = Json::Object();
  json.Set("sweep", summary.name);
  Json runs = Json::Array();
  for (const RunRecord& record : records) {
    Json run = Json::Object();
    run.Set("run_id", record.plan.run_id);
    run.Set("label", record.plan.Label());
    run.Set("status", RunStatusName(record.status));
    Json metrics = Json::Array();
    if (record.ok()) {
      for (const MetricSample& sample : record.results.metrics) {
        metrics.Append(MetricSampleToJson(sample));
      }
    }
    run.Set("metrics", std::move(metrics));
    runs.Append(std::move(run));
  }
  json.Set("runs", std::move(runs));
  std::ofstream out(path_);
  DMASIM_CHECK_MSG(out.good(), "cannot open metrics artifact path");
  out << json.Dump(true) << '\n';
}

void NdjsonStreamSink::OnRunComplete(const RunRecord& record) {
  *out_ << RunRecordToJson(record).Dump(false) << '\n';
}

void SummaryTableSink::OnSweepComplete(const SweepSummary& summary,
                                       const std::vector<RunRecord>& records) {
  TablePrinter table({"run", "status", "energy mJ", "resp us", "uf",
                      "savings", "degr"});
  for (const RunRecord& record : records) {
    if (!record.ok()) {
      table.AddRow({record.plan.Label(), RunStatusName(record.status), "-",
                    "-", "-", "-", "-"});
      continue;
    }
    table.AddRow(
        {record.plan.Label(), RunStatusName(record.status),
         // J -> mJ for the report column only.
         // dmasim-lint: allow(unit-literal-conversion)
         TablePrinter::Num(record.results.energy.Total().joules() * 1e3, 1),
         TablePrinter::Num(record.results.client_response.Mean() /
                               kMicrosecond,
                           1),
         TablePrinter::Num(record.results.utilization_factor, 3),
         record.has_baseline_delta
             ? TablePrinter::Percent(record.energy_savings)
             : "-",
         record.has_baseline_delta
             ? TablePrinter::Percent(record.response_degradation)
             : "-"});
  }
  table.Print(*out_);
  *out_ << summary.ok << " ok, " << summary.failed << " failed, "
        << summary.skipped << " skipped in "
        << TablePrinter::Num(summary.wall_seconds, 2) << " s on "
        << summary.threads << " thread(s)\n";
}

}  // namespace dmasim
