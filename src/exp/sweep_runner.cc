#include "exp/sweep_runner.h"

#include <chrono>
#include <exception>
#include <utility>

#include "util/check.h"
#include "util/thread_pool.h"

namespace dmasim {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

const RunRecord* SweepResults::FindBaseline(int cell_id) const {
  for (const RunRecord& record : records) {
    if (record.plan.cell_id == cell_id && record.plan.is_baseline) {
      return &record;
    }
  }
  return nullptr;
}

const RunRecord* SweepResults::Find(
    const std::function<bool(const RunPlan&)>& pred) const {
  for (const RunRecord& record : records) {
    if (pred(record.plan)) return &record;
  }
  return nullptr;
}

const RunRecord* SweepResults::Find(const std::string& workload,
                                    const SchemeSpec& scheme,
                                    double cp_limit) const {
  return Find([&](const RunPlan& plan) {
    if (plan.workload.name != workload) return false;
    if (cp_limit < 0.0) return plan.is_baseline;
    return !plan.is_baseline && plan.scheme == scheme &&
           plan.cp_limit == cp_limit;
  });
}

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {}

void SweepRunner::AddSink(ResultSink* sink) {
  DMASIM_EXPECTS(sink != nullptr);
  sinks_.push_back(sink);
}

void SweepRunner::Notify(const RunRecord& record) {
  std::lock_guard<std::mutex> lock(sink_mutex_);
  for (ResultSink* sink : sinks_) sink->OnRunComplete(record);
}

SweepResults SweepRunner::Run(const ExperimentSpec& spec) {
  const auto sweep_start = std::chrono::steady_clock::now();
  RunGrid grid = ExpandGrid(spec);

  SweepResults sweep;
  sweep.records.resize(grid.runs.size());
  for (std::size_t i = 0; i < grid.runs.size(); ++i) {
    sweep.records[i].plan = std::move(grid.runs[i]);
    if (!options_.trace_out_prefix.empty()) {
      RunPlan& plan = sweep.records[i].plan;
      plan.options.obs_trace_path = options_.trace_out_prefix + "-run" +
                                    std::to_string(plan.run_id) + ".json";
    }
  }

  // Executes one run into its own record slot. Concurrent tasks touch
  // disjoint slots; the baseline pointer (phase 2 deltas) is read-only
  // by the time dependents run.
  const auto execute = [this](RunRecord* record, const RunRecord* baseline) {
    const auto start = std::chrono::steady_clock::now();
    const std::string problem = ValidateOptions(record->plan.options);
    if (!problem.empty()) {
      record->status = RunRecord::Status::kFailed;
      record->error = problem;
    } else {
      try {
        record->results =
            RunWorkload(record->plan.workload, record->plan.options);
        record->status = RunRecord::Status::kOk;
      } catch (const std::exception& e) {
        record->status = RunRecord::Status::kFailed;
        record->error = e.what();
      } catch (...) {
        record->status = RunRecord::Status::kFailed;
        record->error = "unknown execution error";
      }
    }
    if (record->ok() && baseline != nullptr && baseline->ok()) {
      record->has_baseline_delta = true;
      record->energy_savings =
          record->results.EnergySavingsVs(baseline->results);
      record->response_degradation =
          record->results.ResponseDegradationVs(baseline->results);
    }
    record->wall_seconds = SecondsSince(start);
    Notify(*record);
  };

  ThreadPool pool(options_.threads);
  sweep.summary.name = spec.name;
  sweep.summary.threads = pool.thread_count();

  // Phase 1: baselines.
  for (RunRecord& record : sweep.records) {
    if (!record.plan.is_baseline) continue;
    RunRecord* slot = &record;
    pool.Submit([&execute, slot]() { execute(slot, nullptr); });
  }
  pool.Wait();

  // Calibrate each cell from its baseline.
  std::vector<const RunRecord*> baselines(
      static_cast<std::size_t>(grid.cell_count), nullptr);
  std::vector<CpCalibration> calibrations(
      static_cast<std::size_t>(grid.cell_count));
  for (const RunRecord& record : sweep.records) {
    if (!record.plan.is_baseline) continue;
    const auto cell = static_cast<std::size_t>(record.plan.cell_id);
    baselines[cell] = &record;
    if (record.ok()) calibrations[cell] = Calibrate(record.results);
  }

  // Phase 2: TA / TA-PL runs with mu resolved from the calibration.
  for (RunRecord& record : sweep.records) {
    if (record.plan.is_baseline) continue;
    const auto cell = static_cast<std::size_t>(record.plan.cell_id);
    const RunRecord* baseline = baselines[cell];
    if (baseline == nullptr || !baseline->ok()) {
      record.status = RunRecord::Status::kSkipped;
      record.error = "cell baseline failed: " +
                     (baseline != nullptr ? baseline->error
                                          : std::string("missing"));
      Notify(record);
      continue;
    }
    record.mu = calibrations[cell].MuFor(record.plan.cp_limit);
    record.plan.options.memory.dma.ta.mu = record.mu;
    RunRecord* slot = &record;
    pool.Submit([&execute, slot, baseline]() { execute(slot, baseline); });
  }
  pool.Wait();

  for (const RunRecord& record : sweep.records) {
    switch (record.status) {
      case RunRecord::Status::kOk:
        ++sweep.summary.ok;
        break;
      case RunRecord::Status::kFailed:
        ++sweep.summary.failed;
        break;
      case RunRecord::Status::kSkipped:
        ++sweep.summary.skipped;
        break;
    }
  }
  sweep.summary.wall_seconds = SecondsSince(sweep_start);

  for (ResultSink* sink : sinks_) {
    sink->OnSweepComplete(sweep.summary, sweep.records);
  }
  return sweep;
}

}  // namespace dmasim
