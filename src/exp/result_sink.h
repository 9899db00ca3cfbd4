// Result capture for experiment sweeps.
//
// The runner produces one `RunRecord` per grid entry — the resolved
// plan, the simulation results, run status (a failed configuration is
// recorded, not fatal), and the derived deltas against the cell's
// baseline. `ResultSink`s observe records twice:
//
//   * `OnRunComplete` fires as each run finishes, serialized by the
//     runner (never concurrently), in completion order — which depends
//     on thread scheduling. Streaming sinks (NDJSON) hang off this.
//   * `OnSweepComplete` fires once with all records sorted by run id —
//     a thread-count-independent view. Artifact and table sinks use it,
//     which is why a parallel sweep's JSON artifact is byte-identical
//     to the serial one (timing fields aside).
#ifndef DMASIM_EXP_RESULT_SINK_H_
#define DMASIM_EXP_RESULT_SINK_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "exp/experiment_spec.h"
#include "exp/json.h"
#include "server/simulation_driver.h"

namespace dmasim {

struct RunRecord {
  enum class Status : int {
    kOk = 0,
    kFailed,   // Invalid configuration or an execution error.
    kSkipped,  // Cell baseline failed, so mu could not be calibrated.
  };

  RunPlan plan;
  Status status = Status::kOk;
  std::string error;

  double mu = 0.0;           // Resolved slack budget (0 for baselines).
  // Host wall-clock measurement, not simulated time: raw by design.
  double wall_seconds = 0.0;  // dmasim-lint: allow(raw-unit-decl)
  SimulationResults results; // Valid only when status == kOk.

  // Deltas vs the cell baseline (valid when both runs are ok).
  bool has_baseline_delta = false;
  double energy_savings = 0.0;
  double response_degradation = 0.0;

  bool ok() const { return status == Status::kOk; }
};

std::string RunStatusName(RunRecord::Status status);

struct SweepSummary {
  std::string name;
  int threads = 0;
  int ok = 0;
  int failed = 0;
  int skipped = 0;
  double wall_seconds = 0.0;  // dmasim-lint: allow(raw-unit-decl) host clock
};

class ResultSink {
 public:
  virtual ~ResultSink() = default;

  // Streaming hook; completion order, never called concurrently.
  virtual void OnRunComplete(const RunRecord& record);

  // Final hook; `records` is sorted by run id.
  virtual void OnSweepComplete(const SweepSummary& summary,
                               const std::vector<RunRecord>& records);
};

// JSON serialization used by the sinks (and by tests asserting the
// determinism contract). `include_timing` gates host wall-clock fields,
// which are the only run-to-run nondeterministic values in a record.
Json SimulationResultsToJson(const SimulationResults& results);
Json RunRecordToJson(const RunRecord& record, bool include_timing = true);
Json SweepToJson(const SweepSummary& summary,
                 const std::vector<RunRecord>& records,
                 bool include_timing = true);

// Writes the whole sweep as one pretty-printed JSON document when the
// sweep completes.
class JsonFileSink : public ResultSink {
 public:
  explicit JsonFileSink(std::string path, bool include_timing = true);

  void OnSweepComplete(const SweepSummary& summary,
                       const std::vector<RunRecord>& records) override;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  bool include_timing_;
};

// Writes only the per-run metrics sections (observability registry
// snapshots) as one JSON document when the sweep completes. Runs without
// metrics (obs disabled or failed) are listed with an empty array.
class MetricsFileSink : public ResultSink {
 public:
  explicit MetricsFileSink(std::string path);

  void OnSweepComplete(const SweepSummary& summary,
                       const std::vector<RunRecord>& records) override;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Streams one compact JSON object per line as runs complete (completion
// order; use the JsonFileSink artifact for the canonical ordering).
class NdjsonStreamSink : public ResultSink {
 public:
  explicit NdjsonStreamSink(std::ostream* out) : out_(out) {}

  void OnRunComplete(const RunRecord& record) override;

 private:
  std::ostream* out_;
};

// Prints a human summary table (one row per run) plus totals.
class SummaryTableSink : public ResultSink {
 public:
  explicit SummaryTableSink(std::ostream* out) : out_(out) {}

  void OnSweepComplete(const SweepSummary& summary,
                       const std::vector<RunRecord>& records) override;

 private:
  std::ostream* out_;
};

}  // namespace dmasim

#endif  // DMASIM_EXP_RESULT_SINK_H_
