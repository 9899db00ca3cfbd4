// dmabench: the repository benchmark's measuring program.
//
//   dmabench --workload NAME --seed N --seconds S --trace 0|1
//            [--repo-root DIR] [--commit ID] [--source-digest HEX]
//            [--spans-out PATH]
//
// Sets the workload up from the seed at least five times and for at least
// two seconds (setup_s is the median), runs the managed configuration once
// untimed as the check reference and warm-up, then for S seconds either
// times untraced managed runs (--trace 0: end-to-end metrics) or runs
// traced rounds (--trace 1: per-layer metrics). End-to-end host times are
// quoted at the reference host speed measured by HostProbe (probe.h); the
// wall-clock medians are in the detail line. Every run's outputs are
// checked; a failed check is counted, not fatal. The last stdout line is
// the result object {"correct", "attempted", "failed", "metrics"}; the
// line before it ("detail: {...}") carries provenance, sample counts and
// check names.
//
// Refuses to measure (exit 2) a library built with auditing,
// observability or schedule fuzzing compiled in, or without
// optimization: those builds measure a different program.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "audit/audit_config.h"
#include "exp/json.h"
#include "obs/obs_config.h"
#include "probe.h"
#include "sim/sched_fuzz.h"
#include "spans.h"
#include "workloads.h"

namespace dmabench {
namespace {

using Clock = std::chrono::steady_clock;
using dmasim::Json;

// Setup repeats at least kMinSetups times and until kMinSetupSeconds have
// passed, so that short setups are still a median of many.
constexpr int kMinSetups = 5;
constexpr double kMinSetupSeconds = 2.0;
constexpr int kMinSamples = 3;
// Span records kept for the CSV; totals cover every span regardless.
constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;

// Empty when the library build measures the shipped program.
const char* BuildRefusal() {
#if DMASIM_AUDIT_LEVEL != 0
  return "library built with DMASIM_AUDIT_LEVEL != 0";
#elif DMASIM_OBS != 0
  return "library built with DMASIM_OBS != 0";
#elif DMASIM_SCHED_FUZZ != 0
  return "library built with DMASIM_SCHED_FUZZ != 0";
#elif !defined(__OPTIMIZE__)
  return "library built without optimization";
#else
  return "";
#endif
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string repo_root = ".";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--repo-root") {
      args->repo_root = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && have_seed &&
         args->seconds > 0.0 && args->trace >= 0;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

Json Metric(double value, const char* unit) {
  Json metric = Json::Object();
  metric.Set("value", value);
  metric.Set("unit", unit);
  return metric;
}

class Checker {
 public:
  explicit Checker(std::uint64_t reference) : reference_(reference) {}

  void Record(const RunOutcome& run) {
    RecordFailures(FailedChecks(run, reference_));
  }
  // One attempt that failed the named checks (none = passed).
  void RecordFailures(const std::vector<std::string>& failed) {
    ++attempted_;
    if (!failed.empty()) ++failed_;
    for (const std::string& check : failed) ++by_check_[check];
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  Json ByCheck() const {
    Json out = Json::Object();
    for (const auto& [check, count] : by_check_) out.Set(check, count);
    return out;
  }

 private:
  std::uint64_t reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::uint64_t> by_check_;
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: dmabench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--repo-root DIR] [--commit ID] "
                 "[--source-digest HEX] [--spans-out PATH]\n";
    return 2;
  }
  const std::string refusal = BuildRefusal();
  if (!refusal.empty()) {
    std::cerr << "dmabench: refusing to measure: " << refusal << "\n";
    return 2;
  }
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seed, args.repo_root);
  if (workload == nullptr) {
    std::cerr << "dmabench: unknown workload or unreadable scheme file: "
              << args.workload << "\n";
    return 2;
  }

  // Every timed interval is bracketed by host-speed probes; its host
  // seconds are quoted at the reference speed, using the mean of the
  // probes before and after it (probe.h).
  HostProbe probe(workload->threads());
  double speed_before = probe.RelativeSpeed();
  auto reference_seconds = [&probe, &speed_before](double host_s) {
    const double speed_after = probe.RelativeSpeed();
    const double speed = 0.5 * (speed_before + speed_after);
    speed_before = speed_after;
    return host_s * speed;
  };

  std::vector<double> setup_times;
  std::vector<double> raw_setup_times;
  double setup_total = 0.0;
  while (setup_times.size() < kMinSetups || setup_total < kMinSetupSeconds) {
    const Clock::time_point start = Clock::now();
    workload->Setup();
    const double host_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    raw_setup_times.push_back(host_s);
    setup_times.push_back(reference_seconds(host_s));
    setup_total += host_s;
  }

  std::vector<std::string> reference_failures;
  const RunOutcome reference = workload->Reference(&reference_failures);
  Checker checker(reference.fingerprint);
  checker.RecordFailures(reference_failures);

  // Printed by name with its unit; `in_result` ones also go into the
  // result object. cp_degradation_pct can be 0 or negative and
  // fail_ratio is 0 on a correct run, so the result carries them as
  // client_response_ratio and attempted/failed instead.
  struct Reported {
    std::string name;
    double value;
    const char* unit;
    bool in_result = true;
  };
  std::vector<Reported> reported;
  Json detail = Json::Object();
  const Clock::time_point measure_start = Clock::now();
  auto elapsed = [&measure_start]() {
    return std::chrono::duration<double>(Clock::now() - measure_start).count();
  };

  if (args.trace == 0) {
    std::vector<double> speeds;
    std::vector<double> raw_speeds;
    while (speeds.size() < kMinSamples || elapsed() < args.seconds) {
      const Clock::time_point start = Clock::now();
      const RunOutcome run = workload->RunManaged();
      const double host_s =
          std::chrono::duration<double>(Clock::now() - start).count();
      checker.Record(run);
      raw_speeds.push_back(run.sim_seconds / host_s);
      speeds.push_back(run.sim_seconds / reference_seconds(host_s));
    }
    reported.push_back({"sim_s_per_host_s", Median(speeds), "s/s"});
    reported.push_back({"setup_s", Median(setup_times), "s"});
    reported.push_back({"peak_rss_mib", PeakRssMib(), "MiB"});
    reported.push_back(
        {"energy_saving_pct", reference.energy_saving_pct, "%"});
    reported.push_back({"client_response_ratio",
                        1.0 + reference.cp_degradation_pct / 100.0, "ratio"});
    reported.push_back(
        {"cp_degradation_pct", reference.cp_degradation_pct, "%", false});

    // The sample count, the slowest sample that still has ten samples
    // beyond it, and the unnormalized medians.
    std::sort(speeds.begin(), speeds.end());
    detail.Set("sim_s_per_host_s_samples", speeds.size());
    detail.Set("sim_s_per_wall_s", Median(raw_speeds));
    detail.Set("setup_wall_s", Median(raw_setup_times));
    if (speeds.size() > 10) {
      detail.Set("sim_s_per_host_s_tail_exceedance_pct",
                 100.0 * static_cast<double>(speeds.size() - 10) /
                     static_cast<double>(speeds.size()));
      detail.Set("sim_s_per_host_s_tail", speeds[10]);
    }
  } else {
    SpanRecorder spans(kSpanCapacity);
    std::map<std::string, std::vector<double>> rounds;
    int round_count = 0;
    while (round_count < kMinSamples || elapsed() < args.seconds) {
      std::vector<RunOutcome> runs;
      LayerValues values;
      workload->TraceRound(&spans, &runs, &values);
      for (const RunOutcome& run : runs) checker.Record(run);
      for (const auto& [name, value] : values) rounds[name].push_back(value);
      ++round_count;
    }
    for (const MetricDef& def : PerLayerMetrics()) {
      const auto it = rounds.find(def.name);
      reported.push_back(
          {def.name, it == rounds.end() ? 0.0 : Median(it->second), def.unit});
    }
    detail.Set("trace_rounds", round_count);
    detail.Set("span_records", spans.recorded());
    detail.Set("span_records_dropped", spans.dropped());
    if (!args.spans_out.empty() && !spans.WriteCsv(args.spans_out)) {
      std::cerr << "dmabench: cannot write " << args.spans_out << "\n";
      return 2;
    }
  }

  const double fail_ratio = static_cast<double>(checker.failed()) /
                            static_cast<double>(checker.attempted());
  detail.Set("workload", args.workload);
  detail.Set("seed", args.seed);
  detail.Set("trace", args.trace);
  detail.Set("seconds", args.seconds);
  detail.Set("failed_checks", checker.ByCheck());
  detail.Set("setup_repeats", setup_times.size());
  detail.Set("cpu_count",
             static_cast<int>(std::thread::hardware_concurrency()));
  detail.Set("compiler", __VERSION__);
  detail.Set("build_type", DMABENCH_BUILD_TYPE);
  detail.Set("build_flags", DMABENCH_CXX_FLAGS);
  detail.Set("commit", args.commit);
  detail.Set("source_digest", args.source_digest);

  reported.push_back({"fail_ratio", fail_ratio, "ratio", false});
  Json metrics = Json::Object();
  for (const Reported& metric : reported) {
    std::cout << args.workload << " " << metric.name << " = " << metric.value
              << " " << metric.unit << "\n";
    if (metric.in_result) {
      metrics.Set(metric.name, Metric(metric.value, metric.unit));
    }
  }
  std::cout << "detail: " << detail.Dump(false) << "\n";

  Json result = Json::Object();
  result.Set("correct", checker.failed() == 0);
  result.Set("attempted", checker.attempted());
  result.Set("failed", checker.failed());
  result.Set("metrics", std::move(metrics));
  std::cout << result.Dump(false) << std::endl;
  return 0;
}

}  // namespace
}  // namespace dmabench

int main(int argc, char** argv) { return dmabench::Main(argc, argv); }
