// Google-benchmark coverage for the online access monitor: the
// wall-clock cost of a monitored end-to-end simulation against the
// unmonitored run (the host-side analogue of the simulated overhead
// fraction), plus microbenchmarks of the monitor's three hot paths --
// observation with sample-guided splits, the aggregation pass, and
// per-page materialization for the layout planner.
//
// Pass --artifact-out=PATH to additionally write a machine-readable JSON
// artifact (same shape as bench/baselines/BENCH_monitor.json) that the
// CI perf smoke job diffs against the committed baseline.
#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "exp/json.h"

#include "mon/region_monitor.h"
#include "mon/scheme_parser.h"
#include "server/simulation_driver.h"
#include "trace/workloads.h"
#include "util/random.h"

namespace dmasim {
namespace {

SimulationOptions PlOptions() {
  SimulationOptions options;
  options.memory.dma.ta.enabled = true;
  options.memory.dma.ta.mu = 20.0;
  options.memory.dma.pl.enabled = true;
  return options;
}

std::vector<SchemeRule> DefaultRules() {
  const SchemeParseResult schemes = ParseSchemeString(
      "1 1 8 * 0 migrate-hot\n"
      "64 * 0 1 4 pin-cold\n"
      "* * 0 0 8 demote-chip\n");
  return schemes.rules;
}

void BM_EndToEndUnmonitored(benchmark::State& state) {
  WorkloadSpec spec = OltpStorageSpec();
  spec.duration = 50 * kMillisecond;
  const Trace trace = GenerateWorkload(spec);
  const SimulationOptions options = PlOptions();
  for (auto _ : state) {
    const SimulationResults results =
        RunTrace(trace, spec.miss_ratio, spec.duration, options, spec.name);
    benchmark::DoNotOptimize(results.energy.Total());
  }
}
BENCHMARK(BM_EndToEndUnmonitored)->Unit(benchmark::kMillisecond);

void BM_EndToEndMonitored(benchmark::State& state) {
  WorkloadSpec spec = OltpStorageSpec();
  spec.duration = 50 * kMillisecond;
  const Trace trace = GenerateWorkload(spec);
  SimulationOptions options = PlOptions();
  options.memory.monitor.enabled = true;
  options.memory.monitor.rules = DefaultRules();
  double overhead = 0.0;
  for (auto _ : state) {
    const SimulationResults results =
        RunTrace(trace, spec.miss_ratio, spec.duration, options, spec.name);
    benchmark::DoNotOptimize(results.energy.Total());
    overhead = results.monitor.overhead_fraction;
  }
  // The simulated monitoring cost, next to the host-side cost the timing
  // columns report (the ISSUE gate holds this below 1%).
  state.counters["simulated_overhead"] = overhead;
}
BENCHMARK(BM_EndToEndMonitored)->Unit(benchmark::kMillisecond);

// One probe's worth of work at a configured in-flight population:
// binary-search attribution plus any sample-guided split.
void BM_MonitorObserve(benchmark::State& state) {
  const int in_flight = static_cast<int>(state.range(0));
  MonitorConfig config;
  config.enabled = true;
  RegionMonitor monitor(config, /*pages=*/131072, /*chips=*/16);
  Rng rng(7);
  std::vector<std::uint64_t> pages;
  for (int i = 0; i < 4096; ++i) {
    pages.push_back(rng.NextBounded(131072));
  }
  std::size_t cursor = 0;
  Tick now = 0;
  for (auto _ : state) {
    // Each iteration is one armed probe: its tick's charge plus the
    // attribution of every unseen in-flight transfer.
    now += config.sampling_interval;
    monitor.ChargeProbesThrough(now);
    for (int i = 0; i < in_flight; ++i) {
      const std::uint64_t page = pages[cursor++ % pages.size()];
      monitor.ObserveTransfer(page, static_cast<int>(page % 16));
    }
    benchmark::DoNotOptimize(monitor.regions().size());
  }
  state.SetItemsProcessed(state.iterations() * in_flight);
}
BENCHMARK(BM_MonitorObserve)->Arg(1)->Arg(16);

void BM_MonitorAggregate(benchmark::State& state) {
  MonitorConfig config;
  config.enabled = true;
  config.rules = DefaultRules();
  RegionMonitor monitor(config, /*pages=*/131072, /*chips=*/16);
  // Populate a realistic region map: enough samples to fill the budget.
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t page = rng.NextBounded(131072);
    monitor.ObserveTransfer(page, static_cast<int>(page % 16));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.Aggregate().size());
  }
}
BENCHMARK(BM_MonitorAggregate);

void BM_MonitorMaterialize(benchmark::State& state) {
  MonitorConfig config;
  config.enabled = true;
  config.rules = DefaultRules();
  RegionMonitor monitor(config, /*pages=*/131072, /*chips=*/16);
  Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t page = rng.NextBounded(131072);
    monitor.ObserveTransfer(page, static_cast<int>(page % 16));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.MaterializeRuns().size());
  }
}
BENCHMARK(BM_MonitorMaterialize);

// Console reporter that also collects per-iteration real times so the
// run can be dumped as a deterministic JSON artifact.
class ArtifactReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration) continue;  // Skip aggregates.
      if (run.error_occurred) continue;
      const double ns_per_iter =
          run.real_accumulated_time * 1e9 /
          static_cast<double>(run.iterations > 0 ? run.iterations : 1);
      entries_.emplace_back(run.benchmark_name(), ns_per_iter);
    }
    ConsoleReporter::ReportRuns(reports);
  }

  Json Artifact() const {
    Json artifact = Json::Object();
    artifact.Set("artifact", "BENCH_monitor");
    artifact.Set("kernel",
                 "armed occupancy probes + sample-guided splits + density "
                 "merge");
#ifdef NDEBUG
    artifact.Set("build_type", "Release");
#else
    artifact.Set("build_type", "Debug");
#endif
    Json benchmarks = Json::Array();
    for (const auto& [name, ns] : entries_) {
      Json entry = Json::Object();
      entry.Set("name", name);
      entry.Set("real_ns_per_iter", ns);
      benchmarks.Append(std::move(entry));
    }
    artifact.Set("benchmarks", std::move(benchmarks));
    return artifact;
  }

 private:
  std::vector<std::pair<std::string, double>> entries_;
};

}  // namespace
}  // namespace dmasim

int main(int argc, char** argv) {
  std::string artifact_path;
  // Peel off --artifact-out before google-benchmark sees the arguments.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char kFlag[] = "--artifact-out=";
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      artifact_path = argv[i] + sizeof(kFlag) - 1;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  dmasim::ArtifactReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!artifact_path.empty()) {
    std::ofstream out(artifact_path);
    if (!out) {
      std::fprintf(stderr, "cannot open artifact path: %s\n",
                   artifact_path.c_str());
      return 1;
    }
    out << reporter.Artifact().Dump() << "\n";
  }
  return 0;
}
