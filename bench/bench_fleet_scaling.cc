// Fleet scaling benchmark: one sharded simulation (8 memory-controller
// domains, cross-domain client traffic) run at 1, 2, 4, and 8 requested
// engine threads. Every run asserts the determinism invariant — the
// fleet fingerprint must match the serial run bit-for-bit — so a scaling
// regression can never silently trade correctness for speed.
//
// Pass --artifact-out=PATH to write the machine-readable JSON artifact
// (same shape as bench/baselines/BENCH_fleet.json) that the CI perf
// smoke job reads for its warn-only speedup check. Speedups are
// hardware-truth: RunFleet caps the team at the host's cores, so each
// row's `threads` is the team the run really had (the 8-thread row on a
// 4-core host reports 4), and on a single-core runner every row is
// serial.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "exp/json.h"

#include "bench_util.h"
#include "server/fleet_driver.h"
#include "trace/workloads.h"

namespace dmasim {
namespace {

FleetOptions BenchFleet() {
  FleetOptions options;
  options.workload = OltpStorageSpec();
  options.workload.duration = bench::Scaled(10 * kMillisecond);
  options.domains = 8;
  options.streams_per_domain = 1024;
  options.remote_fraction = 0.05;
  options.remote_latency = 20 * kMicrosecond;
  return options;
}

// The serial fingerprint, computed once; every threaded run must match.
std::uint64_t SerialFingerprint() {
  static const std::uint64_t fingerprint = [] {
    FleetOptions options = BenchFleet();
    options.sim_threads = 1;
    return RunFleet(options).Fingerprint();
  }();
  return fingerprint;
}

void BM_FleetRun(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  FleetOptions options = BenchFleet();
  options.sim_threads = threads;

  std::uint64_t events = 0;
  int used_threads = 0;
  for (auto _ : state) {
    const FleetResults results = RunFleet(options);
    events = results.executed_events;
    used_threads = results.engine.threads;
    if (results.Fingerprint() != SerialFingerprint()) {
      state.SkipWithError("fleet fingerprint diverged from serial");
      return;
    }
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * events));
  // The team the run really had: RunFleet caps the request at the
  // host's cores.
  state.counters["threads"] = static_cast<double>(used_threads);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * events),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FleetRun)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()  // Rates must reflect wall clock, not main-thread CPU.
    ->Unit(benchmark::kMillisecond);

// Collects per-thread-count timings and emits the JSON artifact with
// speedups relative to the 1-thread row.
class ArtifactReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration) continue;
      if (run.error_occurred) continue;
      const double ns_per_iter =
          run.real_accumulated_time * 1e9 /
          static_cast<double>(run.iterations > 0 ? run.iterations : 1);
      Entry entry;
      entry.name = run.benchmark_name();
      entry.ns_per_iter = ns_per_iter;
      const auto threads = run.counters.find("threads");
      if (threads != run.counters.end()) {
        entry.threads = static_cast<int>(threads->second.value);
      }
      const auto rate = run.counters.find("events_per_sec");
      if (rate != run.counters.end()) {
        entry.events_per_sec = rate->second.value;
      }
      entries_.push_back(entry);
    }
    ConsoleReporter::ReportRuns(reports);
  }

  Json Artifact() const {
    Json artifact = Json::Object();
    artifact.Set("artifact", "BENCH_fleet");
    artifact.Set("kernel",
                 "sharded calendar queues + conservative lookahead windows");
#ifdef NDEBUG
    artifact.Set("build_type", "Release");
#else
    artifact.Set("build_type", "Debug");
#endif
    // Provenance: the cores RunFleet could give a team on this host.
    artifact.Set("host_hardware_threads",
                 static_cast<double>(std::thread::hardware_concurrency()));
    // The first one-thread row is the serial run (BM_FleetRun/1); later
    // rows report one thread too on a single-core host.
    double serial_ns = 0.0;
    for (const Entry& entry : entries_) {
      if (entry.threads == 1) {
        serial_ns = entry.ns_per_iter;
        break;
      }
    }
    Json benchmarks = Json::Array();
    for (const Entry& entry : entries_) {
      Json row = Json::Object();
      row.Set("name", entry.name);
      row.Set("threads", static_cast<double>(entry.threads));
      row.Set("real_ns_per_iter", entry.ns_per_iter);
      row.Set("events_per_sec", entry.events_per_sec);
      row.Set("speedup_vs_serial",
              entry.ns_per_iter > 0.0 && serial_ns > 0.0
                  ? serial_ns / entry.ns_per_iter
                  : 0.0);
      benchmarks.Append(std::move(row));
    }
    artifact.Set("benchmarks", std::move(benchmarks));
    return artifact;
  }

 private:
  struct Entry {
    std::string name;
    int threads = 0;
    double ns_per_iter = 0.0;
    double events_per_sec = 0.0;
  };
  std::vector<Entry> entries_;
};

}  // namespace
}  // namespace dmasim

int main(int argc, char** argv) {
  std::string artifact_path;
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
