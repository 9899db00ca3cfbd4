// dmasim_sweep — declarative design-space sweeps from the command line.
//
// Expands {workload x scheme x CP-Limit x policy x chips x buses x seed}
// into a run grid, executes it on all hardware threads (each run owns an
// isolated simulator; results are independent of the thread count), and
// emits a JSON artifact plus a human summary table.
//
// Examples:
//   dmasim_sweep --workloads oltp-st --schemes ta,ta-pl2
//                --cp-limits 0.02,0.05,0.10 --out fig5_oltp.json
//   dmasim_sweep --workloads synth-st --schemes ta-pl2 --chips 32,64,128
//                --seeds 1,2,3 --threads 4 --ndjson
//   dmasim_sweep --list
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "exp/result_sink.h"
#include "exp/sweep_runner.h"
#include "mon/scheme_parser.h"
#include "trace/workloads.h"
#include "util/cli_flags.h"
#include "util/thread_pool.h"

namespace {

using namespace dmasim;

struct NamedWorkload {
  const char* flag;
  WorkloadSpec (*make)();
};

const NamedWorkload kWorkloads[] = {
    {"oltp-st", OltpStorageSpec},   {"synth-st", SyntheticStorageSpec},
    {"oltp-db", OltpDatabaseSpec},  {"synth-db", SyntheticDatabaseSpec},
    {"dss", DssStorageSpec},
};

struct NamedPolicy {
  const char* flag;
  PolicyKind kind;
};

const NamedPolicy kPolicies[] = {
    {"dynamic", PolicyKind::kDynamic},
    {"static-standby", PolicyKind::kStaticStandby},
    {"static-nap", PolicyKind::kStaticNap},
    {"static-powerdown", PolicyKind::kStaticPowerdown},
    {"always-active", PolicyKind::kAlwaysActive},
};

std::vector<std::string> SplitCommas(const std::string& csv) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) {
      if (start < csv.size()) parts.push_back(csv.substr(start));
      break;
    }
    if (comma > start) parts.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

// Flag domains besides the shared ones in util/cli_flags.h.
constexpr int kMaxBuses = 1024;

constexpr FlagParser kFlags("dmasim_sweep");

[[noreturn]] void Fail(const std::string& message) { kFlags.Fail(message); }

void PrintUsage() {
  std::cout <<
      R"(Usage: dmasim_sweep [options]

Axes (comma-separated lists; the cross product is the run grid):
  --workloads LIST   oltp-st, synth-st, oltp-db, synth-db, dss
                     (default: oltp-st)
  --schemes LIST     baseline, ta, ta-plN (N = popularity groups, e.g.
                     ta-pl2). Baseline runs once per cell regardless.
                     (default: ta,ta-pl2)
  --cp-limits LIST   client-perceived degradation limits as fractions
                     in [0, 10] (default: 0.10)
  --policies LIST    dynamic, static-standby, static-nap,
                     static-powerdown, always-active (default: dynamic)
  --chips LIST       memory chip counts, 2..4096 (default: paper's 32);
                     a cell whose workload draws from more pages than
                     its chips hold fails as a run
  --buses LIST       I/O bus counts, 1..1024 (default: paper's 3)
  --seeds LIST       unsigned 64-bit RNG seeds for replicated runs
                     (default: preset seed)
  --chip-model NAME  chip power/timing model: rdram (paper Table 1,
                     default), rdram-corrected (origin-aware step-down
                     billing), ddr4 (DDR4-2400 power-down/self-refresh
                     cascade), sectored (fine-grained activation).
                     ddr4 excludes static-nap/static-powerdown policies.

Execution:
  --duration-ms N    simulated milliseconds per run, 1e-6..3.6e6
                     (default: preset)
  --threads N        worker threads, 0..1024 (default 0: all hardware
                     threads)
  --name NAME        sweep name recorded in the artifact (default: sweep)
  --audit            run every simulation under the level-2 invariant
                     auditor (abort on violation; see DESIGN.md §10)
  --monitor          estimate page popularity online with the region
                     monitor (src/mon) instead of the oracle per-page
                     tracker; scheme labels gain a "+mon" suffix and the
                     artifact a per-run "monitor" section
  --scheme-file PATH load declarative DAMOS-style scheme rules from PATH
                     (one rule per line; see DESIGN.md section 13) and
                     apply them at every aggregation; implies --monitor

Output:
  --out PATH         write the full JSON artifact to PATH
  --metrics-out PATH write per-run observability metrics (counters,
                     gauges, histograms) to PATH; enables obs level 1
  --trace-out PREFIX write one Chrome/Perfetto trace per run to
                     PREFIX-run<id>.json; enables obs level 2 (open in
                     https://ui.perfetto.dev)
  --ndjson           stream one compact JSON line per finished run
  --no-table         suppress the human summary table
  --list             print known workloads/schemes/policies and exit
  --help             this text
)";
}

void PrintCatalog() {
  std::cout << "workloads:";
  for (const NamedWorkload& workload : kWorkloads) {
    std::cout << ' ' << workload.flag;
  }
  std::cout << "\npolicies:";
  for (const NamedPolicy& policy : kPolicies) {
    std::cout << ' ' << policy.flag;
  }
  std::cout << "\nschemes: baseline ta ta-plN (N = 1.." << 32 << ")\n";
}

WorkloadSpec WorkloadByFlag(const std::string& flag) {
  for (const NamedWorkload& workload : kWorkloads) {
    if (flag == workload.flag) return workload.make();
  }
  Fail("unknown workload '" + flag + "'");
}

PolicyKind PolicyByFlag(const std::string& flag) {
  for (const NamedPolicy& policy : kPolicies) {
    if (flag == policy.flag) return policy.kind;
  }
  Fail("unknown policy '" + flag + "'");
}

SchemeSpec SchemeByFlag(const std::string& flag) {
  if (flag == "baseline") return BaselineScheme();
  if (flag == "ta") return TaScheme();
  if (flag.rfind("ta-pl", 0) == 0) {
    return TaPlScheme(
        kFlags.Integer("--schemes", flag.substr(5), 1, kMaxChips));
  }
  Fail("unknown scheme '" + flag + "'");
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentSpec spec;
  spec.schemes = {TaScheme(), TaPlScheme(2)};
  std::vector<std::string> workload_flags = {"oltp-st"};

  SweepOptions sweep_options;
  double duration_ms = 0.0;
  std::string out_path;
  std::string metrics_path;
  bool ndjson = false;
  bool table = true;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) Fail("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (arg == "--list") {
      PrintCatalog();
      return 0;
    } else if (arg == "--workloads") {
      workload_flags = SplitCommas(next());
    } else if (arg == "--schemes") {
      spec.schemes.clear();
      for (const std::string& flag : SplitCommas(next())) {
        spec.schemes.push_back(SchemeByFlag(flag));
      }
    } else if (arg == "--cp-limits") {
      spec.cp_limits.clear();
      for (const std::string& text : SplitCommas(next())) {
        spec.cp_limits.push_back(kFlags.Real(arg, text, 0.0, kMaxCpLimit));
      }
    } else if (arg == "--policies") {
      spec.policies.clear();
      for (const std::string& flag : SplitCommas(next())) {
        spec.policies.push_back(PolicyByFlag(flag));
      }
    } else if (arg == "--chips") {
      for (const std::string& text : SplitCommas(next())) {
        spec.chip_counts.push_back(
            kFlags.Integer(arg, text, kMinChips, kMaxChips));
      }
    } else if (arg == "--buses") {
      for (const std::string& text : SplitCommas(next())) {
        spec.bus_counts.push_back(kFlags.Integer(arg, text, 1, kMaxBuses));
      }
    } else if (arg == "--seeds") {
      for (const std::string& text : SplitCommas(next())) {
        spec.seeds.push_back(kFlags.Integer(
            arg, text, std::uint64_t{0},
            std::numeric_limits<std::uint64_t>::max()));
      }
    } else if (arg == "--chip-model") {
      const std::string name = next();
      const std::optional<ChipModelKind> kind = ParseChipModelKind(name);
      if (!kind.has_value()) {
        Fail("--chip-model needs rdram | rdram-corrected | ddr4 | sectored");
      }
      spec.base.memory.chip_model = *kind;
    } else if (arg == "--duration-ms") {
      duration_ms = kFlags.Real(arg, next(), kMinDurationMs, kMaxDurationMs);
    } else if (arg == "--threads") {
      sweep_options.threads = kFlags.Integer(arg, next(), 0, kMaxThreads);
    } else if (arg == "--name") {
      spec.name = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--metrics-out") {
      metrics_path = next();
      if (spec.base.obs_level < 1) spec.base.obs_level = 1;
    } else if (arg == "--trace-out") {
      sweep_options.trace_out_prefix = next();
      spec.base.obs_level = 2;
    } else if (arg == "--audit") {
      spec.base.audit_level = 2;
    } else if (arg == "--monitor") {
      spec.base.memory.monitor.enabled = true;
    } else if (arg == "--scheme-file") {
      const std::string path = next();
      const SchemeParseResult parsed = ParseSchemeFile(path);
      if (!parsed.ok()) Fail(parsed.error);
      spec.base.memory.monitor.rules = parsed.rules;
      spec.base.memory.monitor.enabled = true;
    } else if (arg == "--ndjson") {
      ndjson = true;
    } else if (arg == "--no-table") {
      table = false;
    } else {
      Fail("unknown option '" + arg + "'");
    }
  }

  if (workload_flags.empty()) Fail("no workloads selected");
  if (!out_path.empty()) {
    // Fail before the sweep runs, not after minutes of simulation.
    std::ofstream probe(out_path, std::ios::app);
    if (!probe.good()) Fail("cannot write to '" + out_path + "'");
  }
  for (const std::string& flag : workload_flags) {
    WorkloadSpec workload = WorkloadByFlag(flag);
    if (duration_ms > 0.0) {
      workload.duration = static_cast<Tick>(duration_ms * kMillisecond);
    }
    spec.workloads.push_back(std::move(workload));
  }

  SweepRunner runner(sweep_options);
  JsonFileSink json_sink(out_path);
  if (!out_path.empty()) runner.AddSink(&json_sink);
  MetricsFileSink metrics_sink(metrics_path);
  if (!metrics_path.empty()) runner.AddSink(&metrics_sink);
  NdjsonStreamSink ndjson_sink(&std::cout);
  if (ndjson) runner.AddSink(&ndjson_sink);
  SummaryTableSink table_sink(&std::cout);
  if (table) runner.AddSink(&table_sink);

  const SweepResults sweep = runner.Run(spec);
  if (!out_path.empty()) {
    std::cout << "artifact: " << out_path << '\n';
  }
  if (!metrics_path.empty()) {
    std::cout << "metrics: " << metrics_path << '\n';
  }
  return sweep.summary.failed == 0 ? 0 : 1;
}
