// DMA-TA vs. modern DRAM: does the paper's technique survive the move
// from RDRAM Table 1 to present-day chip power models?
//
// For each workload (OLTP and DSS storage) and each member of the chip
// power-model family (rdram, rdram-corrected, ddr4, sectored), runs the
// no-power-management baseline and calibrated DMA-TA, then reports the
// figure the paper leads with -- energy savings at bounded
// client-perceived degradation -- side by side across models. The DDR4
// runs rescale the I/O buses to one third of that chip's 4.8 GB/s
// bandwidth so the paper's 3x memory-to-bus ratio (and therefore the
// alignment quorum k = 3) is preserved and the comparison isolates the
// power model, not the topology.
//
// Usage: modern_memory_eval [duration_ms] [cp_limit] [--out FILE.json]
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "exp/json.h"
#include "server/simulation_driver.h"
#include "stats/table.h"
#include "trace/workloads.h"
#include "util/cli_flags.h"

int main(int argc, char** argv) {
  using namespace dmasim;

  constexpr FlagParser kFlags(
      "modern_memory_eval",
      "usage: modern_memory_eval [duration_ms] [cp_limit] [--out FILE.json]");
  Tick duration = 400 * kMillisecond;
  double cp_limit = 0.10;
  std::string out_path;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (positional == 0) {
      duration = kFlags.Milliseconds("duration_ms", argv[i]);
      ++positional;
    } else {
      cp_limit = kFlags.Real("cp_limit", argv[i], 0.0, kMaxCpLimit);
    }
  }

  std::cout << "modern memory eval: " << duration / kMillisecond
            << " ms per run, CP-Limit " << cp_limit << "\n\n";

  std::vector<WorkloadSpec> workloads = {OltpStorageSpec(), DssStorageSpec()};
  for (WorkloadSpec& spec : workloads) spec.duration = duration;

  TablePrinter table({"workload", "chip model", "baseline mJ", "DMA-TA mJ",
                      "savings", "degradation", "k"});
  Json rows = Json::Array();

  for (const WorkloadSpec& spec : workloads) {
    const Trace trace = GenerateWorkload(spec);
    for (ChipModelKind kind : kAllChipModelKinds) {
      SimulationOptions options;
      options.memory.chip_model = kind;
      // Keep the paper's bus:memory bandwidth ratio under every model,
      // so k = ceil(Rm/Rb) stays 3 and DMA-TA's gathering geometry is
      // the one the paper analyzes.
      options.memory.bus_bandwidth = options.memory.MemoryBandwidth() / 3.0;

      const SimulationResults baseline = RunTrace(
          trace, spec.miss_ratio, spec.duration, options, spec.name);
      const CpCalibration calibration = Calibrate(baseline);

      SimulationOptions ta_options = options;
      ta_options.memory.dma.ta.enabled = true;
      ta_options.memory.dma.ta.mu = calibration.MuFor(cp_limit);
      const SimulationResults ta = RunTrace(
          trace, spec.miss_ratio, spec.duration, ta_options, spec.name);

      const double savings = ta.EnergySavingsVs(baseline);
      const double degradation = ta.ResponseDegradationVs(baseline);
      const int quorum = options.memory.AlignmentQuorum();
      const std::string model_name{ChipModelKindName(kind)};
      table.AddRow({spec.name, model_name,
                    TablePrinter::Num(baseline.energy.Total().joules() * 1e3,
                                      2),
                    TablePrinter::Num(ta.energy.Total().joules() * 1e3, 2),
                    TablePrinter::Percent(savings),
                    TablePrinter::Percent(degradation),
                    std::to_string(quorum)});

      Json row = Json::Object();
      row.Set("workload", spec.name);
      row.Set("chip_model", model_name);
      row.Set("baseline_joules", baseline.energy.Total().joules());
      row.Set("ta_joules", ta.energy.Total().joules());
      row.Set("energy_savings", savings);
      row.Set("response_degradation", degradation);
      row.Set("alignment_quorum", quorum);
      rows.Append(std::move(row));
    }
  }

  table.Print(std::cout);
  std::cout << "\nEach row is one figure point: the paper's headline\n"
               "energy-savings-at-bounded-degradation metric under that\n"
               "chip power model (buses rescaled to keep k fixed).\n";

  if (!out_path.empty()) {
    Json artifact = Json::Object();
    artifact.Set("benchmark", std::string("modern_memory_eval"));
    artifact.Set("duration_ms",
                 static_cast<double>(duration) / kMillisecond);
    artifact.Set("cp_limit", cp_limit);
    artifact.Set("rows", std::move(rows));
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 2;
    }
    out << artifact.Dump() << "\n";
    std::cout << "artifact: " << out_path << "\n";
  }
  return 0;
}
