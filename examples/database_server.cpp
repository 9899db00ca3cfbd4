// Database-server scenario (OLTP-Db): memory is accessed by both the
// processors (cache-line granularity, priority) and the network DMA
// engines. Sweeps the CP-Limit and prints the savings curve, illustrating
// how processor accesses temper the achievable savings (Sections 4.1.3
// and 5.4).
//
// Usage: database_server [duration_ms]
#include <iostream>

#include "server/simulation_driver.h"
#include "stats/table.h"
#include "trace/workloads.h"
#include "util/cli_flags.h"

int main(int argc, char** argv) {
  using namespace dmasim;

  WorkloadSpec spec = OltpDatabaseSpec();
  constexpr FlagParser kFlags("database_server",
                              "usage: database_server [duration_ms]");
  spec.duration = argc > 1 ? kFlags.Milliseconds("duration_ms", argv[1])
                           : 150 * kMillisecond;
  const Trace trace = GenerateWorkload(spec);

  SimulationOptions options;
  options.server.request_compute_time = spec.request_compute_time;

  const SimulationResults baseline =
      RunTrace(trace, spec.miss_ratio, spec.duration, options, spec.name);
  const CpCalibration calibration = Calibrate(baseline);

  std::cout << "database server: " << spec.duration / kMillisecond
            << " ms of " << spec.name << " traffic ("
            << baseline.server.cpu_accesses << " CPU accesses, "
            << baseline.controller.transfers_completed
            << " DMA transfers)\n\n";

  TablePrinter table({"CP-Limit", "mu", "DMA-TA-PL savings", "degradation",
                      "utilization"});
  for (double cp : {0.02, 0.05, 0.10, 0.20}) {
    SimulationOptions tuned = options;
    tuned.memory.dma.ta.enabled = true;
    tuned.memory.dma.ta.mu = calibration.MuFor(cp);
    tuned.memory.dma.pl.enabled = true;
    const SimulationResults results =
        RunTrace(trace, spec.miss_ratio, spec.duration, tuned, spec.name);
    table.AddRow({TablePrinter::Percent(cp, 0),
                  TablePrinter::Num(tuned.memory.dma.ta.mu, 2),
                  TablePrinter::Percent(results.EnergySavingsVs(baseline)),
                  TablePrinter::Percent(
                      results.ResponseDegradationVs(baseline)),
                  TablePrinter::Num(results.utilization_factor, 3)});
  }
  table.Print(std::cout);

  std::cout << "\nCompared to the storage server, savings are lower: the\n"
               "processor accesses keep chips active between DMA requests\n"
               "and consume part of the idle energy the techniques target\n"
               "(the paper's Section 5.2 observation).\n";
  return 0;
}
