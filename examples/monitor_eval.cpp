// Oracle-vs-monitored popularity evaluation (DAMON-eval style).
//
// Runs the OLTP storage workload three ways: baseline (no power
// management techniques), DMA-TA-PL fed by the oracle per-page
// popularity tracker, and DMA-TA-PL fed by the online region monitor
// (src/mon) with the default hot/cold schemes. Reports energy savings
// and client-perceived degradation for both popularity sources, plus the
// monitor's own cost: simulated overhead fraction, hotness error, and
// region/split/merge statistics. The headline question is how much of
// the oracle's energy saving the online estimate recovers, and at what
// monitoring overhead.
//
// Usage: monitor_eval [duration_ms] [cp_limit]
#include <iostream>

#include "mon/scheme_parser.h"
#include "server/simulation_driver.h"
#include "stats/table.h"
#include "trace/workloads.h"
#include "util/cli_flags.h"

int main(int argc, char** argv) {
  using namespace dmasim;

  constexpr FlagParser kFlags("monitor_eval",
                              "usage: monitor_eval [duration_ms] [cp_limit]");
  const Tick duration = argc > 1 ? kFlags.Milliseconds("duration_ms", argv[1])
                                 : 400 * kMillisecond;
  const double cp_limit =
      argc > 2 ? kFlags.Real("cp_limit", argv[2], 0.0, kMaxCpLimit) : 0.10;

  WorkloadSpec spec = OltpStorageSpec();
  spec.duration = duration;
  const Trace trace = GenerateWorkload(spec);

  std::cout << "monitor eval: " << duration / kMillisecond << " ms of "
            << spec.name << ", CP-Limit " << cp_limit << "\n\n";

  SimulationOptions options;
  const SimulationResults baseline = RunTrace(
      trace, spec.miss_ratio, spec.duration, options, spec.name);
  const CpCalibration calibration = Calibrate(baseline);

  SimulationOptions oracle_options = options;
  oracle_options.memory.dma.ta.enabled = true;
  oracle_options.memory.dma.ta.mu = calibration.MuFor(cp_limit);
  oracle_options.memory.dma.pl.enabled = true;
  const SimulationResults oracle = RunTrace(
      trace, spec.miss_ratio, spec.duration, oracle_options, spec.name);

  SimulationOptions monitored_options = oracle_options;
  monitored_options.memory.monitor.enabled = true;
  const SchemeParseResult schemes = ParseSchemeString(
      "1 1 8 * 0 migrate-hot\n"
      "64 * 0 1 4 pin-cold\n"
      "* * 0 0 8 demote-chip\n");
  DMASIM_CHECK_MSG(schemes.ok(), schemes.error.c_str());
  monitored_options.memory.monitor.rules = schemes.rules;
  const SimulationResults monitored = RunTrace(
      trace, spec.miss_ratio, spec.duration, monitored_options, spec.name);

  TablePrinter table({"metric", "baseline", "oracle PL", "monitored PL"});
  table.AddRow({"energy (mJ)",
                TablePrinter::Num(baseline.energy.Total().joules() * 1e3, 2),
                TablePrinter::Num(oracle.energy.Total().joules() * 1e3, 2),
                TablePrinter::Num(monitored.energy.Total().joules() * 1e3,
                                  2)});
  table.AddRow({"energy savings", "-",
                TablePrinter::Percent(oracle.EnergySavingsVs(baseline)),
                TablePrinter::Percent(monitored.EnergySavingsVs(baseline))});
  table.AddRow(
      {"response degradation", "-",
       TablePrinter::Percent(oracle.ResponseDegradationVs(baseline)),
       TablePrinter::Percent(monitored.ResponseDegradationVs(baseline))});
  table.AddRow({"utilization factor",
                TablePrinter::Num(baseline.utilization_factor, 3),
                TablePrinter::Num(oracle.utilization_factor, 3),
                TablePrinter::Num(monitored.utilization_factor, 3)});
  table.AddRow({"page migrations", "0",
                std::to_string(oracle.controller.migrations),
                std::to_string(monitored.controller.migrations)});
  table.Print(std::cout);

  const double oracle_savings = oracle.EnergySavingsVs(baseline);
  const double monitored_savings = monitored.EnergySavingsVs(baseline);
  const double recovery =
      oracle_savings > 0.0 ? monitored_savings / oracle_savings : 0.0;

  std::cout << "\nmonitor: " << monitored.monitor.regions << " regions ("
            << monitored.monitor.splits << " splits, "
            << monitored.monitor.merges << " merges over "
            << monitored.monitor.aggregations << " aggregations)\n"
            << "         " << monitored.monitor.probes << " probes, "
            << monitored.monitor.observations << " observations, "
            << monitored.monitor.scheme_matches << " scheme matches, "
            << monitored.monitor.demotions_applied << "/"
            << monitored.monitor.demotions_requested
            << " demotions applied\n"
            << "         overhead "
            << TablePrinter::Percent(monitored.monitor.overhead_fraction)
            << ", hotness error "
            << TablePrinter::Num(monitored.monitor.hotness_error, 3)
            << " (total variation)\n"
            << "recovery: monitored PL keeps "
            << TablePrinter::Percent(recovery)
            << " of the oracle's energy saving\n";
  return 0;
}
