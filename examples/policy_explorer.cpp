// Policy explorer: prints the full energy breakdown of every scheme
// (baseline, DMA-TA, PL alone, DMA-TA-PL) and every low-level policy for a
// chosen workload. Useful for understanding where the energy goes.
//
// Usage: policy_explorer [oltp-st|synthetic-st|oltp-db|synthetic-db]
//                        [duration_ms]
#include <iostream>
#include <string>

#include "server/simulation_driver.h"
#include "stats/table.h"
#include "trace/workloads.h"
#include "util/cli_flags.h"

namespace {

using namespace dmasim;

void AddBreakdownRow(TablePrinter& table, const std::string& label,
                     const SimulationResults& results,
                     const SimulationResults& baseline) {
  std::vector<std::string> row;
  row.push_back(label);
  const double total = results.energy.Total().joules();
  row.push_back(TablePrinter::Num(total * 1e3, 3));
  for (int bucket = 0; bucket < kEnergyBucketCount; ++bucket) {
    row.push_back(TablePrinter::Percent(
        results.energy.Fraction(static_cast<EnergyBucket>(bucket))));
  }
  row.push_back(TablePrinter::Percent(results.EnergySavingsVs(baseline)));
  row.push_back(TablePrinter::Num(results.utilization_factor, 3));
  row.push_back(TablePrinter::Percent(results.ResponseDegradationVs(baseline)));
  table.AddRow(std::move(row));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmasim;

  constexpr FlagParser kFlags(
      "policy_explorer",
      "usage: policy_explorer [oltp-st|synthetic-st|oltp-db|synthetic-db] "
      "[duration_ms]");
  WorkloadSpec spec = OltpStorageSpec();
  if (argc > 1) {
    const std::string name = argv[1];
    if (name == "synthetic-st") {
      spec = SyntheticStorageSpec();
    } else if (name == "oltp-db") {
      spec = OltpDatabaseSpec();
    } else if (name == "synthetic-db") {
      spec = SyntheticDatabaseSpec();
    } else if (name != "oltp-st") {
      kFlags.Fail("workload: unknown '" + name + "'");
    }
  }
  if (argc > 2) spec.duration = kFlags.Milliseconds("duration_ms", argv[2]);

  const Trace trace = GenerateWorkload(spec);
  SimulationOptions options;
  options.server.request_compute_time = spec.request_compute_time;

  auto run = [&](const SimulationOptions& opts) {
    return RunTrace(trace, spec.miss_ratio, spec.duration, opts, spec.name);
  };

  const SimulationResults baseline = run(options);
  const CpCalibration calibration = Calibrate(baseline);
  const double mu = calibration.MuFor(0.10);

  SimulationOptions ta = options;
  ta.memory.dma.ta.enabled = true;
  ta.memory.dma.ta.mu = mu;

  SimulationOptions pl = options;
  pl.memory.dma.pl.enabled = true;

  SimulationOptions tapl = ta;
  tapl.memory.dma.pl.enabled = true;

  std::vector<std::string> headers = {"scheme", "total mJ"};
  for (int bucket = 0; bucket < kEnergyBucketCount; ++bucket) {
    headers.emplace_back(EnergyBucketName(static_cast<EnergyBucket>(bucket)));
  }
  headers.emplace_back("savings");
  headers.emplace_back("uf");
  headers.emplace_back("degr");

  TablePrinter table(headers);
  AddBreakdownRow(table, "baseline", baseline, baseline);
  const SimulationResults r_ta = run(ta);
  AddBreakdownRow(table, "DMA-TA", r_ta, baseline);
  const SimulationResults r_pl = run(pl);
  AddBreakdownRow(table, "PL-only", r_pl, baseline);
  const SimulationResults r_tapl = run(tapl);
  AddBreakdownRow(table, "DMA-TA-PL", r_tapl, baseline);
  table.Print(std::cout);

  std::cout << "\nworkload " << spec.name << ", mu(10%) = "
            << TablePrinter::Num(mu, 2)
            << ", gated=" << r_tapl.gated_requests
            << ", rel.quorum=" << r_tapl.releases_by_quorum
            << ", rel.slack=" << r_tapl.releases_by_slack
            << ", migrations=" << r_tapl.controller.migrations
            << ", max gate buffer=" << r_tapl.max_gated_buffer_bytes << "B"
            << ", hottest chip share: baseline="
            << TablePrinter::Percent(baseline.hottest_chip_share)
            << " ta-pl=" << TablePrinter::Percent(r_tapl.hottest_chip_share)
            << "\n";

  // Low-level policy ablation (static vs dynamic, Section 2.2).
  TablePrinter policies({"low-level policy", "total mJ", "savings vs dynamic"});
  for (PolicyKind kind :
       {PolicyKind::kDynamic, PolicyKind::kStaticStandby, PolicyKind::kStaticNap,
        PolicyKind::kStaticPowerdown, PolicyKind::kAlwaysActive}) {
    SimulationOptions opts = options;
    opts.policy = kind;
    const SimulationResults results = run(opts);
    policies.AddRow({PolicyKindName(kind),
                     TablePrinter::Num(results.energy.Total().joules() * 1e3,
                                       3),
                     TablePrinter::Percent(results.EnergySavingsVs(baseline))});
  }
  std::cout << '\n';
  policies.Print(std::cout);
  return 0;
}
