// Trace utility: generate any of the Table 2 workload presets, write it
// to the dmasim text trace format, read it back, and print its summary
// and popularity CDF. Demonstrates the trace I/O path used to feed
// external traces into the simulator.
//
// Usage: trace_tools [oltp-st|synthetic-st|oltp-db|synthetic-db]
//                    [duration_ms] [output_file]
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "stats/table.h"
#include "trace/trace.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"
#include "util/cli_flags.h"

int main(int argc, char** argv) {
  using namespace dmasim;

  constexpr FlagParser kFlags(
      "trace_tools",
      "usage: trace_tools [oltp-st|synthetic-st|oltp-db|synthetic-db] "
      "[duration_ms] [output_file]");
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
  spec.duration = argc > 2 ? kFlags.Milliseconds("duration_ms", argv[2])
                           : 100 * kMillisecond;

  const Trace trace = GenerateWorkload(spec);

  // Round-trip through the text format.
  std::stringstream buffer;
  WriteTrace(trace, buffer);
  if (argc > 3) {
    std::ofstream file(argv[3]);
    file << buffer.str();
    std::cout << "wrote " << trace.size() << " records to " << argv[3]
              << "\n";
  }
  Trace parsed;
  std::string error;
  if (!ReadTrace(buffer, &parsed, &error)) {
    std::cerr << "round-trip failed: " << error << "\n";
    return 1;
  }
  if (parsed != trace) {
    std::cerr << "round-trip mismatch\n";
    return 1;
  }

  const TraceSummary summary = Summarize(parsed);
  TablePrinter table({"property", "value"});
  table.AddRow({"workload", spec.name});
  table.AddRow({"records", std::to_string(parsed.size())});
  table.AddRow({"client reads", std::to_string(summary.client_reads)});
  table.AddRow({"client writes", std::to_string(summary.client_writes)});
  table.AddRow({"cpu accesses", std::to_string(summary.cpu_accesses)});
  table.AddRow({"distinct pages", std::to_string(summary.distinct_pages)});
  table.AddRow({"reads/ms", TablePrinter::Num(summary.ReadsPerMs(), 1)});
  table.AddRow(
      {"cpu accesses/ms", TablePrinter::Num(summary.CpuAccessesPerMs(), 0)});
  table.Print(std::cout);

  const auto cdf = PopularityCdf(parsed);
  std::cout << "\npopularity: top 10% of pages -> "
            << TablePrinter::Percent(AccessShareOfTopPages(cdf, 0.10))
            << " of accesses; top 20% -> "
            << TablePrinter::Percent(AccessShareOfTopPages(cdf, 0.20))
            << "\n";
  return 0;
}
