// Storage-server scenario (the paper's Fig. 1 environment, closed loop):
// a SAN-attached storage server whose buffer cache is smaller than the
// working set, so misses come from real LRU behaviour rather than a
// forced ratio. Compares baseline and DMA-TA-PL energy and shows the
// request-path statistics.
//
// Usage: storage_server [duration_ms] [cache_pages]
#include <cstdint>
#include <iostream>
#include <limits>

#include "server/simulation_driver.h"
#include "stats/table.h"
#include "trace/workloads.h"
#include "util/cli_flags.h"

int main(int argc, char** argv) {
  using namespace dmasim;

  constexpr FlagParser kFlags(
      "storage_server", "usage: storage_server [duration_ms] [cache_pages]");
  const Tick duration = argc > 1 ? kFlags.Milliseconds("duration_ms", argv[1])
                                 : 300 * kMillisecond;
  const std::uint64_t cache_pages =
      argc > 2 ? kFlags.Integer("cache_pages", argv[2], std::uint64_t{1},
                                std::numeric_limits<std::uint64_t>::max())
               : (1ULL << 15);

  WorkloadSpec spec = OltpStorageSpec();
  spec.duration = duration;
  spec.miss_ratio = 0.0;  // Misses come from the cache in this example.
  const Trace trace = GenerateWorkload(spec);

  SimulationOptions options;
  options.server.forced_miss_ratio = -1.0;  // LRU-driven misses.
  options.server.cache_pages = cache_pages;

  std::cout << "storage server: " << duration / kMillisecond << " ms of "
            << spec.name << " traffic, " << cache_pages
            << "-page buffer cache\n\n";

  const SimulationResults baseline =
      RunTrace(trace, /*miss_ratio=*/-1.0, spec.duration, options, spec.name);
  const CpCalibration calibration = Calibrate(baseline);

  SimulationOptions dma_aware = options;
  dma_aware.memory.dma.ta.enabled = true;
  dma_aware.memory.dma.ta.mu = calibration.MuFor(0.10);
  dma_aware.memory.dma.pl.enabled = true;
  const SimulationResults tuned =
      RunTrace(trace, -1.0, spec.duration, dma_aware, spec.name);

  TablePrinter table({"metric", "baseline", "DMA-TA-PL"});
  table.AddRow({"energy (mJ)",
                TablePrinter::Num(baseline.energy.Total().joules() * 1e3, 2),
                TablePrinter::Num(tuned.energy.Total().joules() * 1e3, 2)});
  table.AddRow({"energy savings", "-",
                TablePrinter::Percent(tuned.EnergySavingsVs(baseline))});
  table.AddRow(
      {"avg response (us)",
       TablePrinter::Num(baseline.client_response.Mean() / kMicrosecond, 1),
       TablePrinter::Num(tuned.client_response.Mean() / kMicrosecond, 1)});
  table.AddRow({"response degradation", "-",
                TablePrinter::Percent(tuned.ResponseDegradationVs(baseline))});
  table.AddRow({"utilization factor",
                TablePrinter::Num(baseline.utilization_factor, 3),
                TablePrinter::Num(tuned.utilization_factor, 3)});
  table.AddRow({"buffer-cache hits", std::to_string(baseline.server.hits),
                std::to_string(tuned.server.hits)});
  table.AddRow({"buffer-cache misses", std::to_string(baseline.server.misses),
                std::to_string(tuned.server.misses)});
  table.AddRow({"page migrations", "0",
                std::to_string(tuned.controller.migrations)});
  table.Print(std::cout);

  std::cout << "\nThe cache hit ratio is workload-determined here; shrink\n"
               "the cache (second argument) to push more disk DMA traffic\n"
               "through the memory system.\n";
  return 0;
}
