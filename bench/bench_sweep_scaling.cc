// Measures the experiment engine's wall-clock scaling: one 32-run sweep
// ({4 workloads} x {baseline + DMA-TA + DMA-TA-PL(2) + DMA-TA-PL(3)} x
// {2 seeds}) executed at 1, 2, 4, and 8 worker threads.
//
// Independent simulations are embarrassingly parallel, so on an 8-core
// host the 8-thread sweep should finish >= 3x faster than the serial
// one. Every parallel sweep is also checked for the determinism
// contract: its JSON artifact (timing fields excluded) must be
// byte-identical to the serial sweep's.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exp/result_sink.h"
#include "exp/sweep_runner.h"
#include "util/thread_pool.h"

int main() {
  using namespace dmasim;
  using namespace dmasim::bench;
  PrintHeader(
      "Sweep scaling: wall-clock speedup vs worker threads (32-run sweep)",
      "Each run simulates an isolated server; the engine parallelizes\n"
      "across hardware threads. Expect near-linear speedup up to the\n"
      "core count (>= 3x at 8 threads on an 8-core host) and identical\n"
      "results at every thread count.");

  ExperimentSpec spec;
  spec.name = "scaling";
  spec.workloads = {OltpStorageSpec(), SyntheticStorageSpec(),
                    OltpDatabaseSpec(), SyntheticDatabaseSpec()};
  for (WorkloadSpec& workload : spec.workloads) {
    workload.duration = Scaled(80 * kMillisecond);
  }
  spec.schemes = {TaScheme(), TaPlScheme(2), TaPlScheme(3)};
  spec.cp_limits = {0.10};
  spec.seeds = {1, 2};
  // 4 workloads x 2 seeds = 8 cells x (1 baseline + 3 schemes) = 32 runs.

  std::cout << "host hardware threads: " << ThreadPool::HardwareThreads()
            << "\n\n";

  std::string serial_artifact;
  double serial_seconds = 0.0;

  TablePrinter table({"threads", "wall s", "speedup", "runs ok",
                      "matches serial"});
  for (int threads : std::vector<int>{1, 2, 4, 8}) {
    SweepOptions options;
    options.threads = threads;
    SweepRunner runner(options);
    const auto start = std::chrono::steady_clock::now();
    const SweepResults sweep = runner.Run(spec);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    // Canonical artifact: sorted by run id, timing fields excluded.
    const std::string artifact =
        SweepToJson(sweep.summary, sweep.records, /*include_timing=*/false)
            .Dump(true);
    bool matches = true;
    if (threads == 1) {
      serial_artifact = artifact;
      serial_seconds = seconds;
    } else {
      matches = artifact == serial_artifact;
    }

    table.AddRow({std::to_string(threads), TablePrinter::Num(seconds, 2),
                  TablePrinter::Num(serial_seconds / seconds, 2) + "x",
                  std::to_string(sweep.summary.ok),
                  matches ? "yes" : "NO - DETERMINISM BUG"});
    if (!matches) {
      std::cerr << "determinism violation at " << threads << " threads\n";
      return 1;
    }
  }
  table.Print(std::cout);
  return 0;
}
