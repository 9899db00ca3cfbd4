// fleet_scenario — a production-scale fleet of memory-controller domains.
//
// Simulates many memory-controller domains (default 32 domains x 32
// chips = 1024 chips, 32768 client streams each = ~1M streams) with a
// fraction of streams homed on remote domains. The remote reads are
// routed into their homes' traces before the run, and the sharded engine
// runs the domains as one window. The run is bit-identical for every
// --sim-threads value; the printed fingerprint is the proof the
// determinism suite pins.
//
// Examples:
//   fleet_scenario --sim-threads 8
//   fleet_scenario --domains 8 --duration-ms 50 --workload dss
//   fleet_scenario --sim-threads 4 --fingerprint-only
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "server/fleet_driver.h"
#include "trace/workloads.h"
#include "util/cli_flags.h"

namespace {

using namespace dmasim;

// Flag domains besides the shared ones in util/cli_flags.h. The remote
// hop is at least one nanosecond and at most one simulated hour.
constexpr int kMaxDomains = 4096;
constexpr double kMinRemoteLatencyUs = 1e-3;
constexpr double kMaxRemoteLatencyUs = 3.6e9;
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

constexpr FlagParser kFlags("fleet_scenario");

[[noreturn]] void Fail(const std::string& message) { kFlags.Fail(message); }

void PrintUsage() {
  std::cout <<
      R"(Usage: fleet_scenario [options]
  --domains N          memory-controller domains / engine shards,
                       1..4096 (default: 32)
  --sim-threads N      threads for trace generation and the run,
                       1..1024 (default: 1 = serial); a run uses at most
                       one per domain and per host core; results are
                       bit-identical for any value
  --duration-ms N      simulated milliseconds, 1e-6..3.6e6 (default: 20)
  --workload NAME      per-domain workload: oltp-st, synth-st, oltp-db,
                       synth-db, dss (default: oltp-st)
  --chips N            memory chips per domain, 1..4096 (default: 32)
  --streams N          client streams per domain, >= 1 (default: 32768)
  --remote-fraction F  fraction of streams homed remotely, 0..1
                       (default: 0.05)
  --remote-latency-us N  one-way fleet hop: a remote read reaches its
                       home this long after its trace time, 1e-3..3.6e9
                       (default: 20)
  --seed N             unsigned 64-bit workload seed (default: preset)
  --fingerprint-only   print only the run fingerprint (for scripting)

Determinism proof kit (DESIGN.md section 15). The fleet runs as one
engine window, so a run records one digest:
  --sched-fuzz-seed N  perturb worker scheduling from unsigned 64-bit
                       seed N (the run must stay bit-identical to seed 0)
  --window-digests FILE
                       record one digest per engine window and write them
                       to FILE (one hex value per line)
  --compare-window-digests FILE
                       compare this run's window digests against FILE and
                       report the first mismatching window (exit 3 on
                       divergence)
  --help               this text
)";
}

WorkloadSpec WorkloadByFlag(const std::string& flag) {
  if (flag == "oltp-st") return OltpStorageSpec();
  if (flag == "synth-st") return SyntheticStorageSpec();
  if (flag == "oltp-db") return OltpDatabaseSpec();
  if (flag == "synth-db") return SyntheticDatabaseSpec();
  if (flag == "dss") return DssStorageSpec();
  Fail("unknown workload '" + flag + "'");
}

void WriteWindowDigests(const std::vector<std::uint64_t>& digests,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) Fail("cannot write '" + path + "'");
  for (std::uint64_t digest : digests) {
    out << std::hex << std::setw(16) << std::setfill('0') << digest << "\n";
  }
}

// Reads a --window-digests file, one hex digest per non-empty line. A
// malformed line is a usage error that names the file and line.
std::vector<std::uint64_t> ReadWindowDigests(const std::string& path) {
  const std::string flag = "--compare-window-digests: ";
  std::ifstream in(path);
  if (!in.good()) Fail(flag + "cannot read '" + path + "'");
  std::vector<std::uint64_t> digests;
  std::string line;
  for (int number = 1; std::getline(in, line); ++number) {
    if (line.empty()) continue;
    std::uint64_t digest = 0;
    const char* end = line.data() + line.size();
    const auto [ptr, ec] = std::from_chars(line.data(), end, digest, 16);
    if (ec != std::errc() || ptr != end) {
      Fail(flag + path + ":" + std::to_string(number) +
           ": expected a 64-bit hex digest, got '" + line + "'");
    }
    digests.push_back(digest);
  }
  return digests;
}

// Returns the process exit code: 0 on a match, 3 on divergence (with the
// first mismatching window on stdout, which is what the CI sched-fuzz
// smoke greps for).
int CompareWindowDigests(const std::vector<std::uint64_t>& digests,
                         const std::vector<std::uint64_t>& baseline) {
  const std::size_t windows = std::min(digests.size(), baseline.size());
  for (std::size_t window = 0; window < windows; ++window) {
    if (digests[window] != baseline[window]) {
      std::cout << "window digests diverge at window " << window << " (run "
                << std::hex << std::setw(16) << std::setfill('0')
                << digests[window] << " vs baseline " << std::setw(16)
                << baseline[window] << ")\n";
      return 3;
    }
  }
  if (digests.size() != baseline.size()) {
    std::cout << "window digests diverge at window " << windows
              << " (run has " << std::dec << digests.size()
              << " windows, baseline " << baseline.size() << ")\n";
    return 3;
  }
  std::cout << "window digests match (" << std::dec << windows
            << " windows)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FleetOptions options;
  options.domains = 32;
  options.streams_per_domain = 32768;
  std::string workload_flag = "oltp-st";
  double duration_ms = 20.0;
  std::optional<std::uint64_t> seed;
  bool fingerprint_only = false;
  std::string digests_out_path;
  std::optional<std::vector<std::uint64_t>> baseline_digests;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) Fail("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (arg == "--domains") {
      options.domains = kFlags.Integer(arg, next(), 1, kMaxDomains);
    } else if (arg == "--sim-threads") {
      options.sim_threads = kFlags.Integer(arg, next(), 1, kMaxThreads);
    } else if (arg == "--duration-ms") {
      duration_ms = kFlags.Real(arg, next(), kMinDurationMs, kMaxDurationMs);
    } else if (arg == "--workload") {
      workload_flag = next();
    } else if (arg == "--chips") {
      options.base.memory.chips = kFlags.Integer(arg, next(), 1, kMaxChips);
    } else if (arg == "--streams") {
      options.streams_per_domain =
          kFlags.Integer(arg, next(), std::uint64_t{1}, kMaxU64);
    } else if (arg == "--remote-fraction") {
      options.remote_fraction = kFlags.Real(arg, next(), 0.0, 1.0);
    } else if (arg == "--remote-latency-us") {
      options.remote_latency = static_cast<Tick>(
          kFlags.Real(arg, next(), kMinRemoteLatencyUs, kMaxRemoteLatencyUs) *
          kMicrosecond);
    } else if (arg == "--seed") {
      seed = kFlags.Integer(arg, next(), std::uint64_t{0}, kMaxU64);
    } else if (arg == "--fingerprint-only") {
      fingerprint_only = true;
    } else if (arg == "--sched-fuzz-seed") {
      options.sched_fuzz_seed =
          kFlags.Integer(arg, next(), std::uint64_t{0}, kMaxU64);
    } else if (arg == "--window-digests") {
      digests_out_path = next();
      options.record_window_digests = true;
    } else if (arg == "--compare-window-digests") {
      baseline_digests = ReadWindowDigests(next());
      options.record_window_digests = true;
    } else {
      Fail("unknown option '" + arg + "'");
    }
  }

  options.workload = WorkloadByFlag(workload_flag);
  options.workload.duration = static_cast<Tick>(duration_ms * kMillisecond);
  if (seed.has_value()) options.workload.seed = *seed;

  const auto wall_start = std::chrono::steady_clock::now();
  const FleetResults fleet = RunFleet(options);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  if (!digests_out_path.empty()) {
    WriteWindowDigests(fleet.window_digests, digests_out_path);
  }
  if (baseline_digests.has_value()) {
    const int compare_exit =
        CompareWindowDigests(fleet.window_digests, *baseline_digests);
    if (compare_exit != 0) return compare_exit;
  }

  if (fingerprint_only) {
    std::cout << fleet.Fingerprint() << "\n";
    return 0;
  }

  const double events_per_second =
      wall_seconds > 0.0
          ? static_cast<double>(fleet.stepped_events) / wall_seconds
          : 0.0;
  std::cout << "fleet: " << options.domains << " domains x "
            << options.base.memory.chips << " chips ("
            << options.domains * options.base.memory.chips
            << " chips total), "
            << options.domains * options.streams_per_domain
            << " client streams, workload " << options.workload.name << "\n"
            << "engine: " << fleet.engine.threads << " thread(s), "
            << fleet.engine.windows << " windows, "
            << fleet.engine.delivered_messages << " cross-shard messages, "
            << fleet.engine.mailbox_spills << " mailbox spills\n"
            << "events: " << fleet.stepped_events << " in " << wall_seconds
            << " s wall (" << events_per_second << " events/s)\n"
            << "remote reads: " << fleet.remote_sent << " sent, "
            << fleet.remote_completed << " completed, mean response "
            << fleet.remote_response.Mean() / kMicrosecond << " us\n"
            << "local reads: mean response "
            << fleet.client_response.Mean() / kMicrosecond << " us over "
            << fleet.client_response.Count() << " requests\n"
            << "energy: " << fleet.energy.Total().joules() << " J\n"
            << "fingerprint: " << fleet.Fingerprint() << "\n";
  return 0;
}
