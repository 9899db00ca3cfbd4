// dmasim_check: bounded explicit-state model checker for the DMA-TA
// protocol and the chip power-state machine (src/check).
//
// Explore mode (default) exhaustively enumerates every interleaving of
// request arrivals, CPU accesses, power-policy step-downs, and time
// advances for a small configuration, checking the protocol properties
// at every state. On a violation it delta-debugs the trace to a
// 1-minimal action sequence and (with --out) writes a replayable
// counterexample file.
//
//   ./build/examples/dmasim_check --chips 2 --buses 2 --depth 12
//   ./build/examples/dmasim_check --fault resync-skip --out ce.txt
//   ./build/examples/dmasim_check --replay ce.txt
//   ./build/examples/dmasim_check --seed-config config.txt
//
// Exit codes: 0 = explored clean (or --replay reproduced the recorded
// violation), 1 = explore found a violation (or --replay failed to
// reproduce), 2 = usage / input error.
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "check/counterexample.h"
#include "check/explorer.h"
#include "check/minimizer.h"
#include "check/shard_harness.h"
#include "util/cli_flags.h"

namespace {

using namespace dmasim::check;

void PrintUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: dmasim_check [options]\n"
      "  --chips N             memory chips, 1..4 (default 2)\n"
      "  --buses N             I/O buses, 1..3 (default 2)\n"
      "  --k N                 distinct-bus release quorum, 1..3 (default 2)\n"
      "  --depth N             max choice-sequence length (default 12)\n"
      "  --arrivals N          max DMA transfers injected, 1..16 (default 3)\n"
      "  --cpu N               max CPU accesses injected (default 1)\n"
      "  --epochs N            max epoch boundaries crossed (default 2)\n"
      "  --mu F                slack factor mu, 0..1000 (default 1.0)\n"
      "  --t-request TICKS     one I/O-bus slot T, 1..1e12 (default 480000)\n"
      "  --transfer-requests N DMA-memory requests per transfer, 1..1000\n"
      "                        (default 4)\n"
      "  --epoch-length TICKS  checker epoch, 1..1e12\n"
      "                        (default 1000000 = 1 us)\n"
      "  --policy NAME         dynamic-threshold | static-nap |\n"
      "                        static-powerdown (default static-nap)\n"
      "  --fault NAME          none | resync-skip | lost-release |\n"
      "                        stuck-deadline (default none)\n"
      "  --chip-model NAME     rdram | rdram-corrected | ddr4 | sectored\n"
      "                        (default rdram; ddr4 requires\n"
      "                        --policy dynamic-threshold)\n"
      "  --max-states N        visited-state cap (default 1048576)\n"
      "  --out FILE            write the minimized counterexample here\n"
      "  --no-minimize         keep the raw violating trace\n"
      "  --seed-config FILE    load 'key value' lines as the base config\n"
      "  --replay FILE         re-execute a counterexample file instead of\n"
      "                        exploring\n"
      "shard mode (barrier-interleaving exploration, DESIGN.md §15):\n"
      "  --shard               explore sharded-engine drain orders instead\n"
      "  --shard-shards N      shards, 2..3 (default 3)\n"
      "  --shard-events N      seed events per shard, 1..8 (default 2)\n"
      "  --shard-hops N        message relay depth, 1..4 (default 2)\n"
      "  --shard-lookahead T   engine lookahead in ticks (default 100)\n"
      "  --shard-windows N     barriers with enumerated drain order, 0..8\n"
      "                        (default 4; runs = (shards!)^windows)\n"
      "  --engine-fault NAME   none | skip-barrier-sort | deliver-early\n"
      "  --shard --replay FILE re-execute a shard counterexample file\n");
}


constexpr dmasim::FlagParser kFlags("dmasim_check");
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

int Fail(const std::string& message) {
  std::fprintf(stderr, "dmasim_check: %s\n", message.c_str());
  return 2;
}

int RunShardMode(ShardCheckConfig config, const std::string& replay_path,
                 const std::string& out_path, bool minimize) {
  if (!replay_path.empty()) {
    ShardCounterexample ce;
    std::string error;
    if (!ReadShardCounterexampleFile(replay_path, &ce, &error)) {
      return Fail(replay_path + ": " + error);
    }
    std::string observed;
    const bool reproduced = ReplayShardCounterexample(ce, &observed);
    std::printf("shard replay of %s (%zu scripted barriers, fault %s):\n"
                "  recorded  %s\n  observed  %s\n",
                replay_path.c_str(), ce.perms.size(),
                EngineFaultName(ce.config.fault), ce.property.c_str(),
                observed.c_str());
    if (!reproduced) {
      std::printf("VIOLATION DID NOT REPRODUCE\n");
      return 1;
    }
    std::printf("reproduced\n");
    return 0;
  }

  std::printf(
      "dmasim_check --shard: shards=%d events=%d hops=%d lookahead=%lld "
      "windows=%d fault=%s\n",
      config.shards, config.events_per_shard, config.max_hops,
      static_cast<long long>(config.lookahead), config.max_choice_windows,
      EngineFaultName(config.fault));

  const ShardExploreResult result = ExploreShardInterleavings(config);
  std::printf(
      "explored %llu interleavings (%llu barriers, %llu choice windows, "
      "%llu distinct fingerprints)\n",
      static_cast<unsigned long long>(result.stats.runs),
      static_cast<unsigned long long>(result.stats.barriers),
      static_cast<unsigned long long>(result.stats.choice_windows),
      static_cast<unsigned long long>(result.stats.distinct_fingerprints));

  if (!result.violation_found) {
    std::printf("no violations (canonical fingerprint %016llx)\n",
                static_cast<unsigned long long>(result.canonical_fingerprint));
    return 0;
  }

  std::printf("VIOLATION of %s\n  %s\n  raw trace: %zu scripted barriers\n",
              result.violation.property.c_str(),
              result.violation.message.c_str(),
              result.violation.perms.size());
  ShardTrace perms = result.violation.perms;
  if (minimize && !perms.empty()) {
    perms = MinimizeShardTrace(config, perms, result.violation.property);
    std::printf("  minimized: %zu scripted barriers\n", perms.size());
  }
  for (std::size_t w = 0; w < perms.size(); ++w) {
    std::vector<int> order;
    NthShardPermutation(config.shards, perms[w], &order);
    std::string text;
    for (int shard : order) {
      if (!text.empty()) text += ",";
      text += std::to_string(shard);
    }
    std::printf("    barrier %zu: drain order [%s]\n", w, text.c_str());
  }

  if (!out_path.empty()) {
    ShardCounterexample ce;
    ce.config = config;
    ce.property = result.violation.property;
    ce.message = result.violation.message;
    ce.perms = perms;
    std::string error;
    if (!WriteShardCounterexampleFile(ce, out_path, &error)) {
      return Fail(error);
    }
    std::printf("counterexample written to %s\n", out_path.c_str());
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  CheckerConfig config;
  std::uint64_t max_states = 1u << 20;
  std::string out_path;
  std::string replay_path;
  bool minimize = true;
  bool shard_mode = false;
  ShardCheckConfig shard_config;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    // Numeric flags parse strictly into their domain (util/cli_flags.h).
    const auto number = [&]() -> std::string_view {
      const char* text = value();
      if (text == nullptr) kFlags.Fail(arg + ": missing value");
      return text;
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    } else if (arg == "--no-minimize") {
      minimize = false;
    } else if (arg == "--shard") {
      shard_mode = true;
    } else if (arg == "--engine-fault") {
      const char* name = value();
      if (name == nullptr ||
          !dmasim::ParseEngineFault(name, &shard_config.fault)) {
        return Fail("--engine-fault needs none | skip-barrier-sort | "
                    "deliver-early");
      }
    } else if (arg == "--seed-config") {
      const char* path = value();
      if (path == nullptr) return Fail("--seed-config needs a file");
      std::string error;
      if (!ReadConfigFile(path, &config, &error)) {
        return Fail(std::string(path) + ": " + error);
      }
    } else if (arg == "--replay") {
      const char* path = value();
      if (path == nullptr) return Fail("--replay needs a file");
      replay_path = path;
    } else if (arg == "--out") {
      const char* path = value();
      if (path == nullptr) return Fail("--out needs a file");
      out_path = path;
    } else if (arg == "--policy") {
      const char* name = value();
      if (name == nullptr || !ParseCheckPolicy(name, &config.policy)) {
        return Fail("--policy needs dynamic-threshold | static-nap | "
                    "static-powerdown");
      }
    } else if (arg == "--fault") {
      const char* name = value();
      if (name == nullptr || !ParseCheckFault(name, &config.fault)) {
        return Fail("--fault needs none | resync-skip | lost-release | "
                    "stuck-deadline");
      }
    } else if (arg == "--chip-model") {
      const char* name = value();
      const std::optional<dmasim::ChipModelKind> kind =
          name == nullptr ? std::nullopt : dmasim::ParseChipModelKind(name);
      if (!kind.has_value()) {
        return Fail("--chip-model needs rdram | rdram-corrected | ddr4 | "
                    "sectored");
      }
      config.chip_model = *kind;
    } else if (arg == "--mu") {
      config.mu = kFlags.Real(arg, number(), check_range::kMu);
    } else if (arg == "--chips") {
      config.chips = kFlags.Integer(arg, number(), check_range::kChips);
    } else if (arg == "--buses") {
      config.buses = kFlags.Integer(arg, number(), check_range::kBuses);
    } else if (arg == "--k") {
      config.k = kFlags.Integer(arg, number(), check_range::kK);
    } else if (arg == "--depth") {
      config.max_depth = kFlags.Integer(arg, number(), check_range::kDepth);
    } else if (arg == "--arrivals") {
      config.max_arrivals =
          kFlags.Integer(arg, number(), check_range::kArrivals);
    } else if (arg == "--cpu") {
      config.max_cpu_accesses =
          kFlags.Integer(arg, number(), check_range::kCpuAccesses);
    } else if (arg == "--epochs") {
      config.max_epochs = kFlags.Integer(arg, number(), check_range::kEpochs);
    } else if (arg == "--t-request") {
      config.t_request = kFlags.Integer(arg, number(), check_range::kTicks);
    } else if (arg == "--transfer-requests") {
      config.transfer_requests =
          kFlags.Integer(arg, number(), check_range::kTransferRequests);
    } else if (arg == "--epoch-length") {
      config.epoch_length =
          kFlags.Integer(arg, number(), check_range::kTicks);
    } else if (arg == "--max-states") {
      max_states = kFlags.Integer(arg, number(), std::uint64_t{1}, kMaxU64);
    } else if (arg == "--shard-shards") {
      shard_config.shards =
          kFlags.Integer(arg, number(), kMinCheckShards, kMaxCheckShards);
    } else if (arg == "--shard-events") {
      shard_config.events_per_shard =
          kFlags.Integer(arg, number(), 1, kMaxCheckShardEvents);
    } else if (arg == "--shard-hops") {
      shard_config.max_hops =
          kFlags.Integer(arg, number(), 1, kMaxCheckShardHops);
    } else if (arg == "--shard-lookahead") {
      shard_config.lookahead =
          kFlags.Integer(arg, number(), dmasim::Tick{1}, kMaxCheckTicks);
    } else if (arg == "--shard-windows") {
      shard_config.max_choice_windows =
          kFlags.Integer(arg, number(), 0, kMaxCheckShardWindows);
    } else {
      return Fail("unknown option \"" + arg + "\" (see --help)");
    }
  }

  if (shard_mode) {
    return RunShardMode(shard_config, replay_path, out_path, minimize);
  }

  if (!replay_path.empty()) {
    Counterexample ce;
    std::string error;
    if (!ReadCounterexampleFile(replay_path, &ce, &error)) {
      return Fail(replay_path + ": " + error);
    }
    std::string observed;
    const bool reproduced = ReplayCounterexample(ce, &observed);
    std::printf("replay of %s (%zu actions, fault %s):\n  recorded  %s\n"
                "  observed  %s\n",
                replay_path.c_str(), ce.actions.size(),
                CheckFaultName(ce.config.fault), ce.property.c_str(),
                observed.c_str());
    if (!reproduced) {
      std::printf("VIOLATION DID NOT REPRODUCE\n");
      return 1;
    }
    std::printf("reproduced\n");
    return 0;
  }

  if (config.chip_model == dmasim::ChipModelKind::kDdr4 &&
      config.policy != CheckPolicy::kDynamicThreshold) {
    return Fail("--chip-model ddr4 requires --policy dynamic-threshold "
                "(the DDR4 cascade has no nap/powerdown states)");
  }

  std::printf(
      "dmasim_check: chips=%d buses=%d k=%d depth=%d arrivals=%d cpu=%d "
      "epochs=%d policy=%s fault=%s chip_model=%s\n",
      config.chips, config.buses, config.k, config.max_depth,
      config.max_arrivals, config.max_cpu_accesses, config.max_epochs,
      CheckPolicyName(config.policy), CheckFaultName(config.fault),
      std::string(dmasim::ChipModelKindName(config.chip_model)).c_str());

  Explorer explorer(config, max_states);
  const ExploreResult result = explorer.Run();
  const ExploreStats& stats = result.stats;
  std::printf(
      "explored %llu states (%llu dedup hits, %llu actions applied)\n"
      "frontier peak %zu, depth reached %d, terminal states %llu, "
      "transitions audited %llu%s\n",
      static_cast<unsigned long long>(stats.states_explored),
      static_cast<unsigned long long>(stats.dedup_hits),
      static_cast<unsigned long long>(stats.actions_applied),
      stats.frontier_peak, stats.depth_reached,
      static_cast<unsigned long long>(stats.terminal_states),
      static_cast<unsigned long long>(stats.transitions_audited),
      stats.truncated ? " [TRUNCATED at --max-states]" : "");

  if (!result.violation.has_value()) {
    std::printf("no violations\n");
    return 0;
  }

  const ViolationTrace& trace = *result.violation;
  std::printf("VIOLATION of %s\n  %s\n  raw trace: %zu actions\n",
              trace.property.c_str(), trace.message.c_str(),
              trace.actions.size());

  std::vector<dmasim::check::Action> actions = trace.actions;
  if (minimize) {
    actions = MinimizeTrace(config, actions, trace.property);
    std::printf("  minimized: %zu actions\n", actions.size());
  }
  for (const auto& action : actions) {
    std::printf("    %s\n", FormatAction(action).c_str());
  }

  if (!out_path.empty()) {
    Counterexample ce;
    ce.config = config;
    ce.property = trace.property;
    ce.message = trace.message;
    ce.actions = actions;
    std::string error;
    if (!WriteCounterexampleFile(ce, out_path, &error)) {
      return Fail(error);
    }
    std::printf("counterexample written to %s\n", out_path.c_str());
  }
  return 1;
}
