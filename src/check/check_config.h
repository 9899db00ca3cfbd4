// Configuration of the bounded protocol model checker (src/check).
//
// The checker exhaustively explores all interleavings of DMA-memory
// request arrivals, CPU accesses, chip step-downs, and time advances for
// a *small* configuration of the DMA-TA protocol: at most 4 chips and 3
// I/O buses, a bounded number of arrivals/CPU accesses/epochs, and a
// bounded choice-sequence depth. Small bounds are the point: protocol
// bugs in quorum/slack/power-state logic show up in tiny configurations
// (the classic small-scope hypothesis), where the state space is still
// exhaustively checkable within a PR's CI latency budget.
#ifndef DMASIM_CHECK_CHECK_CONFIG_H_
#define DMASIM_CHECK_CHECK_CONFIG_H_

#include <cstdint>
#include <string>

#include "mem/chip_power_model.h"
#include "util/time.h"

namespace dmasim::check {

// Seeded faults. Each corrupts one step of the harness (never the code
// under test's sources) so the checker can prove its properties actually
// detect the corresponding protocol violation. kResyncSkip reproduces
// the PR 3 runtime-auditor regression: the acting power model wakes from
// nap in zero time while the reference model demands the Table 1 resync.
enum class CheckFault : int {
  kNone = 0,
  kResyncSkip,     // Acting model skips the nap resync delay.
  kLostRelease,    // A release drops its last gated request.
  kStuckDeadline,  // Deadline-triggered releases are never executed.
};

// Chip-local low-power policy driven by the harness (the real
// LowPowerPolicy implementations from src/mem/power_policy.h).
enum class CheckPolicy : int {
  kDynamicThreshold = 0,  // active -> standby -> nap -> powerdown chain.
  kStaticNap,             // active -> nap, rests in nap.
  kStaticPowerdown,       // active -> powerdown, rests in powerdown.
};

// Hard limits of the explored configuration (see the file comment),
// enforced by the harness and by dmasim_check's flag parser.
inline constexpr int kMaxCheckChips = 4;
inline constexpr int kMaxCheckBuses = 3;
inline constexpr int kMaxCheckArrivals = 16;
// Flag domains of the timing knobs. Together they keep the largest
// delay budget n * mu * T (1e3 * 1e3 * 1 s = 1e18 ps) inside the tick
// range.
inline constexpr double kMaxCheckMu = 1e3;
inline constexpr std::int64_t kMaxCheckTransferRequests = 1000;
inline constexpr Tick kMaxCheckTicks = kSecond;

struct CheckerConfig {
  // Topology, at most kMaxCheckChips x kMaxCheckBuses.
  int chips = 2;
  int buses = 2;
  // Distinct-bus quorum k (the paper's ceil(Rm / Rb)); defaults to full
  // quorum for the 2-bus configuration.
  int k = 2;
  double gather_depth_factor = 1.0;

  // Exploration bounds.
  int max_arrivals = 3;      // DMA transfers (first requests) injected.
  int max_cpu_accesses = 1;  // Processor accesses injected.
  int max_epochs = 2;        // Epoch boundaries crossed.
  int max_depth = 12;        // Choice-sequence length bound.

  // DMA-TA parameters (fed to the real TemporalAligner/SlackAccount).
  double mu = 1.0;
  // T: one I/O-bus slot for a chunk-sized request. The default is the
  // production 512-byte-chunk slot (8 bytes per 12 memory cycles).
  Tick t_request = 480000;
  std::int64_t transfer_requests = 4;  // n: DMA-memory requests/transfer.
  // Deliberately far below the production 50 us default: a checker epoch
  // must be shorter than a transfer's delay budget (n * mu * T, 1.92 us
  // here) or the per-transfer deadline always fires first and the epoch
  // debit / exhaustion-valve interleavings are never reachable.
  Tick epoch_length = 1 * kMicrosecond;
  double slack_cap_requests = 64.0;
  Tick min_gating_budget = 0;  // Gate every eligible transfer.
  std::int64_t cpu_access_bytes = 64;  // One cache line.

  CheckPolicy policy = CheckPolicy::kStaticNap;
  CheckFault fault = CheckFault::kNone;

  // Chip power model whose FSM the exploration drives. The non-RDRAM
  // models keep the RDRAM 4-state chain (kRdramCorrected, kSectored) or
  // bring their own (kDdr4, which requires kDynamicThreshold — its
  // cascade has no nap/powerdown for the static policies to target).
  ChipModelKind chip_model = ChipModelKind::kRdram;
};

const char* CheckFaultName(CheckFault fault);
const char* CheckPolicyName(CheckPolicy policy);
// Parses the names produced by the functions above; returns false on an
// unknown name.
bool ParseCheckFault(const std::string& name, CheckFault* out);
bool ParseCheckPolicy(const std::string& name, CheckPolicy* out);

}  // namespace dmasim::check

#endif  // DMASIM_CHECK_CHECK_CONFIG_H_
