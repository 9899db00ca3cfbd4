// Bounded exploration of sharded-engine barrier interleavings — the
// exhaustive layer of the determinism proof kit (DESIGN.md §15).
//
// The protocol checker (explorer.h) exhausts DMA-TA protocol
// interleavings; this harness does the same for the *concurrency*
// protocol of src/sim/sharded_engine.h. The schedule freedom a real
// parallel run has — which worker finishes first, in what order the
// coordinator drains the mailboxes — is reduced by the engine to exactly
// one observable choice per barrier: the pre-sort drain order. The
// harness therefore drives a small (2–3 shard) scenario on *real*
// Simulators under a real ShardedEngine, scripts the drain order of the
// first `max_choice_windows` barriers through the engine's BarrierHooks
// seam, and enumerates every permutation sequence. Properties:
//
//   * every interleaving's run fingerprint equals the canonical
//     (identity-order) run's — `shard.fingerprint-convergence`;
//   * the ShardAudit invariants (shard.lookahead-violation,
//     shard.mailbox-fifo, shard.barrier-causality) hold along the way.
//
// The scenario is built to make ordering matter: every shard runs the
// same event timeline, so cross-shard messages from different sources
// collide on (deliver_at, dst) and only the barrier sort keeps their
// tie-break deterministic. The seeded engine faults prove the detectors
// work: `skip-barrier-sort` survives the identity order but diverges
// (and breaks the delivery-order invariant) under some permutation;
// `deliver-early` violates the lookahead invariant on every path.
//
// Violating permutation sequences are ddmin-minimized and serialize to
// line-oriented counterexample files, replayable by tests and
// `dmasim_check --shard --replay`.
#ifndef DMASIM_CHECK_SHARD_HARNESS_H_
#define DMASIM_CHECK_SHARD_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sharded_engine.h"
#include "util/time.h"

namespace dmasim::check {

// Limits of the shard configuration, enforced by the harness and by
// dmasim_check's flag parser.
inline constexpr int kMinCheckShards = 2;
inline constexpr int kMaxCheckShards = 3;
inline constexpr int kMaxCheckShardEvents = 8;
inline constexpr int kMaxCheckShardHops = 4;
inline constexpr int kMaxCheckShardWindows = 8;

struct ShardCheckConfig {
  int shards = 3;           // 2 or 3 (6 drain permutations at most).
  int events_per_shard = 2;  // Seed events per shard.
  int max_hops = 2;          // Message relay depth (fan-out per hop).
  Tick lookahead = 100;      // Engine lookahead L.
  // Barriers whose drain order is enumerated; later barriers use the
  // identity order. The run count is (shards!)^min(this, barriers).
  int max_choice_windows = 4;
  EngineFault fault = EngineFault::kNone;
};

// A scripted interleaving: element w is the lexicographic index of the
// drain-order permutation applied at barrier w (0 = identity); barriers
// past the end use the identity order.
using ShardTrace = std::vector<int>;

struct ShardRunOutcome {
  std::uint64_t fingerprint = 0;
  std::vector<std::uint64_t> window_digests;  // One per barrier.
  std::uint64_t barriers = 0;
  std::uint64_t delivered_messages = 0;
  std::uint64_t executed_events = 0;
  bool violation = false;   // A ShardAudit invariant failed.
  std::string property;     // First failed invariant (when violation).
  std::string message;
};

struct ShardExploreStats {
  std::uint64_t runs = 0;      // Complete interleavings executed.
  std::uint64_t barriers = 0;  // Barrier count of the canonical run.
  std::uint64_t choice_windows = 0;  // min(barriers, max_choice_windows).
  std::uint64_t distinct_fingerprints = 0;
};

struct ShardViolation {
  std::string property;
  std::string message;
  ShardTrace perms;  // As found (not yet minimized).
};

struct ShardExploreResult {
  ShardExploreStats stats;
  std::uint64_t canonical_fingerprint = 0;
  bool violation_found = false;
  ShardViolation violation;
};

// The number of drain permutations per barrier: shards!.
int ShardPermutationCount(int shards);
// Writes the index-th lexicographic permutation of {0..shards-1}.
void NthShardPermutation(int shards, int index, std::vector<int>* out);

// Executes the scenario once under the scripted drain orders, with
// ShardAudit attached in kCollect mode. Deterministic: same config and
// perms, same outcome.
ShardRunOutcome RunShardScenario(const ShardCheckConfig& config,
                                 const ShardTrace& perms);

// Enumerates every drain-order sequence up to the choice bound, stopping
// at the first violation (audit failure or fingerprint divergence from
// the canonical identity-order run).
ShardExploreResult ExploreShardInterleavings(const ShardCheckConfig& config);

// True when running `perms` violates `property` (an audit invariant
// name, or "shard.fingerprint-convergence" for a digest mismatch with
// the canonical run).
bool ShardTraceReproduces(const ShardCheckConfig& config,
                          const ShardTrace& perms,
                          const std::string& property);

// ddmin over the non-identity choices (candidates reset choices to the
// identity permutation rather than shortening the trace, so remaining
// choices keep their barrier positions), then a 1-minimal sweep.
ShardTrace MinimizeShardTrace(const ShardCheckConfig& config,
                              const ShardTrace& perms,
                              const std::string& property);

// Replayable counterexample file, protocol-checker style:
//
//   dmasim-shard-counterexample v1
//   shards 3
//   events-per-shard 2
//   max-hops 2
//   lookahead 100
//   max-choice-windows 4
//   fault skip-barrier-sort
//   property shard.barrier-causality
//   message barrier delivery order is not the sorted total order (...)
//   perms 2
//   0
//   3
//   end
struct ShardCounterexample {
  ShardCheckConfig config;
  std::string property;
  std::string message;  // Single line (newlines replaced on write).
  ShardTrace perms;
};

std::string FormatShardCounterexample(const ShardCounterexample& ce);
// On failure returns false and fills `error` with a line-numbered
// diagnostic; unknown keys are rejected.
bool ParseShardCounterexampleText(const std::string& text,
                                  ShardCounterexample* out,
                                  std::string* error);
bool WriteShardCounterexampleFile(const ShardCounterexample& ce,
                                  const std::string& path,
                                  std::string* error);
bool ReadShardCounterexampleFile(const std::string& path,
                                 ShardCounterexample* out,
                                 std::string* error);

// Replays through a fresh scenario (full Simulators + engine + audit).
// Returns true when a violation of the recorded property reproduces;
// `observed` (may be null) receives what actually happened.
bool ReplayShardCounterexample(const ShardCounterexample& ce,
                               std::string* observed);

}  // namespace dmasim::check

#endif  // DMASIM_CHECK_SHARD_HARNESS_H_
