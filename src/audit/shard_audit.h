// Runtime invariants of the sharded engine's synchronization protocol —
// the dynamic layer of the determinism proof kit (DESIGN.md §15).
//
// ShardAudit observes a `ShardedEngine` run through the engine's
// `BarrierHooks` seam (every hook fires on the coordinator thread, so
// the audit needs no locking) and checks three invariants the
// conservative-lookahead protocol rests on:
//
//   shard.lookahead-violation   Every message drained at a barrier has
//                               deliver_at >= the horizon of the window
//                               it was sent in. A violation means some
//                               shard may already have executed past the
//                               delivery time (the `deliver-early`
//                               seeded fault trips exactly this).
//   shard.mailbox-fifo          Per source shard, drained send_seq
//                               values are strictly increasing across
//                               the whole run — the SPSC mailboxes
//                               neither drop, duplicate, nor reorder.
//   shard.barrier-causality     Within a barrier, messages are handed to
//                               handlers in the sorted total order
//                               (deliver_at, src, send_seq), and never
//                               with deliver_at inside an
//                               already-executed window (deliver_at <
//                               the barrier's own horizon). The
//                               `skip-barrier-sort` seeded fault trips
//                               the order half on any non-identity
//                               drain permutation.
//
// Like InvariantAuditor itself, this is ordinary code — tests use it
// directly; the fleet driver instantiates it when base.audit_level >= 1
// (`--audit`).
#ifndef DMASIM_AUDIT_SHARD_AUDIT_H_
#define DMASIM_AUDIT_SHARD_AUDIT_H_

#include <cstdint>
#include <vector>

#include "audit/invariant_auditor.h"
#include "sim/sharded_engine.h"
#include "util/time.h"

namespace dmasim {

class ShardAudit : public BarrierHooks {
 public:
  explicit ShardAudit(InvariantAuditor::Mode mode = InvariantAuditor::Mode::kAbort)
      : auditor_(mode) {}

  // BarrierHooks (coordinator thread only).
  void OnWindowStart(std::uint64_t window, Tick horizon) override;
  void OnBarrier(std::uint64_t window, std::vector<int>* drain_order) override;
  void OnDrained(const ShardMessage& message) override;
  void OnDeliver(const ShardMessage& message) override;

  std::uint64_t checks_run() const { return checks_run_; }
  const InvariantAuditor& auditor() const { return auditor_; }

 private:
  void Check(bool ok, const char* invariant, const ShardMessage& message,
             const char* detail);

  InvariantAuditor auditor_;
  std::uint64_t checks_run_ = 0;
  // Horizon of the window whose barrier is currently draining; valid
  // once the first window started.
  Tick window_horizon_ = 0;
  bool in_window_ = false;
  // Per-source next expected send_seq (grows on first sight of a src).
  std::vector<std::uint64_t> next_seq_;
  // Previous delivery within the current barrier, for the order check.
  ShardMessage last_delivered_;
  bool have_last_delivered_ = false;
};

}  // namespace dmasim

#endif  // DMASIM_AUDIT_SHARD_AUDIT_H_
