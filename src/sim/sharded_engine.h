// Sharded deterministic execution of multiple event kernels.
//
// One simulation is split into shards — one per memory-controller domain,
// each owning its chips, buses, and clients around a private `Simulator`
// — that advance in conservative windows:
//
//   1. At each barrier the coordinator asks every shard for the earliest
//      `deliver_at` of any message it can still send. A shard that
//      declared a send bound (AddShard) answers from its own state; any
//      other shard answers `t_next + L`, its earliest pending event plus
//      the lookahead `L`, the minimum cross-shard latency. The horizon
//      `H` is the minimum answer, clipped to the run bound
//      (Chandy–Misra–Bryant lookahead).
//   2. Every shard independently — and, with a worker team, in parallel
//      — executes all of its events with timestamp < H.
//   3. At the window barrier, cross-shard messages produced during the
//      window are drained from the per-shard SPSC mailboxes, sorted into
//      the deterministic total order (deliver_at, src, send_seq), and
//      handed to the destination shards' handlers, which schedule them
//      as ordinary events.
//
// Safety: every message a shard sends during the window carries
// deliver_at >= its answer >= H — Send checks both — so no shard can
// have advanced past a delivery time, and conservative synchronization
// needs no rollback. A bound is only as good as its callback, which is
// why the check is a hard one: a shard whose bound promises too much
// dies in Send instead of corrupting a run.
// Determinism: the window sequence is a pure function of shard states at
// barriers (the answers are computed from them), every shard's
// intra-window execution keeps the kernel's exact (time, seq) order, and
// barrier delivery order is sorted on a total key — so an N-thread run is
// bit-identical to a 1-thread run of the same shard set, which is what
// the pinned-checksum suites assert. Where the barriers fall is not part
// of a shard's simulated outcome: the kernel keeps its inline fast paths
// short of the window bound (Simulator::QuietUntil), so the same events
// delivered through wider or narrower windows give the same results.
//
// That contract is machine-checked three ways (DESIGN.md §15): the
// `dmasim_lint` ownership rules enforce the annotations below, a
// nonzero `Options::sched_fuzz_seed` perturbs the schedule and re-asserts
// the fingerprint, and `dmasim_check --shard` exhaustively explores barrier
// drain orders. `Options::fault` seeds deliberate violations so each
// layer can prove it would catch a real one. See DESIGN.md section 14.
#ifndef DMASIM_SIM_SHARDED_ENGINE_H_
#define DMASIM_SIM_SHARDED_ENGINE_H_

#include <cstdint>
#include <deque>
#include <string_view>
#include <vector>

#include "sim/inline_function.h"
#include "sim/shard_annotations.h"
#include "sim/simulator.h"
#include "sim/spsc_mailbox.h"
#include "util/check.h"
#include "util/time.h"

namespace dmasim {

// One cross-shard event. The engine routes and orders it; the meaning of
// `kind` and the payload words belongs to the shard handlers (the fleet
// driver uses them for remote client requests).
// dmasim-lint: allow(unannotated-member) -- POD message value, owned by
// whichever side currently holds the copy.
struct ShardMessage {
  Tick deliver_at = 0;
  std::uint64_t send_seq = 0;  // Per-source sequence, assigned by Send.
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t kind = 0;
  std::uint32_t reserved = 0;
};
static_assert(std::is_trivially_copyable_v<ShardMessage>);

// Deliberate single-point violations of the synchronization protocol,
// compiled in always but inert at kNone. They exist so the proof kit's
// three layers can demonstrate detection (ISSUE: "seed >= 2 faults and
// pin that all three layers catch what they should"); production code
// never sets them.
enum class EngineFault : int {
  kNone = 0,
  // Skip the barrier sort: deliver in raw drain order, so the delivery
  // order (and everything downstream of same-tick ties) depends on the
  // drain permutation instead of the total key.
  kSkipBarrierSort,
  // Rewrite shard 0's first in-window send to deliver_at = horizon - 1:
  // one tick inside the lookahead horizon, i.e. into a window the other
  // shards have already executed.
  kDeliverEarly,
};

// Stable names used by CLIs and counterexample files.
const char* EngineFaultName(EngineFault fault);
bool ParseEngineFault(std::string_view text, EngineFault* out);

// Coordinator-side observation and drain-order override points. Every
// hook runs on the coordinating thread while workers wait, so
// implementations need no synchronization of their own. `ShardAudit`
// (src/audit/shard_audit.h) checks invariants through this seam and the
// model checker's `ShardHarness` scripts drain orders through it.
class BarrierHooks {
 public:
  virtual ~BarrierHooks() = default;
  // Start of window `window` (0-based), before workers are released.
  virtual void OnWindowStart(std::uint64_t window, Tick horizon) {
    (void)window;
    (void)horizon;
  }
  // At the barrier after `window`, before draining. `drain_order` holds
  // every shard index once; the hook may permute it (the sorted total
  // delivery order must make any permutation equivalent).
  virtual void OnBarrier(std::uint64_t window, std::vector<int>* drain_order) {
    (void)window;
    (void)drain_order;
  }
  // One call per drained message, in drain (pre-sort) order.
  virtual void OnDrained(const ShardMessage& message) { (void)message; }
  // One call per delivered message, in delivery order.
  virtual void OnDeliver(const ShardMessage& message) { (void)message; }
};

class ShardedEngine {
 public:
  // Delivery handler: runs at the window barrier (single-threaded, in
  // the deterministic delivery order) and typically schedules an event
  // into the destination shard's simulator at `message.deliver_at`.
  using MessageHandler = TrivialCallback<void(const ShardMessage&), 24>;
  // Send bound: runs at every barrier (on the coordinator, after the
  // barrier's deliveries) and returns, from the shard's own state, the
  // earliest deliver_at of any message the shard can still send —
  // Simulator::kNoPendingEvent for none. It must hold for every message
  // the shard sends before the next barrier, including sends that events
  // delivered at this barrier cause.
  using SendBound = TrivialCallback<Tick(), 16>;

  // dmasim-lint: allow(unannotated-member) -- value type; the engine's
  // copy is the annotated options_ member.
  struct Options {
    // Conservative lookahead L: the minimum cross-shard latency, and the
    // send bound of every shard that declares none (its next pending
    // event plus L). Every Send's deliver_at must be >= the current
    // window horizon, which Send enforces. Required > 0 when more than
    // one shard runs.
    Tick lookahead = 0;
    // Per-shard outbox ring capacity; overflow spills (counted, never
    // dropped or reordered).
    std::size_t mailbox_capacity = 1024;
    // Record every delivered message in delivery order (the golden
    // replay tests pin this log).
    bool record_deliveries = false;
    // Record one FNV-1a digest per window over (horizon, per-shard
    // executed-event deltas, delivered messages in delivery order).
    // Comparing two runs' digest vectors localizes a divergence to its
    // first mismatching window (`fleet_scenario --window-digests`).
    bool record_window_digests = false;
    // Seeded protocol violation for the determinism proof kit; kNone in
    // production.
    EngineFault fault = EngineFault::kNone;
    // Barrier observation / drain-order override; not owned, may be
    // null. All hook calls happen on the coordinator thread.
    BarrierHooks* hooks = nullptr;
    // Nonzero seeds the schedule perturbation (worker backoff, permuted
    // window shard order — and with it which team member runs which
    // shard — and permuted pre-sort drain order). None of it may change
    // a result: the barrier sort restores the total delivery order, so a
    // fuzzed run must be bit-identical to seed 0.
    std::uint64_t sched_fuzz_seed = 0;
  };

  // dmasim-lint: allow(unannotated-member) -- value type; the engine's
  // copy is the annotated stats_ member.
  struct Stats {
    std::uint64_t windows = 0;
    std::uint64_t delivered_messages = 0;
    std::uint64_t mailbox_spills = 0;      // Refreshed at every barrier.
    std::uint64_t max_mailbox_occupancy = 0;  // Ditto.
    // Size of the last Run's worker team, coordinator included (1 =
    // serial). Host-side only: no fingerprint hashes it.
    int threads = 0;
  };

  explicit ShardedEngine(const Options& options);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // Registers a shard (its simulator outlives the engine) and returns
  // the shard index. All shards must be added before Run. Without a
  // `send_bound` the shard's bound is its next pending event plus the
  // lookahead.
  DMASIM_BARRIER_ONLY int AddShard(Simulator* simulator,
                                   MessageHandler handler,
                                   SendBound send_bound = {});

  // Sends a cross-shard message. Called only from the shard `src`'s
  // worker during its window (or between windows on the coordinator).
  // `deliver_at` must be at or past the current window horizon and at or
  // past the bound `src` declared at the last barrier — checked, not
  // assumed.
  void Send(int src, int dst, Tick deliver_at, std::uint32_t kind,
            std::uint64_t a, std::uint64_t b, std::uint64_t c);

  // Runs every shard's events with timestamp <= `until` to completion
  // (including events created by cross-shard deliveries), leaving each
  // shard's clock at its own last executed event. A team of
  // min(threads, shard_count()) members executes the windows, the
  // calling thread being one of them, and exists only for this call; at
  // one member windows execute serially in shard order. The results
  // are bit-identical for every `threads` >= 1.
  DMASIM_BARRIER_ONLY void Run(Tick until, int threads);

  int shard_count() const { return static_cast<int>(shards_.size()); }
  const Stats& stats() const { return stats_; }
  // Events executed by shard `s` across all windows.
  std::uint64_t ShardWindowEvents(int s) const {
    return shards_[static_cast<std::size_t>(s)].window_events;
  }
  const SpscMailbox<ShardMessage>::Stats& MailboxStats(int s) const {
    return shards_[static_cast<std::size_t>(s)].outbox.stats();
  }
  // Delivered messages in delivery order (empty unless
  // Options::record_deliveries).
  const std::vector<ShardMessage>& deliveries() const { return deliveries_; }
  // One digest per window (empty unless Options::record_window_digests).
  const std::vector<std::uint64_t>& window_digests() const {
    return window_digests_;
  }

 private:
  struct Shard {
    explicit Shard(Simulator* sim, MessageHandler h, SendBound bound,
                   std::size_t mailbox_capacity)
        : simulator(sim),
          handler(h),
          send_bound(bound),
          outbox(mailbox_capacity) {}
    // The shard's private event kernel; only its own worker touches it
    // during a window.
    DMASIM_SHARD_LOCAL Simulator* simulator;
    // Invoked only at the barrier, in delivery order.
    DMASIM_BARRIER_ONLY MessageHandler handler;
    // Invoked only at the barrier; empty for the lookahead rule.
    DMASIM_BARRIER_ONLY SendBound send_bound;
    // The bound send_bound declared for the current window (0 without
    // one), which Send holds the shard to.
    DMASIM_SHARED_CONST Tick send_floor = 0;
    // SPSC: Push is the worker (producer) side; Drain runs at the
    // barrier (consumer side, annotated on the method).
    DMASIM_SHARD_LOCAL SpscMailbox<ShardMessage> outbox;
    DMASIM_SHARD_LOCAL std::uint64_t next_send_seq = 0;
    DMASIM_SHARD_LOCAL std::uint64_t window_events = 0;
  };

  // One team member's share of the current window: positions `member`,
  // `member + members`, ... of window_order_.
  // dmasim-lint: window-context
  void RunShare(int member, int members) {
    for (std::size_t position = static_cast<std::size_t>(member);
         position < window_order_.size();
         position += static_cast<std::size_t>(members)) {
      const int index = window_order_[position];
      if (options_.sched_fuzz_seed != 0) FuzzBackoff(current_window_, index);
      Shard& shard = shards_[static_cast<std::size_t>(index)];
      shard.window_events +=
          shard.simulator->RunEventsBefore(current_horizon_);
    }
  }
  // Drains all outboxes, sorts, and invokes destination handlers.
  DMASIM_BARRIER_ONLY void DeliverMail(std::uint64_t window, Tick horizon);
  DMASIM_BARRIER_ONLY void RefreshMailboxStats();
  // Worker-side: deterministic per-(window, shard) yield/spin, derived
  // from the seed with no shared PRNG state.
  void FuzzBackoff(std::uint64_t window, int index);
  // Coordinator-side Fisher-Yates driven by fuzz_state_.
  DMASIM_BARRIER_ONLY void FuzzPermute(std::vector<int>* order);

  // Fixed at construction; read-only everywhere after.
  DMASIM_SHARED_CONST Options options_;
  // Deque for stable addresses, no moves. The container's shape is
  // frozen during Run (AddShard is refused); each element's mutable
  // state is per-shard (see Shard).
  DMASIM_SHARED_CONST std::deque<Shard> shards_;
  // The current window's horizon, index and shard execution order,
  // written by the coordinator between windows and read by the team
  // (and by Send) during them; the epoch store that opens a window
  // orders the accesses, so no concurrent write can exist.
  DMASIM_SHARED_CONST Tick current_horizon_ = 0;
  DMASIM_SHARED_CONST std::uint64_t current_window_ = 0;
  DMASIM_SHARED_CONST std::vector<int> window_order_;
  // Set once by shard 0's first faulted Send (single writer: only shard
  // 0's worker reads or writes it, in Send).
  DMASIM_SHARD_LOCAL bool fault_fired_ = false;
  DMASIM_BARRIER_ONLY bool running_ = false;
  // DeliverMail working space.
  DMASIM_BARRIER_ONLY std::vector<ShardMessage> pending_;
  DMASIM_BARRIER_ONLY std::vector<int> drain_order_;
  DMASIM_BARRIER_ONLY std::vector<ShardMessage> deliveries_;
  DMASIM_BARRIER_ONLY std::vector<std::uint64_t> window_digests_;
  // Per-shard window_events snapshot from the previous barrier, for the
  // per-window executed-event deltas in the digest.
  DMASIM_BARRIER_ONLY std::vector<std::uint64_t> prev_window_events_;
  DMASIM_BARRIER_ONLY Stats stats_;
  DMASIM_BARRIER_ONLY std::uint64_t fuzz_state_ = 0;
};

}  // namespace dmasim

#endif  // DMASIM_SIM_SHARDED_ENGINE_H_
