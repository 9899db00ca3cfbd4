// Sharded deterministic execution of multiple event kernels.
//
// One simulation is split into shards — one per memory-controller domain,
// each owning its chips, buses, and clients around a private `Simulator`
// — that advance in conservative-lookahead windows:
//
//   1. The coordinator computes the global minimum pending event time
//      across all shards, `t_min`, and a horizon `H = t_min + L` where
//      `L` is the minimum cross-shard latency (bus transfer + controller
//      dispatch; the fleet driver derives it from the remote-hop
//      latency).
//   2. Every shard independently — and, with a thread pool, in parallel
//      — executes all of its events with timestamp < H.
//   3. At the window barrier, cross-shard messages produced during the
//      window are drained from the per-shard SPSC mailboxes, sorted into
//      the deterministic total order (deliver_at, src, send_seq), and
//      handed to the destination shards' handlers, which schedule them
//      as ordinary events.
//
// Safety: any message sent by an event executing at time t carries
// deliver_at >= t + L >= t_min + L = H, so no shard can have advanced
// past a delivery time — conservative synchronization needs no rollback.
// Determinism: the window sequence is a pure function of shard states at
// barriers, every shard's intra-window execution keeps the kernel's
// exact (time, seq) order, and barrier delivery order is sorted on a
// total key — so an N-thread run is bit-identical to a 1-thread run of
// the same shard set, which is what the pinned-checksum suites assert.
//
// That contract is machine-checked three ways (DESIGN.md §15): the
// `shardcheck` static pass enforces the ownership annotations below, a
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

class ThreadPool;  // exp/thread_pool.h; only the .cc needs the definition.

// One cross-shard event. The engine routes and orders it; the meaning of
// `kind` and the payload words belongs to the shard handlers (the fleet
// driver uses them for remote client requests and their replies).
// shardcheck: allow(unannotated-member) -- POD message value, owned by
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
// hook runs on the coordinating thread while workers are parked, so
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

  // shardcheck: allow(unannotated-member) -- value type; the engine's
  // copy is the annotated options_ member.
  struct Options {
    // Conservative lookahead L: the minimum cross-shard latency. Every
    // Send's deliver_at must be >= the current window horizon, which
    // Send enforces. Required > 0 when more than one shard runs.
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
    // window submit order, permuted pre-sort drain order). None of it may
    // change a result: the barrier sort restores the total delivery
    // order, so a fuzzed run must be bit-identical to seed 0.
    std::uint64_t sched_fuzz_seed = 0;
  };

  // shardcheck: allow(unannotated-member) -- value type; the engine's
  // copy is the annotated stats_ member.
  struct Stats {
    std::uint64_t windows = 0;
    std::uint64_t delivered_messages = 0;
    std::uint64_t mailbox_spills = 0;      // Refreshed at every barrier.
    std::uint64_t max_mailbox_occupancy = 0;  // Ditto.
  };

  explicit ShardedEngine(const Options& options);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // Registers a shard (its simulator outlives the engine) and returns
  // the shard index. All shards must be added before Run.
  DMASIM_BARRIER_ONLY int AddShard(Simulator* simulator,
                                   MessageHandler handler);

  // Sends a cross-shard message. Called only from the shard `src`'s
  // worker during its window (or between windows on the coordinator).
  // `deliver_at` must respect the lookahead — at or past the current
  // window horizon — which is checked, not assumed.
  void Send(int src, int dst, Tick deliver_at, std::uint32_t kind,
            std::uint64_t a, std::uint64_t b, std::uint64_t c);

  // Runs every shard's events with timestamp <= `until` to completion
  // (including events created by cross-shard deliveries), leaving each
  // shard's clock at its own last executed event. `pool` may be null —
  // or the shard count 1 — in which case windows execute serially in
  // shard order; the results are bit-identical either way.
  DMASIM_BARRIER_ONLY void Run(Tick until, ThreadPool* pool);

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
    explicit Shard(Simulator* sim, MessageHandler h,
                   std::size_t mailbox_capacity)
        : simulator(sim), handler(h), outbox(mailbox_capacity) {}
    // The shard's private event kernel; only its own worker touches it
    // during a window.
    DMASIM_SHARD_LOCAL Simulator* simulator;
    // Invoked only at the barrier, in delivery order.
    DMASIM_BARRIER_ONLY MessageHandler handler;
    // SPSC: Push is the worker (producer) side; Drain runs at the
    // barrier (consumer side, annotated on the method).
    DMASIM_SHARD_LOCAL SpscMailbox<ShardMessage> outbox;
    DMASIM_SHARD_LOCAL std::uint64_t next_send_seq = 0;
    DMASIM_SHARD_LOCAL std::uint64_t window_events = 0;
  };

  // shardcheck: window-context
  void RunWindow(Shard* shard, Tick horizon, std::uint64_t window,
                 int index) {
    if (options_.sched_fuzz_seed != 0) FuzzBackoff(window, index);
    shard->window_events += shard->simulator->RunEventsBefore(horizon);
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
  // Window horizon, written by the coordinator between windows and read
  // by Send on worker threads during windows (the barrier orders the
  // accesses; no concurrent write can exist).
  DMASIM_SHARED_CONST Tick current_horizon_ = 0;
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
