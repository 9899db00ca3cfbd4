#include "sim/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <thread>

#include "util/fnv.h"
#include "util/random.h"

namespace dmasim {

namespace {

// How long a waiting team member polls before it parks, counted in polls
// because src/sim reads no clock. The first polls spin on the core; the
// rest yield it, so a team with more members than free cores hands the
// core to the member it waits for instead of burning it. Together they
// outlast the coordinator's barrier work between two windows, so a
// member that keeps up rarely pays for a sleep and a wake-up.
constexpr int kSpinPolls = 256;
constexpr int kYieldPolls = 768;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

// Polls, then parks, until `word` leaves `old`; returns its new value.
std::uint32_t AwaitChange(const std::atomic<std::uint32_t>& word,
                          std::uint32_t old) {
  for (int poll = 0; poll < kSpinPolls + kYieldPolls; ++poll) {
    const std::uint32_t now = word.load(std::memory_order_acquire);
    if (now != old) return now;
    if (poll < kSpinPolls) {
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
  word.wait(old, std::memory_order_acquire);
  return word.load(std::memory_order_acquire);
}

// The threads that execute the windows of one ShardedEngine::Run. The
// calling thread is member 0 and coordinates; members 1..T-1 are threads
// that live exactly as long as the team. One RunRound is one window:
//   * the coordinator advances `epoch_`, which publishes the window's
//     parameters (written before it), then runs body(0);
//   * every other member sees the epoch move, runs body(member), and
//     increments `done_`;
//   * the round ends when the coordinator reads `done_` == T-1, which
//     orders every member's window writes before the barrier.
// Every wait polls, then parks on std::atomic::wait (AwaitChange). Only
// the member that completes the count notifies: the count only grows
// within a round, so a parked coordinator needs no other wake-up.
class WorkerTeam {
 public:
  using Body = TrivialCallback<void(int member), 16>;

  WorkerTeam(int members, Body body)
      : others_(static_cast<std::uint32_t>(members - 1)), body_(body) {
    threads_.reserve(static_cast<std::size_t>(members - 1));
    for (int member = 1; member < members; ++member) {
      threads_.emplace_back([this, member]() { MemberLoop(member); });
    }
  }

  ~WorkerTeam() {
    stopping_ = true;
    Open();
    for (std::thread& thread : threads_) thread.join();
  }

  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  // Runs body(m) once for every member m; returns when all have.
  DMASIM_BARRIER_ONLY void RunRound() {
    Open();
    body_(0);
    std::uint32_t done = done_.load(std::memory_order_acquire);
    while (done != others_) done = AwaitChange(done_, done);
    // Published to the members by the next Open.
    done_.store(0, std::memory_order_relaxed);
  }

 private:
  // Releases the members into the next round, or out of their loops
  // once `stopping_` is set.
  DMASIM_BARRIER_ONLY void Open() {
    // The release half publishes the round's parameters. seq_cst also
    // keeps the store ahead of notify_all's check for parked waiters, so
    // a member parking at that moment cannot miss its wake-up.
    epoch_.store(epoch_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_seq_cst);
    epoch_.notify_all();
  }

  // dmasim-lint: window-context
  void MemberLoop(int member) {
    std::uint32_t seen = 0;
    while (true) {
      seen = AwaitChange(epoch_, seen);
      if (stopping_) return;
      body_(member);
      // acq_rel at least, to release this member's window writes to the
      // coordinator; seq_cst for the same wake-up reason as in Open.
      if (done_.fetch_add(1, std::memory_order_seq_cst) + 1 == others_) {
        done_.notify_one();
      }
    }
  }

  // Members besides the coordinator: the count that closes a round.
  DMASIM_SHARED_CONST std::uint32_t others_;
  DMASIM_SHARED_CONST Body body_;
  // Set once, by the destructor, before its final Open.
  DMASIM_SHARED_CONST bool stopping_ = false;
  // Rounds opened so far; only the coordinator writes it.
  DMASIM_BARRIER_ONLY std::atomic<std::uint32_t> epoch_{0};
  // Members other than the coordinator that finished the current round.
  // It is the barrier's own synchronization rather than state the
  // barrier protects, and every member writes it.
  // dmasim-lint: allow(unannotated-member) -- multi-writer barrier count
  std::atomic<std::uint32_t> done_{0};
  // Last, after everything the member threads use.
  DMASIM_BARRIER_ONLY std::vector<std::thread> threads_;
};

}  // namespace

const char* EngineFaultName(EngineFault fault) {
  switch (fault) {
    case EngineFault::kNone:
      return "none";
    case EngineFault::kSkipBarrierSort:
      return "skip-barrier-sort";
    case EngineFault::kDeliverEarly:
      return "deliver-early";
  }
  return "unknown";
}

bool ParseEngineFault(std::string_view text, EngineFault* out) {
  for (EngineFault fault : {EngineFault::kNone, EngineFault::kSkipBarrierSort,
                            EngineFault::kDeliverEarly}) {
    if (text == EngineFaultName(fault)) {
      *out = fault;
      return true;
    }
  }
  return false;
}

ShardedEngine::ShardedEngine(const Options& options) : options_(options) {
  DMASIM_EXPECTS(options.lookahead >= 0);
  std::uint64_t seed_state = options.sched_fuzz_seed;
  fuzz_state_ = SplitMix64(seed_state);
}

int ShardedEngine::AddShard(Simulator* simulator, MessageHandler handler,
                            SendBound send_bound) {
  DMASIM_EXPECTS(simulator != nullptr);
  DMASIM_EXPECTS(handler);
  DMASIM_EXPECTS(!running_);
  shards_.emplace_back(simulator, handler, send_bound,
                       options_.mailbox_capacity);
  return static_cast<int>(shards_.size()) - 1;
}

void ShardedEngine::Send(int src, int dst, Tick deliver_at,
                         std::uint32_t kind, std::uint64_t a, std::uint64_t b,
                         std::uint64_t c) {
  DMASIM_EXPECTS(src >= 0 && src < shard_count());
  DMASIM_EXPECTS(dst >= 0 && dst < shard_count());
  DMASIM_EXPECTS(src != dst);
  Shard& shard = shards_[static_cast<std::size_t>(src)];
  // The conservative-synchronization invariant: nothing may be addressed
  // into a window any shard could already have executed past. During a
  // window `current_horizon_` is the horizon; violating this would be a
  // missing-latency bug in the caller, so it is a hard check. Holding the
  // shard to its own declared bound too makes a wrong bound fail here
  // even when another shard's bound set the horizon.
  DMASIM_CHECK_GE(deliver_at, std::max(current_horizon_, shard.send_floor));
  if (options_.fault == EngineFault::kDeliverEarly && src == 0 &&
      running_ && !fault_fired_ && current_horizon_ > 0) {
    // Seeded violation: address shard 0's first send one tick inside the
    // horizon — into time other shards have already executed. Bypasses
    // the check above the way a missing-latency caller bug would.
    fault_fired_ = true;
    deliver_at = current_horizon_ - 1;
  }
  ShardMessage message;
  message.deliver_at = deliver_at;
  message.send_seq = shard.next_send_seq++;
  message.a = a;
  message.b = b;
  message.c = c;
  message.src = static_cast<std::uint32_t>(src);
  message.dst = static_cast<std::uint32_t>(dst);
  message.kind = kind;
  shard.outbox.Push(message);
}

void ShardedEngine::RefreshMailboxStats() {
  stats_.mailbox_spills = 0;
  stats_.max_mailbox_occupancy = 0;
  for (const Shard& shard : shards_) {
    stats_.mailbox_spills += shard.outbox.stats().spilled;
    stats_.max_mailbox_occupancy = std::max(
        stats_.max_mailbox_occupancy, shard.outbox.stats().max_occupancy);
  }
}

void ShardedEngine::DeliverMail(std::uint64_t window, Tick horizon) {
  const int n = shard_count();
  drain_order_.resize(static_cast<std::size_t>(n));
  std::iota(drain_order_.begin(), drain_order_.end(), 0);
  if (options_.sched_fuzz_seed != 0) FuzzPermute(&drain_order_);
  if (options_.hooks != nullptr) {
    options_.hooks->OnBarrier(window, &drain_order_);
  }

  pending_.clear();
  for (int index : drain_order_) {
    Shard& shard = shards_[static_cast<std::size_t>(index)];
    const std::size_t before = pending_.size();
    shard.outbox.Drain(&pending_);
    if (options_.hooks != nullptr) {
      for (std::size_t i = before; i < pending_.size(); ++i) {
        options_.hooks->OnDrained(pending_[i]);
      }
    }
  }
  // Keep the aggregate mailbox counters live at every barrier (the obs
  // layer snapshots them per window, not just at Run() exit).
  RefreshMailboxStats();

  if (!pending_.empty()) {
    // (deliver_at, src, send_seq) is a total order — send_seq is unique
    // per source — so plain sort is deterministic.
    if (options_.fault != EngineFault::kSkipBarrierSort) {
      std::sort(pending_.begin(), pending_.end(),
                [](const ShardMessage& x, const ShardMessage& y) {
                  if (x.deliver_at != y.deliver_at) {
                    return x.deliver_at < y.deliver_at;
                  }
                  if (x.src != y.src) return x.src < y.src;
                  return x.send_seq < y.send_seq;
                });
    }
    for (const ShardMessage& message : pending_) {
      if (options_.hooks != nullptr) options_.hooks->OnDeliver(message);
      if (options_.record_deliveries) deliveries_.push_back(message);
      ++stats_.delivered_messages;
      shards_[message.dst].handler(message);
    }
  }

  if (options_.record_window_digests) {
    prev_window_events_.resize(static_cast<std::size_t>(n), 0);
    Fnv1a digest;
    digest.MixU64(static_cast<std::uint64_t>(horizon));
    for (int s = 0; s < n; ++s) {
      const std::uint64_t events =
          shards_[static_cast<std::size_t>(s)].window_events;
      digest.MixU64(events - prev_window_events_[static_cast<std::size_t>(s)]);
      prev_window_events_[static_cast<std::size_t>(s)] = events;
    }
    for (const ShardMessage& message : pending_) {
      digest.MixU64(static_cast<std::uint64_t>(message.deliver_at));
      digest.MixU64(message.send_seq);
      digest.MixU64(message.a);
      digest.MixU64(message.b);
      digest.MixU64(message.c);
      digest.MixU64((static_cast<std::uint64_t>(message.src) << 32) |
                    message.dst);
      digest.MixU64(message.kind);
    }
    window_digests_.push_back(digest.hash());
  }
}

void ShardedEngine::Run(Tick until, int threads) {
  DMASIM_EXPECTS(shard_count() > 0);
  DMASIM_EXPECTS(threads >= 1);
  DMASIM_EXPECTS(until < std::numeric_limits<Tick>::max());
  const int n = shard_count();
  if (n > 1) DMASIM_EXPECTS(options_.lookahead > 0);
  running_ = true;
  const int members = std::min(threads, n);
  stats_.threads = members;
  WorkerTeam team(members,
                  [this, members](int member) { RunShare(member, members); });
  window_order_.resize(static_cast<std::size_t>(n));

  const Tick reach = Simulator::kNoPendingEvent - options_.lookahead;
  while (true) {
    // Horizon: the earliest deliver_at any shard can still send, clipped
    // to the run bound (events at exactly `until` still execute: bound
    // + 1). A lone shard has nobody to send to.
    Tick min_next = Simulator::kNoPendingEvent;
    Tick horizon = until + 1;
    for (Shard& shard : shards_) {
      const Tick next = shard.simulator->NextPendingTick();
      min_next = std::min(min_next, next);
      Tick bound = Simulator::kNoPendingEvent;
      if (shard.send_bound) {
        bound = shard.send_floor = shard.send_bound();
      } else if (next <= reach) {
        bound = next + options_.lookahead;
      }
      if (n > 1) horizon = std::min(horizon, bound);
    }
    if (min_next == Simulator::kNoPendingEvent || min_next > until) break;
    // No message can arrive at the earliest pending event itself, so a
    // bound at or before it is a broken callback (and a window that
    // would execute nothing).
    DMASIM_CHECK_GT(horizon, min_next);
    const std::uint64_t window = stats_.windows;
    current_horizon_ = horizon;
    current_window_ = window;
    if (options_.hooks != nullptr) {
      options_.hooks->OnWindowStart(window, horizon);
    }

    std::iota(window_order_.begin(), window_order_.end(), 0);
    // Perturbed execution order, and so a perturbed shard-to-member map:
    // share-nothing windows make both immaterial, which is exactly what
    // this checks.
    if (options_.sched_fuzz_seed != 0) FuzzPermute(&window_order_);
    team.RunRound();
    ++stats_.windows;
    DeliverMail(window, horizon);
  }

  RefreshMailboxStats();
  running_ = false;
}

void ShardedEngine::FuzzBackoff(std::uint64_t window, int index) {
  std::uint64_t state = options_.sched_fuzz_seed ^
                        (window * 0x9e3779b97f4a7c15ULL) ^
                        (static_cast<std::uint64_t>(index) *
                         0xbf58476d1ce4e5b9ULL);
  const std::uint64_t draw = SplitMix64(state);
  if ((draw & 3u) == 0) std::this_thread::yield();
  volatile std::uint32_t sink = 0;
  for (std::uint32_t i = 0, end = static_cast<std::uint32_t>(draw % 997);
       i < end; ++i) {
    sink = sink + i;
  }
}

void ShardedEngine::FuzzPermute(std::vector<int>* order) {
  for (std::size_t i = order->size(); i > 1; --i) {
    const std::uint64_t draw = SplitMix64(fuzz_state_);
    const std::size_t j = static_cast<std::size_t>(draw % i);
    std::swap((*order)[i - 1], (*order)[j]);
  }
}

}  // namespace dmasim
