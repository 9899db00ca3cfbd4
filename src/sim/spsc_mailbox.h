// Bounded single-producer/single-consumer mailbox for cross-shard event
// exchange (see sharded_engine.h).
//
// Usage contract in the sharded engine:
//   * exactly one producer — the worker thread executing the owning
//     shard's window — calls Push() during a window;
//   * exactly one consumer — the coordinating thread at the window
//     barrier — calls Drain() while no window is executing.
// The ring indices are release/acquire atomics so an in-window Push is
// immediately visible to the coordinator's occupancy probes. The full
// happens-before edge for Drain comes from the window barrier: each
// team member's increment of the engine's done count, which the
// coordinator acquires before it drains.
//
// The ring is bounded; a Push that finds it full spills into an overflow
// vector owned by the producer side (still SPSC: the consumer only
// touches it inside Drain, which by contract runs while the producer
// waits at the barrier). Spills are counted — they signal the capacity
// is undersized for the workload's cross-shard chattiness, which the obs
// metrics surface — but they never drop or reorder messages: Drain
// returns ring-then-spill, which preserves the producer's Push order.
#ifndef DMASIM_SIM_SPSC_MAILBOX_H_
#define DMASIM_SIM_SPSC_MAILBOX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/shard_annotations.h"
#include "util/check.h"

namespace dmasim {

template <typename Message>
class SpscMailbox {
  static_assert(std::is_trivially_copyable_v<Message>,
                "mailbox messages cross threads by memcpy");

 public:
  // dmasim-lint: allow(unannotated-member) -- value type; the mailbox's
  // copy is the annotated stats_ member (producer-side counters).
  struct Stats {
    std::uint64_t pushed = 0;
    std::uint64_t spilled = 0;        // Pushes that missed the ring.
    std::uint64_t max_occupancy = 0;  // Ring + spill high-water mark.
  };

  // Capacity is rounded up to a power of two: the `index % capacity`
  // slot map is only continuous across the 2^64 index wraparound when
  // the capacity divides 2^64, and a discontinuity there would let two
  // in-flight indices share a slot (caught by the wraparound boundary
  // test seeding indices near the wrap).
  explicit SpscMailbox(std::size_t capacity = 1024)
      : ring_(RoundUpToPowerOfTwo(capacity)) {}

  SpscMailbox(const SpscMailbox&) = delete;
  SpscMailbox& operator=(const SpscMailbox&) = delete;

  // Producer side. Never blocks: a full ring spills (bounded-memory
  // callers watch Stats::spilled and size the ring up).
  void Push(const Message& message) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t used = head - tail;
    std::size_t in_ring = used;
    if (used < ring_.size()) {
      ring_[head % ring_.size()] = message;
      head_.store(head + 1, std::memory_order_release);
      ++in_ring;
    } else {
      spill_.push_back(message);
      ++stats_.spilled;
    }
    ++stats_.pushed;
    const std::uint64_t occupancy =
        static_cast<std::uint64_t>(in_ring + spill_.size());
    if (occupancy > stats_.max_occupancy) stats_.max_occupancy = occupancy;
  }

  // Consumer side: appends every pending message to `out` in Push order
  // and empties the mailbox. Must not run concurrently with Push.
  DMASIM_BARRIER_ONLY void Drain(std::vector<Message>* out) {
    const std::size_t head = head_.load(std::memory_order_acquire);
    std::size_t tail = tail_.load(std::memory_order_relaxed);
    while (tail != head) {
      out->push_back(ring_[tail % ring_.size()]);
      ++tail;
    }
    tail_.store(tail, std::memory_order_release);
    for (const Message& message : spill_) out->push_back(message);
    spill_.clear();
  }

  // Messages currently queued (racy by design when probed mid-window;
  // exact between windows).
  std::size_t SizeApprox() const {
    return head_.load(std::memory_order_acquire) -
           tail_.load(std::memory_order_acquire) + spill_.size();
  }

  std::size_t capacity() const { return ring_.size(); }
  const Stats& stats() const { return stats_; }

  // Test seam: start both indices at `value` so a short test crosses an
  // index wraparound that would otherwise take 2^64 pushes (the
  // `head - tail` arithmetic must be wrap-oblivious). Only valid on an
  // empty mailbox with no consumer attached.
  DMASIM_BARRIER_ONLY void SeedIndicesForTest(std::size_t value) {
    DMASIM_EXPECTS(SizeApprox() == 0);
    head_.store(value, std::memory_order_relaxed);
    tail_.store(value, std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t RoundUpToPowerOfTwo(std::size_t n) {
    std::size_t size = 1;
    while (size < n) size *= 2;
    return size;
  }

  // Ring storage is written by the producer and read by the consumer,
  // in disjoint index ranges ordered by the head_/tail_ atomics — each
  // slot is owned by exactly one side at a time.
  DMASIM_SHARD_LOCAL std::vector<Message> ring_;
  // Producer-owned until Drain (which by contract runs while the
  // producer waits at the barrier).
  DMASIM_SHARD_LOCAL std::vector<Message> spill_;
  // Next write slot; producer-advanced (release), consumer-read.
  DMASIM_SHARD_LOCAL std::atomic<std::size_t> head_{0};
  // Next read slot; consumer-advanced at the barrier (release),
  // producer-read.
  DMASIM_BARRIER_ONLY std::atomic<std::size_t> tail_{0};
  // Producer-written; read at barriers only.
  DMASIM_SHARD_LOCAL Stats stats_;
};

}  // namespace dmasim

#endif  // DMASIM_SIM_SPSC_MAILBOX_H_
