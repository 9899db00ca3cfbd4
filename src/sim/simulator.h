// Discrete-event simulation kernel.
//
// Events are (time, sequence, callback) triples; sequence numbers make
// event ordering at equal timestamps deterministic (FIFO), which keeps
// every experiment bit-for-bit reproducible.
//
// The queue is a two-level calendar (timer wheel) keyed on `Tick`, not a
// binary heap: schedule and pop are O(1) amortized, and the hot serving
// bucket is a flat sorted vector of trivially-copyable events, so draining
// it is a linear scan. See DESIGN.md "Event kernel internals" for the
// bucketing scheme and the exact-ordering argument.
//
// Components that need to cancel timers (e.g. idle-threshold timers in
// `MemoryChip`) use generation counters: the callback captures the
// generation it was armed with and returns immediately if the component
// has since moved on. This avoids an explicit (and error-prone)
// cancellation API.
#ifndef DMASIM_SIM_SIMULATOR_H_
#define DMASIM_SIM_SIMULATOR_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/inline_function.h"
#include "sim/shard_annotations.h"
#include "util/check.h"
#include "util/time.h"
#include "util/units.h"

namespace dmasim {

class Simulator {
 public:
  // Inline storage covers every callback scheduled in-repo (the largest is
  // a test's four-capture lambda at 32 bytes); growth is a compile error.
  using Callback = TrivialCallback<void(), 40>;

  Simulator() = default;

  // Not copyable: events capture component pointers tied to one instance.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time.
  Tick Now() const { return now_; }

  // Schedules `callback` at absolute time `when` (>= Now()).
  void ScheduleAt(Tick when, Callback callback) {
    DMASIM_EXPECTS(when >= now_);
    DMASIM_EXPECTS(callback);
    Insert(Event{when, next_sequence_++, std::move(callback)});
    ++size_;
  }

  // Schedules `callback` `delay` ticks from now (delay >= 0).
  void ScheduleAfter(Tick delay, Callback callback) {
    ScheduleAt(now_ + delay, std::move(callback));
  }

  // Typed-duration overload: the calendar itself stays on the raw `Tick`
  // time base (absolute timestamps are its audited edge), but relative
  // delays arrive as strong `Ticks` durations from the typed layers.
  void ScheduleAfter(Ticks delay, Callback callback) {
    ScheduleAt(now_ + delay.value(), std::move(callback));
  }

  // Executes the earliest pending event. Returns false if none remain.
  bool Step() {
    if (!EnsureServing()) return false;
    // The callback may schedule into the serving bucket (reallocating it),
    // so copy the event out first; events are trivially copyable.
    const Event event = serving_[serving_pos_++];
    DMASIM_CHECK_GE(event.when, now_);
    // Pops must advance in strict (time, sequence) lexicographic order —
    // the property the wheel's bucketing, cascades, and overflow refills
    // all exist to preserve. The clock check above rules out an earlier
    // time; at the clock's own time the sequence must grow (RunUntil only
    // moves the clock past events it has already popped).
    if (event.when == now_ && event.sequence <= last_sequence_ &&
        stepped_ != 0) [[unlikely]] {
      PopOrderFailure();
    }
    last_sequence_ = event.sequence;
    now_ = event.when;
    ++executed_;
    ++stepped_;
    --size_;
    Callback callback = event.callback;
    callback();
    return true;
  }

  // Runs until the event queue is drained.
  void Run() {
    while (Step()) {
    }
  }

  // Runs events with timestamps <= `until`, then advances the clock to
  // exactly `until` (even if no event lands there).
  void RunUntil(Tick until) {
    DMASIM_EXPECTS(until >= now_);
    while (EnsureServing() && serving_[serving_pos_].when <= until) {
      Step();
    }
    now_ = until;
  }

  // Runs events with timestamps strictly < `bound` and stops, leaving the
  // clock at the last executed event (it does NOT advance to `bound`).
  // This is the shard-window primitive of the sharded engine: a shard may
  // execute everything before the conservative horizon, but its clock
  // must stay at its own last event so cross-shard deliveries scheduled
  // at the horizon still satisfy ScheduleAt's `when >= Now()` contract.
  // Returns the number of events executed.
  std::uint64_t RunEventsBefore(Tick bound) {
    std::uint64_t ran = 0;
    while (EnsureServing() && serving_[serving_pos_].when < bound) {
      Step();
      ++ran;
    }
    return ran;
  }

  // Timestamp of the earliest pending event, or `kNoPendingEvent` when the
  // queue is empty. Non-destructive, but may rotate the wheel internally
  // (exactly the work the next Step would have done anyway). Components
  // use this to bound speculative fast paths — e.g. chunk-run coalescing
  // only absorbs work that finishes strictly before the next event.
  static constexpr Tick kNoPendingEvent = std::numeric_limits<Tick>::max();
  Tick NextPendingTick() {
    if (!EnsureServing()) return kNoPendingEvent;
    return serving_[serving_pos_].when;
  }

  // Number of events not yet executed.
  std::size_t PendingEvents() const { return size_; }

  // Total number of events executed so far (useful for budget checks).
  // Includes events credited by coalesced fast paths (below), so the
  // count matches the uncoalesced execution.
  std::uint64_t ExecutedEvents() const { return executed_; }

  // Events actually popped from the queue — excludes coalesced credits.
  // ExecutedEvents() - SteppedEvents() is the work saved by coalescing.
  std::uint64_t SteppedEvents() const { return stepped_; }

  // Calendar-queue internals, exposed so shard imbalance and the
  // overflow guard are observable (obs metrics, --metrics-out). Pure
  // counters: reading or exporting them never perturbs execution.
  // shardcheck: allow(unannotated-member) -- value type; the kernel's
  // copy is the annotated calendar_ member.
  struct CalendarStats {
    std::uint64_t bucket_loads = 0;      // Level-0 buckets made serving.
    std::uint64_t cascades = 0;          // Level-1 spans redistributed.
    std::uint64_t overflow_refills = 0;  // Overflow list redistributions.
    std::uint64_t max_bucket_events = 0; // Serving-bucket occupancy peak.
    std::uint64_t max_cascade_events = 0;  // Largest single cascade.
    std::uint64_t max_overflow_events = 0; // Overflow population peak.
  };
  const CalendarStats& calendar_stats() const { return calendar_; }

  // Logical-event accounting for coalesced fast paths: when a component
  // serves a whole run of per-chunk events inside one scheduled event, it
  // credits the events it absorbed so `ExecutedEvents()` matches the
  // uncoalesced execution exactly.
  void CreditExecuted(std::uint64_t events) { executed_ += events; }
  // A scheduled event that turned out to be a superseded no-op (e.g. a
  // run-end event whose run was dissolved) uncounts itself.
  void UncountExecuted() {
    DMASIM_CHECK_GT(executed_, 0u);
    --executed_;
  }

 private:
  // The pop-order check's failure path, out of line and cold: inline, it
  // grew Step enough to change GCC's inlining around the event loop and
  // cost ~3% of monitored OLTP-St host time.
  [[noreturn, gnu::cold, gnu::noinline]] static void PopOrderFailure() {
    FatalCheckFailure(__FILE__, __LINE__,
                      "event.when > now_ || event.sequence > last_sequence_",
                      "event kernel popped events out of (time, seq) order");
  }

  // shardcheck: allow(unannotated-member) -- POD event value stored in
  // the shard-local calendar containers below.
  struct Event {
    Tick when;
    std::uint64_t sequence;
    Callback callback;
  };
  static_assert(std::is_trivially_copyable_v<Event>);

  // Level-0 buckets are 2^19 ticks (~0.52 us) wide, so back-to-back chunk
  // events (one bus slot apart, 480000 ticks at the paper's bandwidth)
  // land about one bucket apart. Level 1 covers 1024 level-0 spans
  // (~0.55 s); anything farther sits in an overflow list that is
  // redistributed when the wheel reaches it.
  static constexpr int kLevel0Bits = 19;
  static constexpr int kBucketBits = 10;
  static constexpr int kLevel1Bits = kLevel0Bits + kBucketBits;
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
  static constexpr std::size_t kBitmapWords = kBuckets / 64;

  // Functor (not a function pointer) so std::sort inlines the comparison.
  struct EarlierCmp {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when < b.when;
      return a.sequence < b.sequence;
    }
  };
  static bool Earlier(const Event& a, const Event& b) {
    return EarlierCmp{}(a, b);
  }

  void Insert(const Event& event) {
    const std::uint64_t b0 =
        static_cast<std::uint64_t>(event.when) >> kLevel0Bits;
    if (b0 <= serving_bucket_) {
      // Current bucket — or behind it, which happens when RunUntil parked
      // the wheel on a far-future bucket and the clock (and subsequent
      // schedules) sit in the gap. Append now and restore sorted order
      // lazily on the next pop; every event already in the wheel is in a
      // later bucket, and appends carry monotonically increasing sequence
      // numbers, so sorting by (when, sequence) reproduces the global
      // FIFO order exactly.
      serving_.push_back(event);
      return;
    }
    const std::uint64_t b1 =
        static_cast<std::uint64_t>(event.when) >> kLevel1Bits;
    const std::uint64_t cur1 = serving_bucket_ >> kBucketBits;
    if (b1 == cur1) {
      const std::size_t slot = b0 & (kBuckets - 1);
      level0_[slot].push_back(event);
      level0_bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    } else if (b1 - cur1 < kBuckets) {
      const std::size_t slot = b1 & (kBuckets - 1);
      level1_[slot].push_back(event);
      level1_bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    } else {
      overflow_.push_back(event);
      overflow_min_b1_ = std::min(overflow_min_b1_, b1);
      calendar_.max_overflow_events =
          std::max(calendar_.max_overflow_events,
                   static_cast<std::uint64_t>(overflow_.size()));
    }
  }

  // Sorts any unsorted tail appended to the serving bucket since the last
  // pop, merging it with the sorted remainder (allocation-free after the
  // scratch buffer warms up).
  void MergeServingTail() {
    const std::size_t mid = serving_sorted_;
    const std::size_t end = serving_.size();
    if (mid >= end) return;
    serving_sorted_ = end;
    if (end - mid > 1) {
      std::sort(serving_.begin() + static_cast<std::ptrdiff_t>(mid),
                serving_.end(), EarlierCmp{});
    }
    if (mid <= serving_pos_ || !Earlier(serving_[mid], serving_[mid - 1])) {
      return;  // Tail already in order (bulk scheduling, ascending times).
    }
    scratch_.assign(serving_.begin() + static_cast<std::ptrdiff_t>(mid),
                    serving_.end());
    // Backward merge of [pos, mid) and the scratch copy into [pos, end).
    std::size_t left = mid;
    std::size_t right = scratch_.size();
    std::size_t out = end;
    while (right > 0) {
      if (left > serving_pos_ &&
          Earlier(scratch_[right - 1], serving_[left - 1])) {
        serving_[--out] = serving_[--left];
      } else {
        serving_[--out] = scratch_[--right];
      }
    }
  }

  // Finds the first set bit at or after `from`; returns kBuckets if none.
  static std::size_t NextSetBit(const std::array<std::uint64_t,
                                                 kBitmapWords>& bits,
                                std::size_t from) {
    if (from >= kBuckets) return kBuckets;
    std::size_t word = from >> 6;
    std::uint64_t masked = bits[word] & (~std::uint64_t{0} << (from & 63));
    while (masked == 0) {
      if (++word == kBitmapWords) return kBuckets;
      masked = bits[word];
    }
    return (word << 6) +
           static_cast<std::size_t>(std::countr_zero(masked));
  }

  void LoadBucket(std::uint64_t bucket) {
    const std::size_t slot = bucket & (kBuckets - 1);
    serving_bucket_ = bucket;
    serving_pos_ = 0;
    serving_.swap(level0_[slot]);
    level0_[slot].clear();
    level0_bits_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    if (serving_.size() > 1) {
      std::sort(serving_.begin(), serving_.end(), EarlierCmp{});
    }
    serving_sorted_ = serving_.size();
    ++calendar_.bucket_loads;
    calendar_.max_bucket_events =
        std::max(calendar_.max_bucket_events,
                 static_cast<std::uint64_t>(serving_.size()));
  }

  // Makes serving_[serving_pos_] the globally earliest pending event.
  // Returns false when the queue is empty.
  bool EnsureServing() {
    MergeServingTail();
    while (serving_pos_ >= serving_.size()) {
      // Advance within the current level-1 span. Level-0 slots never wrap:
      // a span covers exactly kBuckets consecutive level-0 buckets.
      const std::size_t next0 =
          NextSetBit(level0_bits_, (serving_bucket_ & (kBuckets - 1)) + 1);
      if (next0 < kBuckets) {
        LoadBucket((serving_bucket_ & ~(kBuckets - 1)) + next0);
        continue;
      }
      std::uint64_t cur1 = serving_bucket_ >> kBucketBits;
      // Advance to the next occupied level-1 bucket. The level-1 window
      // (cur1, cur1 + kBuckets) wraps the array, so scan in two pieces.
      std::size_t slot1 = NextSetBit(level1_bits_, (cur1 & (kBuckets - 1)) + 1);
      std::uint64_t next1;
      if (slot1 < kBuckets) {
        next1 = (cur1 & ~(kBuckets - 1)) + slot1;
      } else {
        slot1 = NextSetBit(level1_bits_, 0);
        if (slot1 < kBuckets) {
          next1 = (cur1 & ~(kBuckets - 1)) + kBuckets + slot1;
        } else if (!overflow_.empty()) {
          RefillFromOverflow();
          continue;
        } else {
          return false;  // Queue is empty.
        }
      }
      // The wheel's window shifts as it advances, so an overflow event's
      // span may by now lie at or before the next occupied level-1
      // bucket (later schedules can even share its span). Refill first —
      // cascading past it would execute events out of order.
      if (overflow_min_b1_ <= next1) {
        RefillFromOverflow();
        continue;
      }
      CascadeLevel1(next1);
    }
    return true;
  }

  void CascadeLevel1(std::uint64_t bucket1) {
    const std::size_t slot = bucket1 & (kBuckets - 1);
    cascade_.swap(level1_[slot]);
    level1_[slot].clear();
    ++calendar_.cascades;
    calendar_.max_cascade_events =
        std::max(calendar_.max_cascade_events,
                 static_cast<std::uint64_t>(cascade_.size()));
    level1_bits_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    // Park the wheel just before the span so Insert routes the events into
    // level-0 slots (all land inside this span by construction).
    serving_bucket_ = (bucket1 << kBucketBits) - 1;
    std::uint64_t earliest = ~std::uint64_t{0};
    for (const Event& event : cascade_) {
      const std::uint64_t b0 =
          static_cast<std::uint64_t>(event.when) >> kLevel0Bits;
      earliest = std::min(earliest, b0);
      const std::size_t slot0 = b0 & (kBuckets - 1);
      level0_[slot0].push_back(event);
      level0_bits_[slot0 >> 6] |= std::uint64_t{1} << (slot0 & 63);
    }
    cascade_.clear();
    LoadBucket(earliest);
  }

  void RefillFromOverflow() {
    // Move the wheel's window to start at the earliest overflow span;
    // everything within the new level-1 horizon files into the wheel, the
    // rest stays in overflow for a later refill. `overflow_min_b1_ > cur1`
    // always holds (EnsureServing refills before cascading past it), so
    // this only ever moves the wheel forward.
    serving_bucket_ = (overflow_min_b1_ << kBucketBits) - 1;
    overflow_min_b1_ = kNoOverflow;
    ++calendar_.overflow_refills;
    cascade_.swap(overflow_);
    overflow_.clear();
    for (const Event& event : cascade_) {
      Insert(event);
    }
    cascade_.clear();
  }

  // Every member is DMASIM_SHARD_LOCAL (see sim/shard_annotations.h): a
  // Simulator is the private event kernel of exactly one shard, touched
  // only by that shard's worker during a window.
  DMASIM_SHARD_LOCAL Tick now_ = 0;
  DMASIM_SHARD_LOCAL std::uint64_t next_sequence_ = 0;
  DMASIM_SHARD_LOCAL std::uint64_t executed_ = 0;
  DMASIM_SHARD_LOCAL std::uint64_t stepped_ = 0;
  DMASIM_SHARD_LOCAL std::size_t size_ = 0;

  // Serving bucket: flat, (when, sequence)-sorted up to serving_sorted_,
  // drained by cursor. serving_bucket_ is its absolute level-0 index.
  DMASIM_SHARD_LOCAL std::vector<Event> serving_;
  DMASIM_SHARD_LOCAL std::size_t serving_pos_ = 0;
  DMASIM_SHARD_LOCAL std::size_t serving_sorted_ = 0;
  DMASIM_SHARD_LOCAL std::uint64_t serving_bucket_ = 0;

  DMASIM_SHARD_LOCAL std::array<std::vector<Event>, kBuckets> level0_;
  DMASIM_SHARD_LOCAL std::array<std::vector<Event>, kBuckets> level1_;
  DMASIM_SHARD_LOCAL std::array<std::uint64_t, kBitmapWords> level0_bits_ = {};
  DMASIM_SHARD_LOCAL std::array<std::uint64_t, kBitmapWords> level1_bits_ = {};
  DMASIM_SHARD_LOCAL std::vector<Event> overflow_;
  // Smallest level-1 bucket among pending overflow events; kNoOverflow
  // when overflow_ is empty. Bounds how far the wheel may cascade.
  static constexpr std::uint64_t kNoOverflow = ~std::uint64_t{0};
  DMASIM_SHARD_LOCAL std::uint64_t overflow_min_b1_ = kNoOverflow;
  // MergeServingTail working space.
  DMASIM_SHARD_LOCAL std::vector<Event> scratch_;
  // CascadeLevel1/refill working space.
  DMASIM_SHARD_LOCAL std::vector<Event> cascade_;
  DMASIM_SHARD_LOCAL CalendarStats calendar_;

  // Sequence of the last popped event, for the pop-order check in Step().
  DMASIM_SHARD_LOCAL std::uint64_t last_sequence_ = 0;
};

}  // namespace dmasim

#endif  // DMASIM_SIM_SIMULATOR_H_
