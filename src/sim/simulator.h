// Discrete-event simulation kernel.
//
// Events are (time, sequence, callback) triples; sequence numbers make
// event ordering at equal timestamps deterministic (FIFO), which keeps
// every experiment bit-for-bit reproducible.
//
// The queue is a two-level calendar (timer wheel) keyed on `Tick`, not a
// binary heap: schedule and pop are O(1) amortized, and the hot serving
// bucket is a flat sorted vector of trivially-copyable events, so draining
// it is a linear scan and an event scheduled into it a few slots from its
// end is inserted in place. One pending event is held outside the
// calendar: the earliest scheduled since the slot last emptied, which is
// usually the next to pop and then never enters the calendar. See
// DESIGN.md "Event kernel internals" for the bucketing scheme and the
// exact-ordering argument.
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

  // Schedules `callback` at absolute time `when` (>= Now()). Returns the
  // event's sequence number, which with `when` names it (EventRef).
  std::uint64_t ScheduleAt(Tick when, Callback callback) {
    DMASIM_EXPECTS(when >= now_);
    DMASIM_EXPECTS(callback);
    const std::uint64_t sequence = next_sequence_++;
    ++size_;
    if (!holding_) {
      held_ = Event{when, sequence, std::move(callback)};
      holding_ = true;
    } else if (when < held_.when) {
      // The newest event is now the earliest scheduled since the slot
      // emptied; the one it displaces keeps its older sequence number.
      Insert(held_);
      held_ = Event{when, sequence, std::move(callback)};
    } else {
      Insert(Event{when, sequence, std::move(callback)});
    }
    return sequence;
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
  // A lone Step returns to its caller after one event, so fast paths
  // resolve nothing ahead of it (LoopBound).
  bool Step() {
    loop_bound_ = std::numeric_limits<Tick>::min();
    return StepEvent(kNoPendingEvent);
  }

  // Runs until the event queue is drained.
  void Run() {
    loop_bound_ = kNoPendingEvent;
    while (StepEvent(kNoPendingEvent)) {
    }
    now_ = std::max(now_, retired_until_);
  }

  // Runs events with timestamps <= `until`, then advances the clock to
  // exactly `until` (even if no event lands there).
  void RunUntil(Tick until) {
    DMASIM_EXPECTS(until >= now_);
    loop_bound_ = until < kNoPendingEvent ? until + 1 : until;
    while (StepEvent(until)) {
    }
    now_ = until;
  }

  // Runs events with timestamps strictly < `bound` and stops, leaving the
  // clock at the last executed event, retired ones included
  // (CreditRetiredEvent); it does NOT advance to `bound`.
  // This is the shard-window primitive of the sharded engine: a shard may
  // execute everything before the conservative horizon, but its clock
  // must stay at its own last event so cross-shard deliveries scheduled
  // at the horizon still satisfy ScheduleAt's `when >= Now()` contract.
  // Returns the number of events popped.
  std::uint64_t RunEventsBefore(Tick bound) {
    loop_bound_ = bound;
    std::uint64_t ran = 0;
    if (bound > now_) {
      while (StepEvent(bound - 1)) ++ran;
      now_ = std::max(now_, retired_until_);
    }
    return ran;
  }

  // The tick at which the Run, RunUntil or RunEventsBefore call in
  // progress hands control back to its caller, who may then schedule or
  // observe anything: RunUntil(T)'s T + 1, RunEventsBefore's bound, no
  // bound under Run, and the minimum tick under a lone Step. A fast path
  // that resolves future events inside the current one stops before it.
  Tick LoopBound() const { return loop_bound_; }

  // Timestamp of the earliest pending event, or `kNoPendingEvent` when the
  // queue is empty. Non-destructive, but may rotate the wheel internally
  // (exactly the work the next Step would have done anyway). Components
  // use this to bound speculative fast paths — e.g. chunk-run coalescing
  // only absorbs work that finishes strictly before the next event.
  static constexpr Tick kNoPendingEvent = std::numeric_limits<Tick>::max();
  Tick NextPendingTick() {
    if (holding_ && HeldPopsFirst()) return held_.when;
    return EnsureServing() ? serving_[serving_pos_].when : kNoPendingEvent;
  }

  // A sequence number no event carries (all count up from 0): an owner
  // whose pending event was taken over expects it.
  static constexpr std::uint64_t kNoSequence = ~std::uint64_t{0};

  // A pending event, named by its time and sequence number.
  // dmasim-lint: allow(unannotated-member) -- value type held by its
  // owner (a bus's or chip's pending event, a run's scratch).
  struct EventRef {
    Tick when = 0;
    std::uint64_t sequence = 0;
  };

  // Timestamp of the earliest pending event that is none of `skip`, or
  // `kNoPendingEvent`. Like NextPendingTick, non-destructive. A coalesced
  // group run (MemoryController) takes over its own few pending events
  // and asks for the horizon past them.
  Tick NextPendingTickSkipping(const EventRef* skip, std::size_t count) {
    const auto skipped = [skip, count](const Event& event) {
      for (std::size_t i = 0; i < count; ++i) {
        if (skip[i].sequence == event.sequence) return true;
      }
      return false;
    };
    const Tick held =
        holding_ && !skipped(held_) ? held_.when : kNoPendingEvent;
    if (!EnsureServing()) return held;
    // The serving bucket is sorted from the cursor on (EnsureServing).
    for (std::size_t i = serving_pos_; i < serving_.size(); ++i) {
      if (!skipped(serving_[i])) return std::min(held, serving_[i].when);
    }
    const auto earliest_kept = [&skipped](const std::vector<Event>& events) {
      Tick best = kNoPendingEvent;
      for (const Event& event : events) {
        if (event.when < best && !skipped(event)) best = event.when;
      }
      return best;
    };
    // Later level-0 buckets of the current span come in time order.
    for (std::size_t slot =
             NextSetBit(level0_bits_, (serving_bucket_ & (kBuckets - 1)) + 1);
         slot < kBuckets; slot = NextSetBit(level0_bits_, slot + 1)) {
      const Tick best = earliest_kept(level0_[slot]);
      if (best != kNoPendingEvent) return std::min(held, best);
    }
    // Later spans: the level-1 window in order (it wraps the array), and
    // the overflow list, which may hold spans at or before a level-1 slot.
    const std::size_t first1 =
        ((serving_bucket_ >> kBucketBits) + 1) & (kBuckets - 1);
    Tick best = kNoPendingEvent;
    for (std::size_t step = 0;
         step + 1 < kBuckets && best == kNoPendingEvent; ++step) {
      const std::size_t slot = (first1 + step) & (kBuckets - 1);
      if (((level1_bits_[slot >> 6] >> (slot & 63)) & 1) != 0) {
        best = earliest_kept(level1_[slot]);
      }
    }
    return std::min({held, best, earliest_kept(overflow_)});
  }

  // Sequence number of the event executing now (of the last one popped,
  // outside an event). An event its owner may have handed to a coalesced
  // run compares it with the sequence the owner still expects.
  std::uint64_t CurrentSequence() const { return last_sequence_; }

  // The tick before which nothing but the running event can act on this
  // kernel: the earliest pending event or the loop's bound, whichever
  // comes first. From the bound on, the caller (the sharded engine's
  // barrier, a driver between RunUntil calls) may schedule or observe
  // what no pending event announces. A fast path that resolves future
  // work inline and cannot be undone (chip inline retirement) stops
  // strictly before it.
  Tick QuietUntil() { return std::min(NextPendingTick(), loop_bound_); }

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
  // dmasim-lint: allow(unannotated-member) -- value type; the kernel's
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
  // bus issue a coalesced run already played) uncounts itself.
  void UncountExecuted() {
    DMASIM_CHECK_GT(executed_, 0u);
    --executed_;
  }
  // Credits one event that a fast path resolved inside the running one
  // instead of scheduling it (chip inline retirement). `when` is where
  // its pop would have moved the clock, before QuietUntil(). Nothing
  // pops before it, so only the loop's end sees the difference: Run and
  // RunEventsBefore leave the clock at least at `when`, as the pop would
  // have; RunUntil ends at its bound, which is later.
  void CreditRetiredEvent(Tick when) {
    DMASIM_CHECK_LT(when, loop_bound_);
    ++executed_;
    retired_until_ = std::max(retired_until_, when);
  }

 private:
  // Pops and executes the earliest pending event if it is due at or
  // before `last`; returns false, popping nothing, otherwise. Does not
  // touch the loop bound: the loops above set it.
  bool StepEvent(Tick last) {
    // The callback may schedule into the serving bucket (shifting or
    // reallocating it) or into the emptied slot, so copy the event out
    // first, once; events are trivially copyable.
    Event event;
    if (holding_ && HeldPopsFirst()) {
      if (held_.when > last) return false;
      event = held_;
      holding_ = false;
    } else {
      if (!EnsureServing() || serving_[serving_pos_].when > last) {
        return false;
      }
      event = serving_[serving_pos_++];
    }
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
    event.callback();
    return true;
  }

  // The pop-order check's failure path, out of line and cold: inline, it
  // grew Step enough to change GCC's inlining around the event loop and
  // cost ~3% of monitored OLTP-St host time.
  [[noreturn, gnu::cold, gnu::noinline]] static void PopOrderFailure() {
    FatalCheckFailure(__FILE__, __LINE__,
                      "event.when > now_ || event.sequence > last_sequence_",
                      "event kernel popped events out of (time, seq) order");
  }

  // dmasim-lint: allow(unannotated-member) -- POD event value stored in
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
      // the wheel on a far-future bucket, or a pop turned it to compare
      // the held event with the calendar's head, and the clock (and
      // subsequent schedules) sit in the gap. Every event already in the
      // wheel is in a later bucket, so the serving bucket alone decides
      // its place.
      InsertServing(event);
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

  // How far from the serving bucket's end an event may be inserted in
  // place. A 64 B CPU access schedules its ServeDone 20 ns ahead, which
  // lands behind at most a few pending events of the same ~0.52 us
  // bucket; an insert farther back (bulk scheduling in random order)
  // would make a long shift per event, so it goes to the lazy tail.
  static constexpr std::size_t kInPlaceSlots = 8;

  // Scan back from the end at most kInPlaceSlots events for the new
  // event's (when, sequence) place; if it is found, shift the events
  // after it by one slot and the bucket stays sorted. Otherwise (or when
  // an unsorted tail already exists) append, and the next pop sorts the
  // tail and merges it into the remainder. The scan compares sequence
  // numbers too: an event displaced from the held slot is older than
  // events at its own time that were scheduled while it was held.
  void InsertServing(const Event& event) {
    std::size_t pos = serving_.size();
    if (serving_ready_ == pos) {  // No unsorted tail.
      const std::size_t floor =
          pos - std::min(pos - serving_pos_, kInPlaceSlots);
      while (pos > floor && Earlier(event, serving_[pos - 1])) --pos;
      if (pos == serving_pos_ || !Earlier(event, serving_[pos - 1])) {
        serving_.insert(serving_.begin() + static_cast<std::ptrdiff_t>(pos),
                        event);
        serving_sorted_ = serving_ready_ = serving_.size();
        return;
      }
    }
    serving_.push_back(event);
    serving_ready_ = 0;  // Forces the next pop through MergeServingTail.
  }

  // Sorts the unsorted tail appended to the serving bucket since the last
  // pop, merging it with the sorted remainder (allocation-free after the
  // scratch buffer warms up).
  void MergeServingTail() {
    const std::size_t mid = serving_sorted_;
    const std::size_t end = serving_.size();
    serving_ready_ = end;
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
    // Copy rather than swap buffers: most of a served bucket's events are
    // scheduled into it while it is served, so one serving buffer that
    // stays in cache beats rotating through the 1024 slot buffers.
    serving_.assign(level0_[slot].begin(), level0_[slot].end());
    level0_[slot].clear();
    level0_bits_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    if (serving_.size() > 1) {
      std::sort(serving_.begin(), serving_.end(), EarlierCmp{});
    }
    serving_sorted_ = serving_ready_ = serving_.size();
    ++calendar_.bucket_loads;
    calendar_.max_bucket_events =
        std::max(calendar_.max_bucket_events,
                 static_cast<std::uint64_t>(serving_.size()));
  }

  // Whether the held event (holding_) comes before the calendar's head
  // in (when, sequence) order.
  bool HeldPopsFirst() {
    return !EnsureServing() || Earlier(held_, serving_[serving_pos_]);
  }

  // Makes serving_[serving_pos_] the calendar's earliest event. Returns
  // false when the calendar is empty. One compare while the sorted
  // serving bucket has events left; the rest is the slow path.
  bool EnsureServing() {
    if (serving_pos_ < serving_ready_) [[likely]] return true;
    return AdvanceServing();
  }

  bool AdvanceServing() {
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
  // drained by cursor. serving_ready_ is serving_.size() while nothing
  // unsorted follows serving_sorted_, else 0, so EnsureServing's fast path
  // is one compare. serving_bucket_ is its absolute level-0 index.
  DMASIM_SHARD_LOCAL std::vector<Event> serving_;
  DMASIM_SHARD_LOCAL std::size_t serving_pos_ = 0;
  DMASIM_SHARD_LOCAL std::size_t serving_sorted_ = 0;
  DMASIM_SHARD_LOCAL std::size_t serving_ready_ = 0;
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

  // The held slot: while holding_, held_ is pending outside the
  // calendar. It is the earliest event scheduled since the slot last
  // emptied, not necessarily the earliest pending; a pop compares it with
  // the calendar's head in (when, sequence) order.
  DMASIM_SHARD_LOCAL Event held_{};
  DMASIM_SHARD_LOCAL bool holding_ = false;

  // Sequence of the last popped event, for the pop-order check in Step().
  DMASIM_SHARD_LOCAL std::uint64_t last_sequence_ = 0;
  // The bound of the loop in progress (LoopBound).
  DMASIM_SHARD_LOCAL Tick loop_bound_ = kNoPendingEvent;
  // The latest tick of a retired event (CreditRetiredEvent).
  DMASIM_SHARD_LOCAL Tick retired_until_ = 0;
};

}  // namespace dmasim

#endif  // DMASIM_SIM_SIMULATOR_H_
