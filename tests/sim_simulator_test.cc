// Tests for the discrete-event simulation kernel.
#include "sim/simulator.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"
#include "util/time.h"

namespace dmasim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator simulator;
  EXPECT_EQ(simulator.Now(), 0);
  EXPECT_EQ(simulator.PendingEvents(), 0u);
  EXPECT_EQ(simulator.ExecutedEvents(), 0u);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator simulator;
  EXPECT_FALSE(simulator.Step());
}

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.ScheduleAt(30, [&]() { order.push_back(3); });
  simulator.ScheduleAt(10, [&]() { order.push_back(1); });
  simulator.ScheduleAt(20, [&]() { order.push_back(2); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.Now(), 30);
}

TEST(SimulatorTest, FifoAtEqualTimestamps) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    simulator.ScheduleAt(100, [&order, i]() { order.push_back(i); });
  }
  simulator.Run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ClockAdvancesDuringEvent) {
  Simulator simulator;
  Tick observed = -1;
  simulator.ScheduleAt(55, [&]() { observed = simulator.Now(); });
  simulator.Run();
  EXPECT_EQ(observed, 55);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator simulator;
  Tick observed = -1;
  simulator.ScheduleAt(40, [&]() {
    simulator.ScheduleAfter(5, [&]() { observed = simulator.Now(); });
  });
  simulator.Run();
  EXPECT_EQ(observed, 45);
}

TEST(SimulatorTest, EventsCanScheduleAtSameTime) {
  Simulator simulator;
  std::vector<int> order;
  simulator.ScheduleAt(10, [&]() {
    order.push_back(1);
    simulator.ScheduleAt(10, [&]() { order.push_back(2); });
  });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(simulator.Now(), 10);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator simulator;
  std::vector<int> fired;
  simulator.ScheduleAt(10, [&]() { fired.push_back(10); });
  simulator.ScheduleAt(20, [&]() { fired.push_back(20); });
  simulator.ScheduleAt(30, [&]() { fired.push_back(30); });
  simulator.RunUntil(20);
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  EXPECT_EQ(simulator.Now(), 20);
  EXPECT_EQ(simulator.PendingEvents(), 1u);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator simulator;
  simulator.RunUntil(1000);
  EXPECT_EQ(simulator.Now(), 1000);
}

TEST(SimulatorTest, RunUntilHandlesSelfRescheduling) {
  // A periodic event must not prevent RunUntil from returning.
  Simulator simulator;
  struct Periodic {
    Simulator* simulator;
    int fires = 0;
    void Fire() {
      ++fires;
      simulator->ScheduleAfter(10, [this]() { Fire(); });
    }
  } periodic{&simulator};
  simulator.ScheduleAt(10, [&periodic]() { periodic.Fire(); });
  simulator.RunUntil(100);
  EXPECT_EQ(periodic.fires, 10);
  EXPECT_EQ(simulator.Now(), 100);
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator simulator;
  for (int i = 0; i < 5; ++i) {
    simulator.ScheduleAt(i, []() {});
  }
  simulator.RunUntil(2);
  EXPECT_EQ(simulator.ExecutedEvents(), 3u);  // t = 0, 1, 2.
  simulator.Run();
  EXPECT_EQ(simulator.ExecutedEvents(), 5u);
}

TEST(SimulatorTest, StepExecutesExactlyOneEvent) {
  Simulator simulator;
  int fired = 0;
  simulator.ScheduleAt(1, [&]() { ++fired; });
  simulator.ScheduleAt(2, [&]() { ++fired; });
  EXPECT_TRUE(simulator.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(simulator.Step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(simulator.Step());
}

TEST(SimulatorTest, InterleavedSchedulingKeepsDeterministicOrder) {
  // Two "components" scheduling against each other must interleave in a
  // reproducible way.
  Simulator simulator;
  std::vector<std::string> log;
  std::function<void(int)> ping = [&](int round) {
    log.push_back("ping" + std::to_string(round));
    if (round < 3) {
      simulator.ScheduleAfter(2, [&, round]() { ping(round + 1); });
    }
  };
  std::function<void(int)> pong = [&](int round) {
    log.push_back("pong" + std::to_string(round));
    if (round < 3) {
      simulator.ScheduleAfter(2, [&, round]() { pong(round + 1); });
    }
  };
  simulator.ScheduleAt(0, [&]() { ping(1); });
  simulator.ScheduleAt(1, [&]() { pong(1); });
  simulator.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"ping1", "pong1", "ping2", "pong2",
                                           "ping3", "pong3"}));
}

// --- Calendar-queue internals (bucket spans are implementation constants:
// --- level 0 covers 2^19 ticks per bucket, a level-1 slot covers 2^29,
// --- and the wheel horizon is 2^39; beyond that events sit in overflow).

constexpr Tick kBucketSpan = Tick{1} << 19;
constexpr Tick kLevel1Span = Tick{1} << 29;
constexpr Tick kWheelHorizon = Tick{1} << 39;

TEST(SimulatorCalendarTest, FifoAtEqualTimestampAcrossBucketBoundary) {
  // Equal-timestamp events scheduled before and after the wheel rotates
  // past their bucket must still run in scheduling order.
  Simulator simulator;
  std::vector<int> order;
  const Tick when = 3 * kBucketSpan + 17;  // Not in the serving bucket.
  for (int i = 0; i < 8; ++i) {
    simulator.ScheduleAt(when, [&order, i]() { order.push_back(i); });
  }
  // An earlier event that schedules more same-tick events mid-run, after
  // the wheel has advanced towards `when`.
  simulator.ScheduleAt(when - 1, [&]() {
    for (int i = 8; i < 12; ++i) {
      simulator.ScheduleAt(when, [&order, i]() { order.push_back(i); });
    }
  });
  simulator.Run();
  ASSERT_EQ(order.size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorCalendarTest, SparseFarFutureTimestamps) {
  // One event per routing tier: serving bucket, later level-0 bucket,
  // level-1 span, and past-the-horizon overflow.
  Simulator simulator;
  std::vector<Tick> fired;
  const std::vector<Tick> times = {
      5,
      7 * kBucketSpan,
      3 * kLevel1Span + 11,
      kWheelHorizon + 13,
      4 * kWheelHorizon + 1,
  };
  // Schedule in reverse to prove order comes from timestamps, not
  // insertion.
  for (auto it = times.rbegin(); it != times.rend(); ++it) {
    const Tick when = *it;
    simulator.ScheduleAt(when, [&fired, when]() { fired.push_back(when); });
  }
  simulator.Run();
  EXPECT_EQ(fired, times);
  EXPECT_EQ(simulator.Now(), times.back());
  EXPECT_EQ(simulator.ExecutedEvents(), times.size());
}

TEST(SimulatorCalendarTest, ScheduleBehindParkedWheel) {
  // RunUntil with an empty queue (or a far-future event) parks the wheel
  // past the clock; subsequent schedules land "behind" the serving bucket
  // and must still execute, in FIFO order at equal timestamps.
  Simulator simulator;
  simulator.ScheduleAt(2 * kLevel1Span, []() {});
  simulator.RunUntil(kLevel1Span);  // Clock in the gap before the event.
  ASSERT_EQ(simulator.Now(), kLevel1Span);

  std::vector<int> order;
  const Tick when = kLevel1Span + 100;
  simulator.ScheduleAt(when, [&order]() { order.push_back(0); });
  simulator.ScheduleAt(when, [&order]() { order.push_back(1); });
  simulator.ScheduleAt(when + 1, [&order]() { order.push_back(2); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(simulator.Now(), 2 * kLevel1Span);
}

TEST(SimulatorCalendarTest, OverflowRefillsBeforeLaterInWindowEvent) {
  // Regression: an event parked in overflow (past the wheel horizon at
  // schedule time) must execute before a later event that only entered
  // the level-1 window after the wheel advanced. The wheel must not
  // cascade a level-1 bucket at or past the earliest overflow span.
  Simulator simulator;
  std::vector<Tick> fired;
  const Tick advance = 600 * kLevel1Span;  // Moves the wheel when it runs.
  const Tick parked = 1500 * kLevel1Span;  // Past the horizon at t = 0.
  const Tick late = 1600 * kLevel1Span;    // In-window once cur1 = 600.
  simulator.ScheduleAt(parked, [&fired, parked]() { fired.push_back(parked); });
  simulator.ScheduleAt(advance, [&]() {
    fired.push_back(advance);
    simulator.ScheduleAt(late, [&fired, late]() { fired.push_back(late); });
  });
  simulator.Run();
  EXPECT_EQ(fired, (std::vector<Tick>{advance, parked, late}));
  EXPECT_EQ(simulator.Now(), late);
}

TEST(SimulatorCalendarTest, OverflowSharingSpanWithLevel1EventKeepsOrder) {
  // Same shape, but the overflow event and the later-scheduled in-window
  // event land in the SAME level-1 span, overflow event first in time:
  // the refill must merge into the span before it cascades.
  Simulator simulator;
  std::vector<Tick> fired;
  const Tick advance = 600 * kLevel1Span;
  const Tick parked = 1500 * kLevel1Span + kBucketSpan;
  const Tick late = 1500 * kLevel1Span + 5 * kBucketSpan;
  simulator.ScheduleAt(parked, [&fired, parked]() { fired.push_back(parked); });
  simulator.ScheduleAt(advance, [&]() {
    fired.push_back(advance);
    simulator.ScheduleAt(late, [&fired, late]() { fired.push_back(late); });
  });
  simulator.Run();
  EXPECT_EQ(fired, (std::vector<Tick>{advance, parked, late}));
}

TEST(SimulatorCalendarTest, GoldenOrderMatchesBinaryHeapReplay) {
  // The calendar queue must replay the exact (time, sequence) order the
  // old binary-heap kernel produced. The reference is computed here with
  // a stable sort by timestamp: stability is precisely the heap's
  // sequence-number tiebreak.
  Rng rng(0xca1e);
  std::vector<Tick> times;
  for (int i = 0; i < 2000; ++i) {
    // Mix of dense, sparse, far-future, and duplicate timestamps.
    switch (rng.NextBounded(4)) {
      case 0:
        times.push_back(static_cast<Tick>(rng.NextBounded(1024)));
        break;
      case 1:
        times.push_back(static_cast<Tick>(rng.NextBounded(64)) *
                        kBucketSpan);
        break;
      case 2:
        times.push_back(static_cast<Tick>(
            rng.NextBounded(static_cast<std::uint64_t>(kLevel1Span))));
        break;
      default:
        times.push_back(kWheelHorizon +
                        static_cast<Tick>(rng.NextBounded(1 << 20)));
        break;
    }
  }
  std::vector<int> expected(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    expected[i] = static_cast<int>(i);
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [&times](int a, int b) { return times[a] < times[b]; });

  Simulator simulator;
  std::vector<int> observed;
  for (std::size_t i = 0; i < times.size(); ++i) {
    simulator.ScheduleAt(times[i], [&observed, i]() {
      observed.push_back(static_cast<int>(i));
    });
  }
  simulator.Run();
  EXPECT_EQ(observed, expected);
}

// Shadows a Simulator with a binary heap over (when, sequence): every
// schedule goes to both, and every executed callback pops the heap, so
// any pop-order, clock or count divergence is recorded at the event where
// it happens. Callbacks schedule children themselves, as the simulator's
// components do: in an OLTP-Db run about 91% of schedules land in the
// bucket being served, from inside the callback it is serving.
class SelfSchedulingHarness {
 public:
  explicit SelfSchedulingHarness(std::uint64_t seed) : rng_(seed) {}

  Simulator& simulator() { return simulator_; }
  Rng& rng() { return rng_; }
  std::uint64_t executed() const { return executed_; }
  std::size_t pending() const { return reference_.size(); }
  Tick NextReferenceTick() const {
    return reference_.empty() ? Simulator::kNoPendingEvent
                              : std::get<0>(reference_.top());
  }
  // Events that ran other than as the reference predicts.
  const std::vector<std::string>& mismatches() const { return mismatches_; }

  void Schedule(Tick when, bool bulk = false) {
    const int id = next_id_++;
    reference_.emplace(when, next_sequence_++, id);
    simulator_.ScheduleAt(when, [this, id, bulk]() { Fire(id, bulk); });
  }

  // An offset from Now() in one of five tiers: zero, inside the serving
  // bucket, a later level-0 bucket, level 1, and past the wheel horizon.
  Tick TierOffset() {
    const Tick now = simulator_.Now();
    switch (rng_.NextBounded(20)) {
      case 0: case 1: case 2: case 3: case 4:
        return 0;
      case 5: case 6: case 7: case 8: case 9: case 10: case 11: {
        const Tick bucket_end = now | (kBucketSpan - 1);
        return static_cast<Tick>(
            rng_.NextBounded(static_cast<std::uint64_t>(bucket_end - now) + 1));
      }
      case 12: case 13: case 14: case 15: case 16:
        return kBucketSpan + static_cast<Tick>(rng_.NextBounded(
                                 kLevel1Span - kBucketSpan));
      case 17: case 18:
        return kLevel1Span + static_cast<Tick>(rng_.NextBounded(
                                 kWheelHorizon - kLevel1Span));
      default:
        return kWheelHorizon +
               static_cast<Tick>(rng_.NextBounded(kWheelHorizon));
    }
  }

  // The next callback to run schedules `count` events in random order
  // at or after its own time, all inside the bucket it is served from.
  void ArmBulk(int count) { bulk_pending_ = count; }

 private:
  void Fire(int id, bool bulk) {
    const Tick now = simulator_.Now();
    if (reference_.empty()) {
      mismatches_.push_back("event " + std::to_string(id) +
                            " ran with the reference queue empty");
      return;
    }
    const auto [when, sequence, expected] = reference_.top();
    reference_.pop();
    ++executed_;
    if (expected != id || when != now) {
      mismatches_.push_back("pop " + std::to_string(executed_) + ": event " +
                            std::to_string(id) + " at " +
                            std::to_string(now) + ", reference expects " +
                            std::to_string(expected) + " at " +
                            std::to_string(when));
    }
    if (bulk_pending_ > 0) {
      const Tick bucket_end = now | (kBucketSpan - 1);
      const int count = bulk_pending_;
      bulk_pending_ = 0;
      for (int i = 0; i < count; ++i) {
        Schedule(now + static_cast<Tick>(rng_.NextBounded(
                           static_cast<std::uint64_t>(bucket_end - now) + 1)),
                 /*bulk=*/true);
      }
    }
    // Bulk events only record themselves; the others fan out until the
    // budget is spent, after which the queue drains.
    if (bulk) return;
    const int children = static_cast<int>(rng_.NextBounded(4));
    for (int i = 0; i < children && next_id_ < kBudget; ++i) {
      Schedule(now + TierOffset());
    }
  }

  static constexpr int kBudget = 30000;
  using Entry = std::tuple<Tick, std::uint64_t, int>;  // when, sequence, id
  Simulator simulator_;
  Rng rng_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
      reference_;
  std::uint64_t next_sequence_ = 0;
  int next_id_ = 0;
  int bulk_pending_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<std::string> mismatches_;
};

TEST(SimulatorCalendarTest, SelfSchedulingMatchesReferenceQueue) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SelfSchedulingHarness harness(seed);
    Simulator& simulator = harness.simulator();
    // Two bulk loads into the serving bucket: the first event (at tick 0,
    // a bucket start) spreads one across the whole bucket, and a later one
    // lands wherever the run is after a few thousand pops.
    harness.Schedule(0);
    harness.ArmBulk(4096);
    for (int i = 0; i < 64; ++i) harness.Schedule(harness.TierOffset());

    int actions = 0;
    bool second_bulk = false;
    while (harness.pending() > 0) {
      ASSERT_LT(++actions, 1000000);
      if (!second_bulk && harness.executed() >= 5000) {
        harness.ArmBulk(4500);
        second_bulk = true;
      }
      const std::uint64_t before = harness.executed();
      switch (harness.rng().NextBounded(10)) {
        case 0: case 1: case 2: case 3: case 4:
          ASSERT_TRUE(simulator.Step());
          EXPECT_EQ(harness.executed(), before + 1);
          break;
        case 5: case 6: {
          const Tick until = simulator.Now() + harness.TierOffset();
          simulator.RunUntil(until);
          EXPECT_EQ(simulator.Now(), until);
          EXPECT_GT(harness.NextReferenceTick(), until);
          break;
        }
        case 7: case 8: {
          const Tick bound = simulator.Now() + harness.TierOffset();
          const std::uint64_t ran = simulator.RunEventsBefore(bound);
          EXPECT_EQ(ran, harness.executed() - before);
          EXPECT_GE(harness.NextReferenceTick(), bound);
          break;
        }
        default:
          EXPECT_EQ(simulator.NextPendingTick(), harness.NextReferenceTick());
          break;
      }
      EXPECT_EQ(simulator.PendingEvents(), harness.pending());
      EXPECT_EQ(simulator.ExecutedEvents(), harness.executed());
      EXPECT_EQ(simulator.SteppedEvents(), harness.executed());
      ASSERT_TRUE(harness.mismatches().empty())
          << harness.mismatches().size() << " mismatches; first: "
          << harness.mismatches().front();
    }
    EXPECT_TRUE(second_bulk);
    EXPECT_FALSE(simulator.Step());
    EXPECT_GE(harness.executed(), 30000u);
  }
}

TEST(SimulatorCalendarTest, GenerationCounterCancellation) {
  // The in-repo timer idiom: events capture a generation snapshot and
  // no-op when the counter moved on. The kernel has no remove operation,
  // so cancelled timers must stay executable (and counted) but inert.
  Simulator simulator;
  std::uint64_t generation = 0;
  int fired = 0;
  auto arm = [&](Tick delay) {
    const std::uint64_t snapshot = ++generation;
    simulator.ScheduleAfter(delay, [&, snapshot]() {
      if (generation != snapshot) return;  // Cancelled.
      ++fired;
    });
  };
  arm(10);
  arm(20);  // Cancels the first timer.
  simulator.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulator.ExecutedEvents(), 2u);  // Both events executed.
}

TEST(SimulatorCalendarTest, SteppedMatchesExecutedWithoutCoalescing) {
  // SteppedEvents counts real queue pops; ExecutedEvents is the logical
  // count that coalescing layers keep invariant via CreditExecuted. With
  // no coalescing in play the two must agree.
  Simulator simulator;
  for (int i = 0; i < 7; ++i) {
    simulator.ScheduleAt(i * kBucketSpan, []() {});
  }
  simulator.Run();
  EXPECT_EQ(simulator.ExecutedEvents(), 7u);
  EXPECT_EQ(simulator.SteppedEvents(), 7u);
}

TEST(SimulatorCalendarTest, NextPendingTickPeeksWithoutExecuting) {
  Simulator simulator;
  EXPECT_EQ(simulator.NextPendingTick(), Simulator::kNoPendingEvent);
  simulator.ScheduleAt(42, []() {});
  simulator.ScheduleAt(7, []() {});
  EXPECT_EQ(simulator.NextPendingTick(), 7);
  EXPECT_EQ(simulator.ExecutedEvents(), 0u);
  EXPECT_EQ(simulator.PendingEvents(), 2u);
  simulator.Run();
  EXPECT_EQ(simulator.NextPendingTick(), Simulator::kNoPendingEvent);
}

TEST(SimulatorCalendarTest, NextPendingTickSkippingFindsTheEarliestKept) {
  // Events in every tier: the serving bucket, later buckets of its span,
  // later level-1 spans and the overflow list. Skipping any prefix of
  // them in time order, the answer is the earliest event not skipped,
  // and peeking never executes anything.
  const Tick kSpan = kBucketSpan << 10;  // One level-1 span.
  const std::vector<Tick> times = {
      5, 5, 9, kBucketSpan + 3, 7 * kBucketSpan, kSpan + 11,
      600 * kSpan, 2000 * kSpan, 5000 * kSpan};
  Simulator simulator;
  std::vector<Simulator::EventRef> events;
  for (Tick when : times) {
    events.push_back({when, simulator.ScheduleAt(when, []() {})});
  }
  for (std::size_t skipped = 0; skipped <= events.size(); ++skipped) {
    SCOPED_TRACE("skipping " + std::to_string(skipped));
    const Tick want = skipped < events.size() ? events[skipped].when
                                              : Simulator::kNoPendingEvent;
    EXPECT_EQ(simulator.NextPendingTickSkipping(events.data(), skipped),
              want);
    // The same set named in another order.
    std::vector<Simulator::EventRef> reversed(events.begin(),
                                              events.begin() + skipped);
    std::reverse(reversed.begin(), reversed.end());
    EXPECT_EQ(simulator.NextPendingTickSkipping(reversed.data(), skipped),
              want);
  }
  // Skipping only a later event leaves the earliest one.
  EXPECT_EQ(simulator.NextPendingTickSkipping(&events[6], 1), 5);
  EXPECT_EQ(simulator.ExecutedEvents(), 0u);
  EXPECT_EQ(simulator.PendingEvents(), times.size());
  simulator.Run();
  EXPECT_EQ(simulator.ExecutedEvents(), times.size());
}

TEST(SimulatorCalendarTest, LoopBoundIsWhereControlReturns) {
  Simulator simulator;
  Tick seen = -1;
  simulator.ScheduleAt(10, [&]() { seen = simulator.LoopBound(); });
  simulator.RunUntil(100);
  EXPECT_EQ(seen, 101);  // RunUntil(T) runs every event at T.
  simulator.ScheduleAt(150, [&]() { seen = simulator.LoopBound(); });
  simulator.RunEventsBefore(200);
  EXPECT_EQ(seen, 200);
  simulator.ScheduleAt(250, [&]() { seen = simulator.LoopBound(); });
  simulator.Step();
  EXPECT_EQ(seen, std::numeric_limits<Tick>::min());
  simulator.ScheduleAt(300, [&]() { seen = simulator.LoopBound(); });
  simulator.Run();
  EXPECT_EQ(seen, Simulator::kNoPendingEvent);
}

}  // namespace
}  // namespace dmasim
