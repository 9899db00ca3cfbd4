// Unit tests for the sharded execution kernel: the SPSC mailbox contract
// (push order survives spills), RunEventsBefore window semantics, the
// calendar-queue instrumentation, and the ShardedEngine's conservative
// windows — including the core promise that a thread pool changes the
// wall clock, never the results.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "exp/thread_pool.h"
#include "sim/sharded_engine.h"
#include "sim/simulator.h"
#include "sim/spsc_mailbox.h"
#include "util/time.h"

namespace dmasim {
namespace {

ShardMessage TaggedMessage(std::uint64_t tag) {
  ShardMessage message;
  message.a = tag;
  return message;
}

TEST(SpscMailboxTest, PreservesPushOrderAcrossSpills) {
  SpscMailbox<ShardMessage> mailbox(4);
  EXPECT_EQ(mailbox.capacity(), 4u);
  for (std::uint64_t i = 0; i < 10; ++i) mailbox.Push(TaggedMessage(i));

  EXPECT_EQ(mailbox.SizeApprox(), 10u);
  std::vector<ShardMessage> out;
  mailbox.Drain(&out);
  ASSERT_EQ(out.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(out[i].a, i);

  EXPECT_EQ(mailbox.stats().pushed, 10u);
  EXPECT_EQ(mailbox.stats().spilled, 6u);  // Ring holds 4; the rest spill.
  EXPECT_EQ(mailbox.stats().max_occupancy, 10u);
  EXPECT_EQ(mailbox.SizeApprox(), 0u);
}

TEST(SpscMailboxTest, RingIsReusableAfterDrain) {
  SpscMailbox<ShardMessage> mailbox(2);
  std::vector<ShardMessage> out;
  for (std::uint64_t round = 0; round < 5; ++round) {
    mailbox.Push(TaggedMessage(2 * round));
    mailbox.Push(TaggedMessage(2 * round + 1));
    mailbox.Drain(&out);
  }
  ASSERT_EQ(out.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(out[i].a, i);
  // The ring never filled, so nothing spilled.
  EXPECT_EQ(mailbox.stats().spilled, 0u);
  EXPECT_EQ(mailbox.stats().max_occupancy, 2u);
}

TEST(SpscMailboxTest, ZeroCapacityClampsToOne) {
  SpscMailbox<ShardMessage> mailbox(0);
  EXPECT_EQ(mailbox.capacity(), 1u);
  mailbox.Push(TaggedMessage(7));
  std::vector<ShardMessage> out;
  mailbox.Drain(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].a, 7u);
}

TEST(SpscMailboxTest, CapacityExactFillDoesNotSpill) {
  SpscMailbox<ShardMessage> mailbox(4);
  for (std::uint64_t i = 0; i < 4; ++i) mailbox.Push(TaggedMessage(i));
  EXPECT_EQ(mailbox.stats().spilled, 0u);
  EXPECT_EQ(mailbox.stats().max_occupancy, 4u);

  // The very next push is the first spill.
  mailbox.Push(TaggedMessage(4));
  EXPECT_EQ(mailbox.stats().spilled, 1u);
  EXPECT_EQ(mailbox.stats().max_occupancy, 5u);

  std::vector<ShardMessage> out;
  mailbox.Drain(&out);
  ASSERT_EQ(out.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(out[i].a, i);
}

TEST(SpscMailboxTest, NonPowerOfTwoCapacityRoundsUp) {
  // The slot map `index % capacity` is only wrap-continuous for
  // power-of-two capacities, so the ring rounds up.
  EXPECT_EQ(SpscMailbox<ShardMessage>(3).capacity(), 4u);
  EXPECT_EQ(SpscMailbox<ShardMessage>(5).capacity(), 8u);
  EXPECT_EQ(SpscMailbox<ShardMessage>(1024).capacity(), 1024u);
}

TEST(SpscMailboxTest, SingleSlotCapacityPreservesOrderAcrossSpills) {
  SpscMailbox<ShardMessage> mailbox(1);
  EXPECT_EQ(mailbox.capacity(), 1u);
  std::vector<ShardMessage> out;
  for (std::uint64_t round = 0; round < 3; ++round) {
    mailbox.Push(TaggedMessage(3 * round));
    mailbox.Push(TaggedMessage(3 * round + 1));  // Spills.
    mailbox.Push(TaggedMessage(3 * round + 2));  // Spills.
    mailbox.Drain(&out);
  }
  ASSERT_EQ(out.size(), 9u);
  for (std::uint64_t i = 0; i < 9; ++i) EXPECT_EQ(out[i].a, i);
  EXPECT_EQ(mailbox.stats().pushed, 9u);
  EXPECT_EQ(mailbox.stats().spilled, 6u);
  EXPECT_EQ(mailbox.stats().max_occupancy, 3u);
}

TEST(SpscMailboxTest, IndexWraparoundPreservesOrderAndCounts) {
  // A real run would need 2^64 pushes to wrap the monotonically
  // increasing ring indices; seed them just below the wrap instead
  // (scaled stand-in for the "beyond 2^32 messages" lifetime test) and
  // stream enough messages through to cross it. The unsigned
  // `head - tail` arithmetic and the power-of-two slot map must both be
  // oblivious to the wrap.
  SpscMailbox<ShardMessage> mailbox(8);
  mailbox.SeedIndicesForTest(std::numeric_limits<std::size_t>::max() - 11);

  std::vector<ShardMessage> out;
  std::uint64_t next_tag = 0;
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 5; ++i) mailbox.Push(TaggedMessage(next_tag++));
    EXPECT_EQ(mailbox.SizeApprox(), 5u) << "round=" << round;
    mailbox.Drain(&out);
    EXPECT_EQ(mailbox.SizeApprox(), 0u) << "round=" << round;
  }
  ASSERT_EQ(out.size(), 40u);  // 12 before the wrap, 28 after.
  for (std::uint64_t i = 0; i < 40; ++i) EXPECT_EQ(out[i].a, i);
  EXPECT_EQ(mailbox.stats().pushed, 40u);
  EXPECT_EQ(mailbox.stats().spilled, 0u);
  EXPECT_EQ(mailbox.stats().max_occupancy, 5u);
}

TEST(SpscMailboxTest, WraparoundWithSpillsKeepsRingThenSpillOrder) {
  SpscMailbox<ShardMessage> mailbox(2);
  mailbox.SeedIndicesForTest(std::numeric_limits<std::size_t>::max() - 1);
  for (std::uint64_t i = 0; i < 6; ++i) mailbox.Push(TaggedMessage(i));
  EXPECT_EQ(mailbox.stats().spilled, 4u);
  std::vector<ShardMessage> out;
  mailbox.Drain(&out);
  ASSERT_EQ(out.size(), 6u);
  for (std::uint64_t i = 0; i < 6; ++i) EXPECT_EQ(out[i].a, i);
}

TEST(SimulatorWindowTest, RunEventsBeforeIsExclusiveOnTheBound) {
  Simulator simulator;
  std::vector<int> order;
  simulator.ScheduleAt(30, [&order]() { order.push_back(3); });
  simulator.ScheduleAt(10, [&order]() { order.push_back(1); });
  simulator.ScheduleAt(20, [&order]() { order.push_back(2); });

  // Events strictly before the bound run; the one at the bound waits.
  EXPECT_EQ(simulator.RunEventsBefore(30), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(simulator.NextPendingTick(), 30);

  EXPECT_EQ(simulator.RunEventsBefore(31), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.RunEventsBefore(1000), 0u);
}

TEST(SimulatorWindowTest, RunEventsBeforeRunsEventsSpawnedInWindow) {
  Simulator simulator;
  std::vector<Tick> seen;
  simulator.ScheduleAt(10, [&]() {
    seen.push_back(simulator.Now());
    // Still inside the window: must run in this same call.
    simulator.ScheduleAt(20, [&]() { seen.push_back(simulator.Now()); });
    // At the horizon: must NOT run in this call.
    simulator.ScheduleAt(50, [&]() { seen.push_back(simulator.Now()); });
  });
  EXPECT_EQ(simulator.RunEventsBefore(50), 2u);
  EXPECT_EQ(seen, (std::vector<Tick>{10, 20}));
  EXPECT_EQ(simulator.PendingEvents(), 1u);
}

TEST(SimulatorWindowTest, CalendarStatsCountTheWheelWork) {
  Simulator simulator;
  std::uint64_t ran = 0;
  // A span wider than the level-0 wheel (2^29 ps ~ 537 us) forces
  // level-1 cascades; the far-future event lands in the overflow list
  // (beyond the 2^39 ps level-1 span) and comes back via a refill.
  for (int i = 0; i < 200; ++i) {
    simulator.ScheduleAt(Tick{i} * 10 * kMicrosecond, [&ran]() { ++ran; });
  }
  simulator.ScheduleAt(2 * kSecond, [&ran]() { ++ran; });
  simulator.Run();

  EXPECT_EQ(ran, 201u);
  const Simulator::CalendarStats& stats = simulator.calendar_stats();
  EXPECT_GT(stats.bucket_loads, 0u);
  EXPECT_GT(stats.cascades, 0u);
  EXPECT_GT(stats.overflow_refills, 0u);
  EXPECT_GE(stats.max_bucket_events, 1u);
  EXPECT_GE(stats.max_cascade_events, 1u);
  EXPECT_GE(stats.max_overflow_events, 1u);
}

// --- ShardedEngine ------------------------------------------------------

TEST(ShardedEngineTest, SingleShardMatchesPlainRun) {
  std::vector<int> plain_order;
  Simulator plain;
  plain.ScheduleAt(30, [&plain_order]() { plain_order.push_back(3); });
  plain.ScheduleAt(10, [&plain_order]() { plain_order.push_back(1); });
  plain.ScheduleAt(20, [&plain_order]() { plain_order.push_back(2); });
  plain.RunUntil(100);

  std::vector<int> sharded_order;
  Simulator sharded;
  sharded.ScheduleAt(30, [&sharded_order]() { sharded_order.push_back(3); });
  sharded.ScheduleAt(10, [&sharded_order]() { sharded_order.push_back(1); });
  sharded.ScheduleAt(20, [&sharded_order]() { sharded_order.push_back(2); });
  ShardedEngine::Options options;
  ShardedEngine engine(options);
  engine.AddShard(&sharded, [](const ShardMessage&) {});
  engine.Run(100, /*pool=*/nullptr);

  EXPECT_EQ(sharded_order, plain_order);
  EXPECT_EQ(sharded.ExecutedEvents(), plain.ExecutedEvents());
  EXPECT_EQ(engine.ShardWindowEvents(0), 3u);
  EXPECT_GT(engine.stats().windows, 0u);
  EXPECT_EQ(engine.stats().delivered_messages, 0u);
}

// Shared scaffolding for the cross-shard tests: two shards bouncing a
// message back and forth, each hop one `lookahead` later, logging every
// executed hop as (shard, hop, time).
struct HopLog {
  int shard = 0;
  std::uint64_t hop = 0;
  Tick at = 0;
  bool operator==(const HopLog&) const = default;
};

struct PingPong {
  ShardedEngine* engine = nullptr;
  std::deque<Simulator>* sims = nullptr;
  std::vector<HopLog>* log = nullptr;
  Tick lookahead = 0;
  std::uint64_t max_hops = 0;
};

void ScheduleHop(PingPong* ctx, int shard, std::uint64_t hop, Tick at) {
  (*ctx->sims)[static_cast<std::size_t>(shard)].ScheduleAt(
      at, [ctx, shard, hop]() {
        Simulator& self = (*ctx->sims)[static_cast<std::size_t>(shard)];
        ctx->log->push_back(HopLog{shard, hop, self.Now()});
        if (hop < ctx->max_hops) {
          const int dst = shard ^ 1;
          ctx->engine->Send(shard, dst, self.Now() + ctx->lookahead,
                            /*kind=*/1, hop + 1, 0, 0);
        }
      });
}

// Builds the two-shard ping-pong and runs it; returns the hop log.
std::vector<HopLog> RunPingPong(ThreadPool* pool, std::uint64_t max_hops,
                                std::size_t mailbox_capacity,
                                std::vector<ShardMessage>* deliveries) {
  ShardedEngine::Options options;
  options.lookahead = 50;
  options.mailbox_capacity = mailbox_capacity;
  options.record_deliveries = deliveries != nullptr;
  ShardedEngine engine(options);

  std::deque<Simulator> sims(2);
  std::vector<HopLog> log;
  PingPong ctx{&engine, &sims, &log, options.lookahead, max_hops};
  for (int s = 0; s < 2; ++s) {
    engine.AddShard(&sims[static_cast<std::size_t>(s)],
                    [&ctx](const ShardMessage& message) {
                      ScheduleHop(&ctx, static_cast<int>(message.dst),
                                  message.a, message.deliver_at);
                    });
  }
  ScheduleHop(&ctx, /*shard=*/0, /*hop=*/0, /*at=*/10);
  engine.Run(10000, pool);
  if (deliveries != nullptr) *deliveries = engine.deliveries();
  return log;
}

TEST(ShardedEngineTest, CrossShardMessagesArriveOneLookaheadLater) {
  std::vector<ShardMessage> deliveries;
  const std::vector<HopLog> log =
      RunPingPong(/*pool=*/nullptr, /*max_hops=*/4,
                  /*mailbox_capacity=*/16, &deliveries);

  // 0 -> 1 -> 0 -> 1 -> 0, each hop 50 ticks after the previous.
  ASSERT_EQ(log.size(), 5u);
  for (std::uint64_t hop = 0; hop < 5; ++hop) {
    EXPECT_EQ(log[hop].shard, static_cast<int>(hop % 2));
    EXPECT_EQ(log[hop].hop, hop);
    EXPECT_EQ(log[hop].at, static_cast<Tick>(10 + 50 * hop));
  }

  ASSERT_EQ(deliveries.size(), 4u);
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    EXPECT_EQ(deliveries[i].a, i + 1);  // Hops in delivery order.
    EXPECT_EQ(deliveries[i].src, i % 2);
    EXPECT_EQ(deliveries[i].dst, (i + 1) % 2);
  }
}

TEST(ShardedEngineTest, MailboxSpillsAreCountedNotDropped) {
  ShardedEngine::Options options;
  options.lookahead = 50;
  options.mailbox_capacity = 1;
  options.record_deliveries = true;
  ShardedEngine engine(options);

  std::deque<Simulator> sims(2);
  std::vector<std::uint64_t> received;
  engine.AddShard(&sims[0], [](const ShardMessage&) {});
  engine.AddShard(&sims[1], [&received](const ShardMessage& message) {
    received.push_back(message.a);
  });
  // One event fires three sends in a single window: two must spill.
  sims[0].ScheduleAt(10, [&engine, &sims]() {
    const Tick at = sims[0].Now() + 50;
    engine.Send(0, 1, at, 1, 100, 0, 0);
    engine.Send(0, 1, at, 1, 101, 0, 0);
    engine.Send(0, 1, at, 1, 102, 0, 0);
  });
  engine.Run(1000, /*pool=*/nullptr);

  EXPECT_EQ(received, (std::vector<std::uint64_t>{100, 101, 102}));
  EXPECT_EQ(engine.MailboxStats(0).pushed, 3u);
  EXPECT_EQ(engine.MailboxStats(0).spilled, 2u);
  EXPECT_EQ(engine.stats().mailbox_spills, 2u);
  EXPECT_EQ(engine.stats().max_mailbox_occupancy, 3u);  // 1 ring + 2 spill.
  EXPECT_EQ(engine.stats().delivered_messages, 3u);
  // Same-tick messages from one source are ordered by send sequence.
  ASSERT_EQ(engine.deliveries().size(), 3u);
  EXPECT_LT(engine.deliveries()[0].send_seq, engine.deliveries()[1].send_seq);
  EXPECT_LT(engine.deliveries()[1].send_seq, engine.deliveries()[2].send_seq);
}

// The tentpole invariant at kernel granularity: a pool run produces the
// same hop log, delivery log, and per-shard event counts as serial.
// (Named *Determinism* so the TSan CI leg picks it up.)
TEST(ShardedEngineDeterminismTest, PoolRunIsBitIdenticalToSerial) {
  std::vector<ShardMessage> serial_deliveries;
  const std::vector<HopLog> serial = RunPingPong(
      /*pool=*/nullptr, /*max_hops=*/64, /*mailbox_capacity=*/4,
      &serial_deliveries);

  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    std::vector<ShardMessage> pooled_deliveries;
    const std::vector<HopLog> pooled = RunPingPong(
        &pool, /*max_hops=*/64, /*mailbox_capacity=*/4, &pooled_deliveries);
    EXPECT_EQ(pooled, serial) << "threads=" << threads;
    ASSERT_EQ(pooled_deliveries.size(), serial_deliveries.size());
    for (std::size_t i = 0; i < serial_deliveries.size(); ++i) {
      EXPECT_EQ(pooled_deliveries[i].deliver_at,
                serial_deliveries[i].deliver_at);
      EXPECT_EQ(pooled_deliveries[i].send_seq, serial_deliveries[i].send_seq);
      EXPECT_EQ(pooled_deliveries[i].src, serial_deliveries[i].src);
      EXPECT_EQ(pooled_deliveries[i].dst, serial_deliveries[i].dst);
      EXPECT_EQ(pooled_deliveries[i].a, serial_deliveries[i].a);
    }
  }
}

TEST(ShardedEngineTest, FaultNamesRoundTrip) {
  for (EngineFault fault : {EngineFault::kNone, EngineFault::kSkipBarrierSort,
                            EngineFault::kDeliverEarly}) {
    EngineFault parsed = EngineFault::kNone;
    ASSERT_TRUE(ParseEngineFault(EngineFaultName(fault), &parsed));
    EXPECT_EQ(parsed, fault);
  }
  EngineFault parsed = EngineFault::kNone;
  EXPECT_FALSE(ParseEngineFault("no-such-fault", &parsed));
}

// Counts every hook invocation and records the drain order it was shown.
class CountingHooks : public BarrierHooks {
 public:
  void OnWindowStart(std::uint64_t window, Tick horizon) override {
    (void)window;
    (void)horizon;
    ++window_starts;
  }
  void OnBarrier(std::uint64_t window, std::vector<int>* drain_order) override {
    (void)window;
    ++barriers;
    last_drain_order = *drain_order;
    if (reverse_drain) {
      std::reverse(drain_order->begin(), drain_order->end());
    }
  }
  void OnDrained(const ShardMessage&) override { ++drained; }
  void OnDeliver(const ShardMessage&) override { ++delivered; }

  bool reverse_drain = false;
  std::uint64_t window_starts = 0;
  std::uint64_t barriers = 0;
  std::uint64_t drained = 0;
  std::uint64_t delivered = 0;
  std::vector<int> last_drain_order;
};

TEST(ShardedEngineTest, BarrierHooksObserveEveryWindowAndMessage) {
  ShardedEngine::Options options;
  options.lookahead = 50;
  options.record_deliveries = true;
  CountingHooks hooks;
  options.hooks = &hooks;
  ShardedEngine engine(options);

  std::deque<Simulator> sims(2);
  std::vector<HopLog> log;
  PingPong ctx{&engine, &sims, &log, options.lookahead, /*max_hops=*/4};
  for (int s = 0; s < 2; ++s) {
    engine.AddShard(&sims[static_cast<std::size_t>(s)],
                    [&ctx](const ShardMessage& message) {
                      ScheduleHop(&ctx, static_cast<int>(message.dst),
                                  message.a, message.deliver_at);
                    });
  }
  ScheduleHop(&ctx, /*shard=*/0, /*hop=*/0, /*at=*/10);
  engine.Run(10000, /*pool=*/nullptr);

  EXPECT_EQ(hooks.window_starts, engine.stats().windows);
  EXPECT_EQ(hooks.barriers, engine.stats().windows);
  EXPECT_EQ(hooks.drained, engine.stats().delivered_messages);
  EXPECT_EQ(hooks.delivered, engine.stats().delivered_messages);
  EXPECT_EQ(hooks.last_drain_order.size(), 2u);
}

// Two shards, each firing two same-tick sends to the other: every
// barrier delivers messages that tie on deliver_at, so delivery order is
// decided purely by the (deliver_at, src, send_seq) sort.
std::vector<std::uint64_t> RunSameTickBurst(EngineFault fault,
                                            bool reverse_drain,
                                            std::vector<std::uint64_t>*
                                                digests) {
  ShardedEngine::Options options;
  options.lookahead = 100;
  options.record_deliveries = true;
  options.record_window_digests = true;
  options.fault = fault;
  CountingHooks hooks;
  hooks.reverse_drain = reverse_drain;
  options.hooks = &hooks;
  ShardedEngine engine(options);

  std::deque<Simulator> sims(2);
  for (int s = 0; s < 2; ++s) {
    Simulator* sim = &sims[static_cast<std::size_t>(s)];
    engine.AddShard(sim, [sim](const ShardMessage& message) {
      const Tick at = std::max(message.deliver_at, sim->Now());
      sim->ScheduleAt(at, []() {});
    });
    sim->ScheduleAt(10, [&engine, sim, s]() {
      const Tick at = sim->Now() + 100;
      engine.Send(s, s ^ 1, at, 1, /*a=*/static_cast<std::uint64_t>(s) * 10,
                  0, 0);
      engine.Send(s, s ^ 1, at, 1, /*a=*/static_cast<std::uint64_t>(s) * 10 + 1,
                  0, 0);
    });
  }
  engine.Run(10000, /*pool=*/nullptr);

  if (digests != nullptr) *digests = engine.window_digests();
  std::vector<std::uint64_t> tags;
  for (const ShardMessage& message : engine.deliveries()) {
    tags.push_back(message.a);
  }
  return tags;
}

TEST(ShardedEngineTest, BarrierSortMakesDrainOrderIrrelevant) {
  std::vector<std::uint64_t> canonical_digests;
  const std::vector<std::uint64_t> canonical =
      RunSameTickBurst(EngineFault::kNone, /*reverse_drain=*/false,
                       &canonical_digests);
  // Shard 0's sends sort before shard 1's on the src tie-break.
  EXPECT_EQ(canonical, (std::vector<std::uint64_t>{0, 1, 10, 11}));

  std::vector<std::uint64_t> reversed_digests;
  const std::vector<std::uint64_t> reversed =
      RunSameTickBurst(EngineFault::kNone, /*reverse_drain=*/true,
                       &reversed_digests);
  EXPECT_EQ(reversed, canonical);
  EXPECT_EQ(reversed_digests, canonical_digests);
  EXPECT_FALSE(canonical_digests.empty());
}

TEST(ShardedEngineTest, SkipBarrierSortFaultDivergesUnderDrainOrder) {
  std::vector<std::uint64_t> canonical_digests;
  const std::vector<std::uint64_t> canonical =
      RunSameTickBurst(EngineFault::kNone, /*reverse_drain=*/false,
                       &canonical_digests);

  // On the identity drain order the raw order happens to equal the
  // sorted order, so the fault is latent...
  std::vector<std::uint64_t> identity_digests;
  EXPECT_EQ(RunSameTickBurst(EngineFault::kSkipBarrierSort,
                             /*reverse_drain=*/false, &identity_digests),
            canonical);
  EXPECT_EQ(identity_digests, canonical_digests);

  // ...and a perturbed drain order exposes it: delivery order now leaks
  // the schedule, and the window digests pinpoint the first bad window.
  std::vector<std::uint64_t> faulty_digests;
  const std::vector<std::uint64_t> faulty =
      RunSameTickBurst(EngineFault::kSkipBarrierSort, /*reverse_drain=*/true,
                       &faulty_digests);
  EXPECT_EQ(faulty, (std::vector<std::uint64_t>{10, 11, 0, 1}));
  ASSERT_EQ(faulty_digests.size(), canonical_digests.size());
  std::size_t first_divergent = faulty_digests.size();
  for (std::size_t i = 0; i < faulty_digests.size(); ++i) {
    if (faulty_digests[i] != canonical_digests[i]) {
      first_divergent = i;
      break;
    }
  }
  ASSERT_LT(first_divergent, faulty_digests.size());
  // The burst is delivered at the barrier closing window 0.
  EXPECT_EQ(first_divergent, 0u);
}

TEST(ShardedEngineTest, WindowDigestsAreBitIdenticalAcrossPoolSizes) {
  auto run_digests = [](ThreadPool* pool) {
    ShardedEngine::Options options;
    options.lookahead = 50;
    options.record_window_digests = true;
    ShardedEngine engine(options);
    std::deque<Simulator> sims(2);
    std::vector<HopLog> log;
    PingPong ctx{&engine, &sims, &log, options.lookahead, /*max_hops=*/32};
    for (int s = 0; s < 2; ++s) {
      engine.AddShard(&sims[static_cast<std::size_t>(s)],
                      [&ctx](const ShardMessage& message) {
                        ScheduleHop(&ctx, static_cast<int>(message.dst),
                                    message.a, message.deliver_at);
                      });
    }
    ScheduleHop(&ctx, /*shard=*/0, /*hop=*/0, /*at=*/10);
    engine.Run(10000, pool);
    return engine.window_digests();
  };

  const std::vector<std::uint64_t> serial = run_digests(nullptr);
  EXPECT_EQ(serial.size(), 33u);  // One digest per window.
  ThreadPool pool(4);
  EXPECT_EQ(run_digests(&pool), serial);
}

// The dynamic layer of the determinism proof kit. Nonzero seeds perturb
// worker backoff, the window submit order, and the pre-sort drain order
// — and every result must stay bit-identical to the unperturbed run.
TEST(ShardedEngineFuzzTest, PerturbationSeedsAreBitIdentical) {
  auto run = [](std::uint64_t seed, int threads) {
    ShardedEngine::Options options;
    options.lookahead = 50;
    options.record_window_digests = true;
    options.sched_fuzz_seed = seed;
    ShardedEngine engine(options);
    std::deque<Simulator> sims(3);
    std::vector<HopLog> log;
    PingPong ctx{&engine, &sims, &log, options.lookahead, /*max_hops=*/24};
    for (int s = 0; s < 3; ++s) {
      engine.AddShard(&sims[static_cast<std::size_t>(s)],
                      [&ctx](const ShardMessage& message) {
                        ScheduleHop(&ctx, static_cast<int>(message.dst),
                                    message.a, message.deliver_at);
                      });
    }
    ScheduleHop(&ctx, /*shard=*/0, /*hop=*/0, /*at=*/10);
    // Local-only work on shard 2 so every shard executes events and the
    // permuted submit order exercises three genuinely busy workers.
    for (int i = 0; i < 50; ++i) {
      sims[2].ScheduleAt(10 + i * 37, []() {});
    }
    ThreadPool pool(threads);
    engine.Run(10000, threads > 1 ? &pool : nullptr);
    return engine.window_digests();
  };

  const std::vector<std::uint64_t> baseline = run(/*seed=*/0, /*threads=*/1);
  ASSERT_FALSE(baseline.empty());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_EQ(run(seed, /*threads=*/3), baseline) << "seed " << seed;
  }
}

// Three shards that each send to the next one at the same instants, so
// every barrier drains messages from several sources and only the
// barrier sort makes their delivery order independent of drain order.
std::vector<std::uint64_t> RingWindowDigests(std::uint64_t seed,
                                             EngineFault fault) {
  ShardedEngine::Options options;
  options.lookahead = 50;
  options.record_window_digests = true;
  options.sched_fuzz_seed = seed;
  options.fault = fault;
  ShardedEngine engine(options);
  std::deque<Simulator> sims(3);
  for (int s = 0; s < 3; ++s) {
    engine.AddShard(&sims[static_cast<std::size_t>(s)],
                    [](const ShardMessage&) {});
  }
  for (int s = 0; s < 3; ++s) {
    Simulator* sim = &sims[static_cast<std::size_t>(s)];
    for (int i = 0; i < 20; ++i) {
      sim->ScheduleAt(10 + i * 100, [&engine, sim, s]() {
        engine.Send(s, (s + 1) % 3, sim->Now() + 50, /*kind=*/1, 0, 0, 0);
      });
    }
  }
  engine.Run(10000, /*pool=*/nullptr);
  return engine.window_digests();
}

// A seed must really perturb the schedule: with the barrier sort skipped
// (a seeded engine fault), the permuted drain order reaches the delivery
// order, so some seed's window digests must leave seed 0's. Without the
// fault the sort hides the perturbation again.
TEST(ShardedEngineFuzzTest, SeedPerturbsScheduleWhenBarrierSortIsSkipped) {
  const std::vector<std::uint64_t> faulted =
      RingWindowDigests(/*seed=*/0, EngineFault::kSkipBarrierSort);
  const std::vector<std::uint64_t> sorted =
      RingWindowDigests(/*seed=*/0, EngineFault::kNone);
  ASSERT_FALSE(faulted.empty());
  bool diverged = false;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    diverged |=
        RingWindowDigests(seed, EngineFault::kSkipBarrierSort) != faulted;
    EXPECT_EQ(RingWindowDigests(seed, EngineFault::kNone), sorted)
        << "seed " << seed;
  }
  EXPECT_TRUE(diverged);
}

TEST(ShardedEngineDeathTest, SendBelowTheHorizonIsRefused) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ShardedEngine::Options options;
        options.lookahead = 50;
        ShardedEngine engine(options);
        std::deque<Simulator> sims(2);
        engine.AddShard(&sims[0], [](const ShardMessage&) {});
        engine.AddShard(&sims[1], [](const ShardMessage&) {});
        sims[0].ScheduleAt(10, [&engine, &sims]() {
          // deliver_at == now < horizon: the conservative-lookahead
          // contract is violated and the engine must refuse.
          engine.Send(0, 1, sims[0].Now(), 1, 0, 0, 0);
        });
        sims[1].ScheduleAt(10, []() {});
        engine.Run(1000, /*pool=*/nullptr);
      },
      "check failed");
}

}  // namespace
}  // namespace dmasim
