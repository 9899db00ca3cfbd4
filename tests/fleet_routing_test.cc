// RouteFleetTraces on hand-built traces: what leaves a sender's trace,
// where and when it lands in its home's, and the documented same-tick
// rule. With remote_fraction 1 every client read is remote-homed, so a
// two-domain fleet sends each of domain 1's reads to domain 0; the
// three-domain case picks a workload seed whose homing sends both
// senders' reads to domain 0. Homes' own records are writes, which are
// never routed.
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "server/fleet_driver.h"
#include "trace/trace.h"

namespace dmasim {
namespace {

constexpr Tick kHop = 20 * kMicrosecond;
constexpr Tick kTick = 100 * kMicrosecond;

FleetOptions AllRemote(int domains) {
  FleetOptions options;
  options.domains = domains;
  options.remote_fraction = 1.0;
  options.remote_latency = kHop;
  return options;
}

TraceRecord Read(Tick time, std::uint64_t page) {
  return TraceRecord{time, page, 4096, TraceEventKind::kClientRead};
}

TraceRecord Write(Tick time, std::uint64_t page) {
  return TraceRecord{time, page, 4096, TraceEventKind::kClientWrite};
}

TEST(FleetRoutingTest, ReadsMoveToTheirHomeOneHopLater) {
  const std::vector<RoutedTrace> routed = RouteFleetTraces(
      AllRemote(2), {{Write(5, 100)}, {Read(10, 1), Write(20, 200)}});
  ASSERT_EQ(routed.size(), 2u);
  // The sender keeps everything but the read it sent.
  EXPECT_EQ(routed[1].remote_sent, 1u);
  EXPECT_TRUE(routed[1].routed_in.empty());
  EXPECT_TRUE(routed[1].trace == Trace{Write(20, 200)});
  // The home gets the read at its arrival tick, tagged with its sender.
  EXPECT_EQ(routed[0].remote_sent, 0u);
  EXPECT_TRUE(routed[0].trace == (Trace{Write(5, 100), Read(10 + kHop, 1)}));
  ASSERT_EQ(routed[0].routed_in.size(), 1u);
  EXPECT_EQ(routed[0].routed_in[0].position, 1u);
  EXPECT_EQ(routed[0].routed_in[0].requester, 1);
}

// Same-tick rule, first tie: a read that lands on the tick of one of its
// home's own records goes after that record.
TEST(FleetRoutingTest, HomeRecordPrecedesReadArrivingOnItsTick) {
  const std::vector<RoutedTrace> routed = RouteFleetTraces(
      AllRemote(2),
      {{Write(kTick, 100), Write(kTick + 1, 101)}, {Read(kTick - kHop, 1)}});
  EXPECT_TRUE(routed[0].trace == (Trace{Write(kTick, 100), Read(kTick, 1),
                                        Write(kTick + 1, 101)}));
  ASSERT_EQ(routed[0].routed_in.size(), 1u);
  EXPECT_EQ(routed[0].routed_in[0].position, 1u);
}

// Same-tick rule, second tie: reads from two senders that arrive on one
// tick follow in sender order, whatever order their homes were found in.
TEST(FleetRoutingTest, SameTickArrivalsFollowSenderOrder) {
  FleetOptions options = AllRemote(3);
  const std::vector<Trace> traces{
      {}, {Read(kTick - kHop, 1)}, {Read(kTick - kHop, 2)}};
  // The seed salts each read's home; take the first seed that homes both
  // reads on domain 0.
  std::vector<RoutedTrace> routed;
  for (options.workload.seed = 1; options.workload.seed < 256;
       ++options.workload.seed) {
    routed = RouteFleetTraces(options, traces);
    if (routed[0].routed_in.size() == 2) break;
  }
  ASSERT_EQ(routed[0].routed_in.size(), 2u) << "no seed homes both on 0";
  EXPECT_TRUE(routed[0].trace == (Trace{Read(kTick, 1), Read(kTick, 2)}));
  EXPECT_EQ(routed[0].routed_in[0].requester, 1);
  EXPECT_EQ(routed[0].routed_in[1].requester, 2);
}

// Same-tick rule, third tie: one sender's reads that arrive on one tick
// keep the sender's send order.
TEST(FleetRoutingTest, OneSendersSameTickReadsKeepSendOrder) {
  const std::vector<RoutedTrace> routed = RouteFleetTraces(
      AllRemote(2),
      {{}, {Read(kTick - kHop, 7), Read(kTick - kHop, 3), Read(kTick, 5)}});
  EXPECT_EQ(routed[1].remote_sent, 3u);
  EXPECT_TRUE(routed[0].trace == (Trace{Read(kTick, 7), Read(kTick, 3),
                                        Read(kTick + kHop, 5)}));
}

}  // namespace
}  // namespace dmasim
