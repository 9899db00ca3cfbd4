// The tentpole invariant, end to end: a fleet run's results are a pure
// function of its options — bit-identical for every `sim_threads` value
// — across the paper's OLTP and DSS storage workloads and a monitored
// configuration. The golden-replay test additionally pins the exact
// cross-shard delivery log, so a synchronization bug that merely
// reorders shard-boundary events (without changing aggregate stats)
// still fails loudly. The pinned fleets anchor the fingerprint's bytes,
// and the remote-fraction-0 oracle checks every domain against RunTrace.
// (Suite names carry *Determinism* so the TSan CI leg exercises the
// threaded paths under the race detector.)
#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mon/scheme_parser.h"
#include "server/fleet_driver.h"
#include "server/simulation_driver.h"
#include "stats/energy.h"
#include "trace/workloads.h"

namespace dmasim {
namespace {

// Short per-domain horizon: with four domains this still crosses
// hundreds of engine windows, which is what the invariant stresses.
constexpr Tick kFleetDuration = 4 * kMillisecond;

FleetOptions SmallFleet(WorkloadSpec spec) {
  FleetOptions options;
  options.workload = spec;
  options.workload.duration = kFleetDuration;
  options.domains = 4;
  options.remote_fraction = 0.25;  // Plenty of cross-shard traffic.
  options.streams_per_domain = 256;
  options.remote_latency = 20 * kMicrosecond;
  return options;
}

FleetOptions MonitoredFleet() {
  FleetOptions options = SmallFleet(OltpStorageSpec());
  options.base.memory.dma.ta.enabled = true;
  options.base.memory.dma.ta.mu = 2.0;
  options.base.memory.dma.pl.enabled = true;
  options.base.memory.monitor.enabled = true;
  const SchemeParseResult schemes = ParseSchemeString(
      "1 1 8 * 0 migrate-hot\n"
      "* * 0 0 8 demote-chip:2\n");
  EXPECT_TRUE(schemes.ok()) << schemes.error;
  options.base.memory.monitor.rules = schemes.rules;
  return options;
}

std::uint64_t FingerprintAt(FleetOptions options, int threads) {
  options.sim_threads = threads;
  const FleetResults results = RunFleet(options);
  // The run has to have actually computed something worth hashing.
  EXPECT_GT(results.executed_events, 0u);
  EXPECT_GT(results.remote_completed, 0u);
  EXPECT_GT(results.engine.windows, 0u);
  return results.Fingerprint();
}

TEST(FleetDeterminismTest, OltpFingerprintIsThreadCountInvariant) {
  const FleetOptions options = SmallFleet(OltpStorageSpec());
  const std::uint64_t serial = FingerprintAt(options, 1);
  EXPECT_EQ(FingerprintAt(options, 2), serial);
  EXPECT_EQ(FingerprintAt(options, 8), serial);
}

TEST(FleetDeterminismTest, DssFingerprintIsThreadCountInvariant) {
  const FleetOptions options = SmallFleet(DssStorageSpec());
  const std::uint64_t serial = FingerprintAt(options, 1);
  EXPECT_EQ(FingerprintAt(options, 2), serial);
  EXPECT_EQ(FingerprintAt(options, 8), serial);
}

TEST(FleetDeterminismTest, MonitoredFingerprintIsThreadCountInvariant) {
  const FleetOptions options = MonitoredFleet();
  const std::uint64_t serial = FingerprintAt(options, 1);
  EXPECT_EQ(FingerprintAt(options, 2), serial);
  EXPECT_EQ(FingerprintAt(options, 8), serial);
}

TEST(FleetDeterminismTest, RepeatedRunsShareOneFingerprint) {
  const FleetOptions options = SmallFleet(OltpStorageSpec());
  EXPECT_EQ(FingerprintAt(options, 1), FingerprintAt(options, 1));
  EXPECT_EQ(FingerprintAt(options, 2), FingerprintAt(options, 2));
}

TEST(FleetDeterminismTest, DistinctSeedsProduceDistinctFingerprints) {
  // The fingerprint must actually see the simulation: a digest that
  // ignored its inputs would pass every equality test above.
  FleetOptions options = SmallFleet(OltpStorageSpec());
  const std::uint64_t a = FingerprintAt(options, 1);
  options.workload.seed += 1;
  EXPECT_NE(FingerprintAt(options, 1), a);
}

// Golden replay: the shard-boundary traffic itself — every delivered
// message, in delivery order — is identical across thread counts.
TEST(FleetDeterminismTest, DeliveryLogIsThreadCountInvariant) {
  FleetOptions options = SmallFleet(OltpStorageSpec());
  options.record_deliveries = true;

  options.sim_threads = 1;
  const FleetResults serial = RunFleet(options);
  ASSERT_GT(serial.deliveries.size(), 0u);
  // Every remote read crosses the interconnect as one message; its reply
  // is bookkeeping.
  EXPECT_EQ(serial.deliveries.size(), serial.remote_sent);

  for (int threads : {2, 8}) {
    options.sim_threads = threads;
    const FleetResults threaded = RunFleet(options);
    ASSERT_EQ(threaded.deliveries.size(), serial.deliveries.size())
        << "threads=" << threads;
    for (std::size_t i = 0; i < serial.deliveries.size(); ++i) {
      const ShardMessage& want = serial.deliveries[i];
      const ShardMessage& got = threaded.deliveries[i];
      ASSERT_TRUE(got.deliver_at == want.deliver_at &&
                  got.send_seq == want.send_seq && got.a == want.a &&
                  got.b == want.b && got.c == want.c &&
                  got.src == want.src && got.dst == want.dst &&
                  got.kind == want.kind)
          << "threads=" << threads << " delivery #" << i;
    }
    // Every send is delivered exactly once: per source, the sequence
    // numbers in the log are a gapless permutation of 0..n-1. (The log
    // is NOT deliver_at- or seq-sorted globally: the sort key is
    // per-barrier.)
    std::vector<std::vector<std::uint64_t>> seqs(
        static_cast<std::size_t>(options.domains));
    for (const ShardMessage& message : threaded.deliveries) {
      seqs[message.src].push_back(message.send_seq);
    }
    for (std::vector<std::uint64_t>& from_src : seqs) {
      std::sort(from_src.begin(), from_src.end());
      for (std::size_t s = 0; s < from_src.size(); ++s) {
        ASSERT_EQ(from_src[s], s);
      }
    }
  }
}

// Byte-level anchors for the fleet, in the style of the single-domain
// DeterminismTest.Pinned* suite. Each is checked at 1, 2 and 4 engine
// threads, so a change that moves one thread count but not another fails
// here as well as in the invariance tests above.
FleetOptions PinnedFleet(Tick duration) {
  FleetOptions options;
  options.workload = OltpStorageSpec();
  options.workload.duration = duration;
  options.domains = 8;
  return options;
}

TEST(FleetDeterminismTest, PinnedFleetFingerprintIsStable) {
  // The fleet fingerprint ROADMAP.md cites: 8 OLTP-St domains, 5 ms,
  // 2,048 streams per domain, every other option at its default. Five
  // milliseconds is under the 20 ms layout interval, so this run
  // covers the feeder, the remote-read path and the engine barriers.
  FleetOptions options = PinnedFleet(5 * kMillisecond);
  options.streams_per_domain = 2048;
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    options.sim_threads = threads;
    const FleetResults results = RunFleet(options);
    EXPECT_GT(results.remote_completed, 0u);
#if defined(__GNUC__) && !defined(__clang__)
    // Compiler-gated for the same reason as the pinned sweep checksum.
    EXPECT_EQ(results.Fingerprint(), 6858090514081190971ULL);
#endif
  }
}

TEST(FleetDeterminismTest, PinnedFleetLayoutRoundsAreStable) {
  // The fleet-oltp-st benchmark's shape: 8 OLTP-St domains for 200 ms
  // (ten 20 ms layout rounds each) under DMA-TA-PL at mu 2.0, with the
  // default 1,024 streams, 5% remote fraction and 20 us hop.
  FleetOptions options = PinnedFleet(200 * kMillisecond);
  options.base.memory.dma.ta.enabled = true;
  options.base.memory.dma.ta.mu = 2.0;
  options.base.memory.dma.pl.enabled = true;
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    options.sim_threads = threads;
    const FleetResults results = RunFleet(options);
    std::uint64_t migrations = 0;
    for (const FleetDomainResults& domain : results.domains) {
      migrations += domain.results.controller.migrations;
    }
    EXPECT_GT(migrations, 0u);
#if defined(__GNUC__) && !defined(__clang__)
    // Compiler-gated for the same reason as the pinned sweep checksum.
    EXPECT_EQ(results.Fingerprint(), 10473273614300639739ULL);
    EXPECT_EQ(migrations, 7362u);
    EXPECT_EQ(results.engine.windows, 2629u);
#endif
  }
}

// The shard audit on a real fleet: DMA-TA-PL for 60 ms (three layout
// rounds), audit level 1 in collect mode. Every barrier must pass the
// audit's protocol checks, every domain its own invariants, and the
// audit must not change the result.
TEST(FleetDeterminismTest, AuditedLayoutFleetIsCleanAndUnchanged) {
  FleetOptions options = SmallFleet(OltpStorageSpec());
  options.workload.duration = 60 * kMillisecond;
  options.remote_fraction = 0.05;
  options.base.memory.dma.ta.enabled = true;
  options.base.memory.dma.ta.mu = 2.0;
  options.base.memory.dma.pl.enabled = true;
  const std::uint64_t unaudited = FingerprintAt(options, 1);
  options.base.audit_level = 1;
  options.base.audit_abort = false;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    options.sim_threads = threads;
    const FleetResults results = RunFleet(options);
    EXPECT_GT(results.shard_audit_checks, 0u);
    EXPECT_EQ(results.shard_audit_failures, 0u);
    std::uint64_t migrations = 0;
    for (const FleetDomainResults& domain : results.domains) {
      EXPECT_GT(domain.results.audit_checks, 0u);
      EXPECT_EQ(domain.results.audit_failures, 0u);
      migrations += domain.results.controller.migrations;
    }
    EXPECT_GT(migrations, 0u);
    EXPECT_GT(results.remote_completed, 0u);
    EXPECT_EQ(results.Fingerprint(), unaudited);
  }
}

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

// The remote-fraction-0 differential oracle. With no remote-homed
// stream a fleet is N independent systems, so each domain must equal
// RunTrace on that domain's own trace and options, bit for bit. This
// checks the sharded engine against the single-system path, not against
// the engine's own history. Returns the migrations the domains made.
std::uint64_t ExpectDomainsMatchRunTrace(FleetOptions options) {
  options.domains = 4;
  options.sim_threads = 2;
  options.remote_fraction = 0.0;
  const FleetResults fleet = RunFleet(options);
  EXPECT_EQ(fleet.domains.size(), 4u);
  EXPECT_EQ(fleet.remote_sent, 0u);
  std::uint64_t migrations = 0;
  for (int i = 0; i < options.domains; ++i) {
    SCOPED_TRACE("domain " + std::to_string(i));
    const FleetDomainSpec spec = MakeFleetDomainSpec(options, i);
    const SimulationResults solo =
        RunTrace(GenerateWorkload(spec.workload), spec.workload.miss_ratio,
                 spec.workload.duration, spec.options, spec.workload.name);
    const SimulationResults& domain =
        fleet.domains.at(static_cast<std::size_t>(i)).results;
    EXPECT_GT(solo.executed_events, 0u);
    for (int b = 0; b < kEnergyBucketCount; ++b) {
      const auto bucket = static_cast<EnergyBucket>(b);
      EXPECT_EQ(Bits(domain.energy.Of(bucket).joules()),
                Bits(solo.energy.Of(bucket).joules()))
          << "energy bucket " << EnergyBucketName(bucket);
    }
    EXPECT_EQ(domain.executed_events, solo.executed_events);
    EXPECT_EQ(domain.stepped_events, solo.stepped_events);
    EXPECT_EQ(domain.client_response.Count(), solo.client_response.Count());
    EXPECT_EQ(Bits(domain.client_response.Sum()),
              Bits(solo.client_response.Sum()));
    EXPECT_EQ(Bits(domain.transfer_latency.Sum()),
              Bits(solo.transfer_latency.Sum()));
    EXPECT_EQ(domain.controller.migrations, solo.controller.migrations);
    EXPECT_EQ(domain.duration, solo.duration);
    migrations += solo.controller.migrations;
  }
  return migrations;
}

TEST(FleetDeterminismTest, RemoteFractionZeroDatabaseDomainsMatchRunTrace) {
  // OLTP-Db baseline: the CPU-access path, 233 accesses per transfer.
  FleetOptions options;
  options.workload = OltpDatabaseSpec();
  options.workload.duration = 10 * kMillisecond;
  ExpectDomainsMatchRunTrace(options);
}

TEST(FleetDeterminismTest, RemoteFractionZeroLayoutDomainsMatchRunTrace) {
  // OLTP-St under DMA-TA-PL at mu 2.0: gating and three layout rounds.
  FleetOptions options;
  options.workload = OltpStorageSpec();
  options.workload.duration = 60 * kMillisecond;
  options.base.memory.dma.ta.enabled = true;
  options.base.memory.dma.ta.mu = 2.0;
  options.base.memory.dma.pl.enabled = true;
  EXPECT_GT(ExpectDomainsMatchRunTrace(options), 0u);
}

// "1 = serial" is the smallest team: a count below it is a caller bug,
// not a request for every core.
TEST(FleetDeterminismDeathTest, SimThreadsBelowOneIsRefused) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FleetOptions options = SmallFleet(OltpStorageSpec());
  for (int threads : {0, -1}) {
    options.sim_threads = threads;
    EXPECT_DEATH(RunFleet(options), "precondition violated")
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace dmasim
