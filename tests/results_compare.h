// Field-by-field equality of two SimulationResults, doubles to the bit,
// for tests that run one configuration two ways (chunk-run coalescing on
// and off, a fleet domain and its solo run) and require the same outcome.
// Two fields are left out: stepped_events and the kernel's calendar
// counters. Both count the event queue's own work (pops, bucket loads,
// occupancy peaks), which is what coalescing changes.
#ifndef DMASIM_TESTS_RESULTS_COMPARE_H_
#define DMASIM_TESTS_RESULTS_COMPARE_H_

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "server/simulation_driver.h"

namespace dmasim {

inline std::uint64_t ResultBits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

inline void ExpectSameRunningMean(const RunningMean& a, const RunningMean& b,
                                  const char* name) {
  EXPECT_EQ(a.Count(), b.Count()) << name;
  EXPECT_EQ(ResultBits(a.Sum()), ResultBits(b.Sum())) << name;
  EXPECT_EQ(ResultBits(a.Min()), ResultBits(b.Min())) << name;
  EXPECT_EQ(ResultBits(a.Max()), ResultBits(b.Max())) << name;
}

inline void ExpectSameOutcome(const SimulationResults& a,
                              const SimulationResults& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.duration, b.duration);
  for (int i = 0; i < kEnergyBucketCount; ++i) {
    const auto bucket = static_cast<EnergyBucket>(i);
    EXPECT_EQ(ResultBits(a.energy.Of(bucket).joules()),
              ResultBits(b.energy.Of(bucket).joules()))
        << "energy bucket " << EnergyBucketName(bucket);
  }
  EXPECT_EQ(ResultBits(a.utilization_factor), ResultBits(b.utilization_factor));
  ExpectSameRunningMean(a.client_response, b.client_response,
                        "client_response");
  ExpectSameRunningMean(a.chunk_service, b.chunk_service, "chunk_service");
  ExpectSameRunningMean(a.transfer_latency, b.transfer_latency,
                        "transfer_latency");

  EXPECT_EQ(a.controller.transfers_started, b.controller.transfers_started);
  EXPECT_EQ(a.controller.transfers_completed,
            b.controller.transfers_completed);
  EXPECT_EQ(a.controller.cpu_accesses, b.controller.cpu_accesses);
  EXPECT_EQ(a.controller.migrations, b.controller.migrations);
  EXPECT_EQ(a.controller.migrations_pending, b.controller.migrations_pending);
  EXPECT_EQ(a.controller.migration_rounds, b.controller.migration_rounds);
  EXPECT_EQ(a.controller.deferred_migrations,
            b.controller.deferred_migrations);
  EXPECT_EQ(a.server.reads, b.server.reads);
  EXPECT_EQ(a.server.writes, b.server.writes);
  EXPECT_EQ(a.server.hits, b.server.hits);
  EXPECT_EQ(a.server.misses, b.server.misses);
  EXPECT_EQ(a.server.cpu_accesses, b.server.cpu_accesses);

  EXPECT_EQ(a.gated_requests, b.gated_requests);
  EXPECT_EQ(a.releases_by_quorum, b.releases_by_quorum);
  EXPECT_EQ(a.releases_by_slack, b.releases_by_slack);
  EXPECT_EQ(a.max_gated_buffer_bytes, b.max_gated_buffer_bytes);
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(ResultBits(a.hottest_chip_share), ResultBits(b.hottest_chip_share));

  EXPECT_EQ(a.audit_checks, b.audit_checks);
  EXPECT_EQ(a.audit_failures, b.audit_failures);
  // An observed run's metrics include the stepped count; these tests run
  // unobserved.
  EXPECT_EQ(a.metrics.size(), b.metrics.size());
  EXPECT_EQ(a.obs_events, b.obs_events);
  EXPECT_EQ(a.obs_dropped_events, b.obs_dropped_events);

  const MonitorSummary& ma = a.monitor;
  const MonitorSummary& mb = b.monitor;
  EXPECT_EQ(ma.enabled, mb.enabled);
  EXPECT_EQ(ma.regions, mb.regions);
  EXPECT_EQ(ma.probes, mb.probes);
  EXPECT_EQ(ma.observations, mb.observations);
  EXPECT_EQ(ma.splits, mb.splits);
  EXPECT_EQ(ma.merges, mb.merges);
  EXPECT_EQ(ma.aggregations, mb.aggregations);
  EXPECT_EQ(ma.scheme_matches, mb.scheme_matches);
  EXPECT_EQ(ma.demotions_requested, mb.demotions_requested);
  EXPECT_EQ(ma.demotions_applied, mb.demotions_applied);
  EXPECT_EQ(ResultBits(ma.overhead_fraction), ResultBits(mb.overhead_fraction));
  EXPECT_EQ(ResultBits(ma.hotness_error), ResultBits(mb.hotness_error));
}

}  // namespace dmasim

#endif  // DMASIM_TESTS_RESULTS_COMPARE_H_
