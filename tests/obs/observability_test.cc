// End-to-end tests of the observability layer: enabling it must not
// change any simulation result, the event trace's power-state residency
// must reconcile exactly with the chips' time/energy accounting, and the
// exported artifacts must be structurally sound.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/memory_controller.h"
#include "mem/power_policy.h"
#include "obs/simulation_obs.h"
#include "obs/trace_export.h"
#include "server/fleet_driver.h"
#include "server/simulation_driver.h"
#include "sim/simulator.h"
#include "trace/workloads.h"

namespace dmasim {
namespace {

WorkloadSpec ShortWorkload(Tick duration = 30 * kMillisecond) {
  WorkloadSpec spec = OltpStorageSpec();
  spec.duration = duration;
  return spec;
}

SimulationOptions TaOptions(int obs_level) {
  SimulationOptions options;
  options.memory.dma.ta.enabled = true;
  options.memory.dma.ta.mu = 4.0;  // Generous budget: gating fires.
  options.obs_level = obs_level;
  return options;
}

const MetricSample* FindMetric(const SimulationResults& results,
                               const std::string& component,
                               const std::string& name) {
  for (const MetricSample& sample : results.metrics) {
    if (sample.component == component && sample.name == name) return &sample;
  }
  return nullptr;
}

// The contract the whole layer stands on: a fully-observed run produces
// bit-identical simulation results to an unobserved one.
TEST(ObservabilityTest, ObservedRunMatchesUnobservedRunExactly) {
  const SimulationResults off = RunWorkload(ShortWorkload(), TaOptions(0));
  const SimulationResults on = RunWorkload(ShortWorkload(), TaOptions(2));

  EXPECT_EQ(off.energy.Total(), on.energy.Total());
  for (int i = 0; i < kEnergyBucketCount; ++i) {
    const auto bucket = static_cast<EnergyBucket>(i);
    EXPECT_EQ(off.energy.Of(bucket), on.energy.Of(bucket));
  }
  EXPECT_EQ(off.executed_events, on.executed_events);
  EXPECT_EQ(off.stepped_events, on.stepped_events);
  EXPECT_EQ(off.controller.transfers_completed,
            on.controller.transfers_completed);
  EXPECT_EQ(off.server.reads, on.server.reads);
  EXPECT_EQ(off.gated_requests, on.gated_requests);
  EXPECT_EQ(off.releases_by_quorum, on.releases_by_quorum);
  EXPECT_EQ(off.releases_by_slack, on.releases_by_slack);
  EXPECT_EQ(off.client_response.Mean(), on.client_response.Mean());
  EXPECT_EQ(off.utilization_factor, on.utilization_factor);

  // The observed run actually observed something.
  EXPECT_TRUE(off.metrics.empty());
  EXPECT_FALSE(on.metrics.empty());
  EXPECT_GT(on.obs_events, 0u);
  EXPECT_EQ(on.obs_dropped_events, 0u);
}

TEST(ObservabilityTest, MetricsReconcileWithResults) {
  const SimulationResults results =
      RunWorkload(ShortWorkload(), TaOptions(2));

  const MetricSample* completed =
      FindMetric(results, "controller", "transfers_completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(completed->kind, MetricSample::Kind::kCounter);
  EXPECT_EQ(completed->count, results.controller.transfers_completed);

  const MetricSample* gated = FindMetric(results, "dma_ta", "gated_total");
  ASSERT_NE(gated, nullptr);
  EXPECT_EQ(gated->count, results.gated_requests);
  EXPECT_GT(gated->count, 0u);

  // Per-cause release counters partition the coarse quorum/slack split.
  std::uint64_t by_cause = 0;
  for (const MetricSample& sample : results.metrics) {
    if (sample.component == "dma_ta" &&
        sample.name.rfind("release_cause_", 0) == 0) {
      by_cause += sample.count;
    }
  }
  EXPECT_EQ(by_cause, results.releases_by_quorum + results.releases_by_slack);

  // Live histograms saw the same populations as the running means.
  const MetricSample* latency =
      FindMetric(results, "controller", "transfer_latency_ticks");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->kind, MetricSample::Kind::kHistogram);
  EXPECT_EQ(latency->total, results.transfer_latency.Count());
  const MetricSample* response =
      FindMetric(results, "server", "response_time_ticks");
  ASSERT_NE(response, nullptr);
  EXPECT_EQ(response->total, results.client_response.Count());

  // Aggregated chip counters match the energy-accounting world.
  const MetricSample* wakeups = FindMetric(results, "chips", "wakeups");
  ASSERT_NE(wakeups, nullptr);
  EXPECT_GT(wakeups->count, 0u);

  // Event-kernel internals: the sim group mirrors the run's calendar
  // stats and event counts exactly.
  const MetricSample* executed = FindMetric(results, "sim", "executed_events");
  ASSERT_NE(executed, nullptr);
  EXPECT_EQ(executed->count, results.executed_events);
  const MetricSample* stepped = FindMetric(results, "sim", "stepped_events");
  ASSERT_NE(stepped, nullptr);
  EXPECT_EQ(stepped->count, results.stepped_events);
  const MetricSample* loads =
      FindMetric(results, "sim", "calendar_bucket_loads");
  ASSERT_NE(loads, nullptr);
  EXPECT_EQ(loads->count, results.calendar.bucket_loads);
  EXPECT_GT(loads->count, 0u);
  const MetricSample* cascades = FindMetric(results, "sim", "calendar_cascades");
  ASSERT_NE(cascades, nullptr);
  EXPECT_EQ(cascades->count, results.calendar.cascades);
  const MetricSample* refills =
      FindMetric(results, "sim", "calendar_overflow_refills");
  ASSERT_NE(refills, nullptr);
  EXPECT_EQ(refills->count, results.calendar.overflow_refills);
  const MetricSample* peak =
      FindMetric(results, "sim", "calendar_max_bucket_events");
  ASSERT_NE(peak, nullptr);
  EXPECT_EQ(peak->count, results.calendar.max_bucket_events);
  EXPECT_GT(peak->count, 0u);
}

// Fleet path: the obs-on==obs-off bit-identity re-assert for the fleet,
// with half the streams remote so routed reads run through the observed
// domains, and the engine's exported counters reconcile with its stats.
TEST(ObservabilityTest, FleetObservedRunMatchesUnobservedExactly) {
  FleetOptions options;
  options.domains = 3;
  options.sim_threads = 2;
  options.streams_per_domain = 64;
  options.remote_fraction = 0.5;
  options.workload = ShortWorkload(5 * kMillisecond);

  FleetOptions observed = options;
  observed.base.obs_level = 1;

  const FleetResults off = RunFleet(options);
  const FleetResults on = RunFleet(observed);

  EXPECT_EQ(off.Fingerprint(), on.Fingerprint());
  EXPECT_GT(on.remote_served, 0u);
  EXPECT_EQ(off.engine.windows, on.engine.windows);
  EXPECT_EQ(off.engine.delivered_messages, on.engine.delivered_messages);
  EXPECT_EQ(off.engine.mailbox_spills, on.engine.mailbox_spills);
  EXPECT_EQ(off.engine.max_mailbox_occupancy, on.engine.max_mailbox_occupancy);

  // Every domain's snapshot carries the fleet-wide engine counters, and
  // they reconcile exactly with the engine's own stats.
  EXPECT_TRUE(off.domains.front().results.metrics.empty());
  for (const FleetDomainResults& domain : on.domains) {
    const SimulationResults& results = domain.results;
    const MetricSample* spills = FindMetric(results, "sim", "mailbox_spills");
    ASSERT_NE(spills, nullptr);
    EXPECT_EQ(spills->count, on.engine.mailbox_spills);
    const MetricSample* occupancy =
        FindMetric(results, "sim", "max_mailbox_occupancy");
    ASSERT_NE(occupancy, nullptr);
    EXPECT_EQ(occupancy->count, on.engine.max_mailbox_occupancy);
    const MetricSample* windows = FindMetric(results, "sim", "engine_windows");
    ASSERT_NE(windows, nullptr);
    EXPECT_EQ(windows->count, on.engine.windows);
    const MetricSample* delivered =
        FindMetric(results, "sim", "engine_delivered_messages");
    ASSERT_NE(delivered, nullptr);
    EXPECT_EQ(delivered->count, on.engine.delivered_messages);
  }
}

TEST(ObservabilityTest, MetricsOnlyLevelRecordsNoEvents) {
  const SimulationResults results =
      RunWorkload(ShortWorkload(), TaOptions(1));
  EXPECT_FALSE(results.metrics.empty());
  EXPECT_EQ(results.obs_events, 0u);
  EXPECT_EQ(FindMetric(results, "tracer", "recorded_events"), nullptr);
}

TEST(ObservabilityTest, TraceFileIsWrittenAndStructurallySound) {
  const std::string path =
      testing::TempDir() + "/dmasim_obs_trace_test.json";
  std::remove(path.c_str());
  SimulationOptions options = TaOptions(2);
  options.obs_trace_path = path;
  const SimulationResults results = RunWorkload(ShortWorkload(), options);
  EXPECT_GT(results.obs_events, 0u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string trace = buffer.str();
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.front(), '{');
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(trace.find("memory chips"), std::string::npos);
  EXPECT_NE(trace.find("\"recorded_events\""), std::string::npos);
  std::remove(path.c_str());
}

// Component-level fixture with direct access to the tracer, for the
// residency-reconciliation contract.
class ObsReconcileFixture : public ::testing::Test {
 protected:
  void Build() {
    MemorySystemConfig config;
    config.chips = 4;
    config.pages_per_chip = 16;
    config.bus_count = 3;
    config.chunk_bytes = 512;
    policy_ = std::make_unique<DynamicThresholdPolicy>();
    controller_ = std::make_unique<MemoryController>(&simulator_, config,
                                                     policy_.get());
    SimulationObserver::Options options;
    options.level = 2;
    observer_ = std::make_unique<SimulationObserver>(controller_.get(),
                                                     nullptr, options);
  }

  Simulator simulator_;
  std::unique_ptr<LowPowerPolicy> policy_;
  std::unique_ptr<MemoryController> controller_;
  std::unique_ptr<SimulationObserver> observer_;
};

TEST_F(ObsReconcileFixture, ResidencyEventsReconcileWithChipAccounting) {
  Build();
  // Sparse transfers so chips step down and wake repeatedly.
  for (int i = 0; i < 20; ++i) {
    simulator_.ScheduleAt(i * 2 * kMillisecond, [this, i]() {
      controller_->StartDmaTransfer(i % 3,
                                    static_cast<std::uint64_t>((i * 7) % 64),
                                    8192, DmaKind::kNetwork, {});
    });
  }
  simulator_.RunUntil(50 * kMillisecond);
  observer_->Finish();

  const EventTracer* tracer = observer_->tracer();
  ASSERT_NE(tracer, nullptr);
  ASSERT_GT(tracer->size(), 0u);
  EXPECT_EQ(tracer->dropped(), 0u);

  constexpr int kChips = 4;
  Tick residency[kChips][kPowerStateCount] = {};
  Tick transition[kChips] = {};
  tracer->ForEach([&](const ObsEvent& event) {
    const int chip = event.b;
    switch (event.kind) {
      case ObsEventKind::kPowerResidency:
        ASSERT_LT(chip, kChips);
        ASSERT_LT(event.a, kPowerStateCount);
        residency[chip][event.a] += event.dur;
        break;
      case ObsEventKind::kPowerTransition:
        ASSERT_LT(chip, kChips);
        transition[chip] += event.dur;
        break;
      default:
        break;
    }
  });

  for (int i = 0; i < kChips; ++i) {
    MemoryChip& chip = controller_->chip(i);
    const ChipStats& stats = chip.stats();

    // Active residency covers serving and both active-idle buckets.
    const Tick active = stats.dma_serving + stats.cpu_serving +
                        stats.migration_serving + stats.active_idle_dma +
                        stats.active_idle_threshold;
    EXPECT_EQ(residency[i][static_cast<int>(PowerState::kActive)], active)
        << "chip " << i;

    // Each low-power state's residency matches the stats slot exactly.
    Tick low_power_total = 0;
    for (int state = 1; state < kPowerStateCount; ++state) {
      EXPECT_EQ(residency[i][state], stats.low_power[state])
          << "chip " << i << " state " << state;
      low_power_total += residency[i][state];
    }
    EXPECT_EQ(transition[i], stats.transition) << "chip " << i;

    // Gap-free coverage: every accounted tick is in exactly one interval.
    EXPECT_EQ(active + low_power_total + transition[i],
              chip.accounted_until())
        << "chip " << i;

    // And the residency-implied low-power energy matches the accumulator.
    // States the chip model does not support (the DDR4-only ones on the
    // default RDRAM model) can hold no residency.
    double low_power_joules = 0.0;
    for (int state = 1; state < kPowerStateCount; ++state) {
      if (!chip.model().IsSupported(static_cast<PowerState>(state))) {
        EXPECT_EQ(residency[i][state], 0) << "chip " << i << " state "
                                          << state;
        continue;
      }
      low_power_joules +=
          EnergyOver(chip.model().StatePowerMw(static_cast<PowerState>(state)),
                     Ticks(residency[i][state]))
              .joules();
    }
    EXPECT_NEAR(low_power_joules,
                chip.energy().Of(EnergyBucket::kLowPower).joules(),
                1e-9 * (low_power_joules + 1.0))
        << "chip " << i;
  }
}

TEST_F(ObsReconcileFixture, ChromeExportContainsEveryRecordedEvent) {
  Build();
  for (int i = 0; i < 6; ++i) {
    simulator_.ScheduleAt(i * kMillisecond, [this, i]() {
      controller_->StartDmaTransfer(i % 3,
                                    static_cast<std::uint64_t>(i), 8192,
                                    DmaKind::kDisk, {});
    });
  }
  simulator_.RunUntil(20 * kMillisecond);
  observer_->Finish();

  const EventTracer* tracer = observer_->tracer();
  ASSERT_NE(tracer, nullptr);
  std::ostringstream out;
  WriteChromeTrace(*tracer, out);
  const std::string trace = out.str();
  EXPECT_NE(trace.find("\"io buses\""), std::string::npos);
  EXPECT_NE(trace.find("\"memory chips\""), std::string::npos);
  EXPECT_NE(
      trace.find("\"recorded_events\":" + std::to_string(tracer->size())),
      std::string::npos);
  EXPECT_NE(trace.find("\"dropped_events\":0"), std::string::npos);
}

}  // namespace
}  // namespace dmasim
