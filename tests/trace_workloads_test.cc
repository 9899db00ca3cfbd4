// Tests for the workload generator and the Table 2 presets.
#include "trace/workloads.h"

#include <cmath>
#include <cstdint>
#include <ostream>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "trace/trace.h"
#include "util/fnv.h"
#include "util/random.h"

namespace dmasim {
namespace {

TEST(GenerateWorkloadTest, ProducesSortedTrace) {
  WorkloadSpec spec;
  spec.duration = 20 * kMillisecond;
  const Trace trace = GenerateWorkload(spec);
  EXPECT_TRUE(IsTimeSorted(trace));
  EXPECT_FALSE(trace.empty());
  EXPECT_LT(trace.back().time, spec.duration);
}

TEST(GenerateWorkloadTest, MatchesRequestedRate) {
  WorkloadSpec spec;
  spec.client_reads_per_ms = 50.0;
  spec.duration = 100 * kMillisecond;
  const Trace trace = GenerateWorkload(spec);
  const TraceSummary summary = Summarize(trace);
  EXPECT_NEAR(summary.ReadsPerMs(), 50.0, 3.0);
}

TEST(GenerateWorkloadTest, IsDeterministicPerSeed) {
  WorkloadSpec spec;
  spec.duration = 10 * kMillisecond;
  const Trace a = GenerateWorkload(spec);
  const Trace b = GenerateWorkload(spec);
  EXPECT_EQ(a, b);
  WorkloadSpec other = spec;
  other.seed = spec.seed + 1;
  EXPECT_NE(GenerateWorkload(other), a);
}

TEST(GenerateWorkloadTest, WriteFraction) {
  WorkloadSpec spec;
  spec.duration = 100 * kMillisecond;
  spec.write_fraction = 0.3;
  const Trace trace = GenerateWorkload(spec);
  const TraceSummary summary = Summarize(trace);
  const double total =
      static_cast<double>(summary.client_reads + summary.client_writes);
  EXPECT_NEAR(static_cast<double>(summary.client_writes) / total, 0.3, 0.03);
}

TEST(GenerateWorkloadTest, CpuAccessesPerTransfer) {
  WorkloadSpec spec;
  spec.duration = 50 * kMillisecond;
  spec.cpu_accesses_per_transfer = 100.0;
  const Trace trace = GenerateWorkload(spec);
  const TraceSummary summary = Summarize(trace);
  const double per_request = static_cast<double>(summary.cpu_accesses) /
                             static_cast<double>(summary.client_reads);
  EXPECT_NEAR(per_request, 100.0, 5.0);
}

TEST(GenerateWorkloadTest, CpuAccessesTargetTheTransferredPage) {
  WorkloadSpec spec;
  spec.duration = 5 * kMillisecond;
  spec.cpu_accesses_per_transfer = 10.0;
  const Trace trace = GenerateWorkload(spec);
  std::unordered_set<std::uint64_t> request_pages;
  for (const TraceRecord& record : trace) {
    if (record.kind != TraceEventKind::kCpuAccess) {
      request_pages.insert(record.page);
    }
  }
  for (const TraceRecord& record : trace) {
    if (record.kind == TraceEventKind::kCpuAccess) {
      EXPECT_TRUE(request_pages.count(record.page) > 0);
      EXPECT_EQ(record.bytes, 64);
    }
  }
}

TEST(GenerateWorkloadTest, BurstinessRaisesVariance) {
  WorkloadSpec smooth;
  smooth.duration = 200 * kMillisecond;
  WorkloadSpec bursty = smooth;
  bursty.burst_factor = 16.0;
  bursty.burst_fraction = 0.5;

  auto window_variance = [](const Trace& trace) {
    // Count arrivals per 1 ms window.
    std::vector<int> counts(201, 0);
    for (const TraceRecord& record : trace) {
      ++counts[static_cast<std::size_t>(record.time / kMillisecond)];
    }
    double mean = 0.0;
    for (int c : counts) mean += c;
    mean /= static_cast<double>(counts.size());
    double variance = 0.0;
    for (int c : counts) variance += (c - mean) * (c - mean);
    return variance / static_cast<double>(counts.size()) / mean;
  };

  // Poisson gives variance/mean ~1; bursts push it well above.
  EXPECT_LT(window_variance(GenerateWorkload(smooth)), 2.0);
  EXPECT_GT(window_variance(GenerateWorkload(bursty)), 2.0);
}

TEST(GenerateWorkloadTest, LocalityPoolIncreasesReuse) {
  WorkloadSpec plain;
  plain.duration = 100 * kMillisecond;
  WorkloadSpec local = plain;
  local.locality_probability = 0.8;
  local.locality_pool_pages = 64;

  auto distinct = [](const Trace& trace) {
    return Summarize(trace).distinct_pages;
  };
  EXPECT_LT(distinct(GenerateWorkload(local)),
            distinct(GenerateWorkload(plain)) / 2);
}

TEST(GenerateWorkloadDeathTest, RecordsBeforeTheirRequestAreRefused) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  WorkloadSpec cpu = OltpDatabaseSpec();
  cpu.duration = kMillisecond;
  cpu.cpu_window = -kNanosecond;
  EXPECT_DEATH(GenerateWorkload(cpu),
               "spec.cpu_window >= 0 -- precondition violated");
  WorkloadSpec scan = DssStorageSpec();
  scan.duration = kMillisecond;
  scan.sequential_gap = -kNanosecond;
  EXPECT_DEATH(GenerateWorkload(scan),
               "spec.sequential_gap >= 0 -- precondition violated");
}

TEST(GenerateWorkloadDeathTest, RecordsOfNoBytesAreRefused) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  WorkloadSpec spec = OltpDatabaseSpec();
  spec.duration = kMillisecond;
  for (std::int32_t bytes : {0, -1}) {
    WorkloadSpec page = spec;
    page.page_bytes = bytes;
    EXPECT_DEATH(GenerateWorkload(page),
                 "spec.page_bytes > 0 -- precondition violated")
        << "bytes=" << bytes;
    WorkloadSpec line = spec;
    line.cpu_access_bytes = bytes;
    EXPECT_DEATH(GenerateWorkload(line),
                 "spec.cpu_access_bytes > 0 -- precondition violated")
        << "bytes=" << bytes;
  }
}

TEST(GenerateWorkloadDeathTest, SpecsPastTheRecordLimitsAreRefused) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  WorkloadSpec spec = OltpDatabaseSpec();
  spec.duration = kMillisecond;
  WorkloadSpec pages = spec;
  pages.pages = kTracePageLimit + 1;
  EXPECT_DEATH(GenerateWorkload(pages), "spec.pages <= kTracePageLimit");
  WorkloadSpec page_bytes = spec;
  page_bytes.page_bytes = kMaxTraceRecordBytes + 1;
  EXPECT_DEATH(GenerateWorkload(page_bytes),
               "spec.page_bytes <= kMaxTraceRecordBytes");
  WorkloadSpec line_bytes = spec;
  line_bytes.cpu_access_bytes = kMaxTraceRecordBytes + 1;
  EXPECT_DEATH(GenerateWorkload(line_bytes),
               "spec.cpu_access_bytes <= kMaxTraceRecordBytes");
}

TEST(PresetTest, OltpStorageMatchesTable2Rates) {
  const WorkloadSpec spec = OltpStorageSpec();
  EXPECT_EQ(spec.name, "OLTP-St");
  // 45.0 network + 16.7 disk transfers/ms.
  EXPECT_DOUBLE_EQ(spec.client_reads_per_ms, 45.0);
  EXPECT_NEAR(spec.TransfersPerMs(), 61.7, 0.01);
  EXPECT_DOUBLE_EQ(spec.cpu_accesses_per_transfer, 0.0);
}

TEST(PresetTest, SyntheticStorageMatchesTable2Rates) {
  const WorkloadSpec spec = SyntheticStorageSpec();
  EXPECT_EQ(spec.name, "Synthetic-St");
  // Zipf(1), Poisson, 100 transfers/ms.
  EXPECT_DOUBLE_EQ(spec.zipf_alpha, 1.0);
  EXPECT_DOUBLE_EQ(spec.burst_factor, 1.0);
  EXPECT_NEAR(spec.TransfersPerMs(), 100.0, 0.01);
}

TEST(PresetTest, OltpDatabaseMatchesTable2Rates) {
  const WorkloadSpec spec = OltpDatabaseSpec();
  EXPECT_EQ(spec.name, "OLTP-Db");
  EXPECT_DOUBLE_EQ(spec.client_reads_per_ms, 100.0);
  EXPECT_DOUBLE_EQ(spec.miss_ratio, 0.0);
  // ~233 processor accesses per transfer = 23,300 accesses/ms.
  EXPECT_DOUBLE_EQ(spec.cpu_accesses_per_transfer, 233.0);
}

TEST(PresetTest, SyntheticDatabaseMatchesTable2Rates) {
  const WorkloadSpec spec = SyntheticDatabaseSpec();
  EXPECT_EQ(spec.name, "Synthetic-Db");
  EXPECT_DOUBLE_EQ(spec.zipf_alpha, 1.0);
  // 10,000 processor accesses/ms at 100 transfers/ms.
  EXPECT_DOUBLE_EQ(spec.cpu_accesses_per_transfer, 100.0);
}

TEST(PresetTest, OltpPopularityMatchesFigure4) {
  // Fig. 4: ~20% of the referenced pages receive a majority (~60-70%) of
  // the DMA accesses.
  WorkloadSpec spec = OltpStorageSpec();
  spec.duration = 200 * kMillisecond;
  const auto cdf = PopularityCdf(GenerateWorkload(spec));
  const double share = AccessShareOfTopPages(cdf, 0.20);
  EXPECT_GT(share, 0.55);
  EXPECT_LT(share, 0.80);
}

TEST(PresetTest, WithIntensityScalesTotalTransfers) {
  WorkloadSpec spec = SyntheticStorageSpec();
  spec = WithIntensity(spec, 200.0);
  EXPECT_NEAR(spec.TransfersPerMs(), 200.0, 0.01);
  spec = WithIntensity(spec, 25.0);
  EXPECT_NEAR(spec.TransfersPerMs(), 25.0, 0.01);
}

TEST(PresetTest, WithCpuAccessesOverride) {
  WorkloadSpec spec = SyntheticDatabaseSpec();
  spec = WithCpuAccessesPerTransfer(spec, 400.0);
  EXPECT_DOUBLE_EQ(spec.cpu_accesses_per_transfer, 400.0);
}


TEST(GenerateWorkloadTest, SequentialRunsProduceConsecutivePages) {
  WorkloadSpec spec;
  spec.duration = 20 * kMillisecond;
  spec.client_reads_per_ms = 2.0;
  spec.sequential_run_mean = 8.0;
  const Trace trace = GenerateWorkload(spec);
  EXPECT_TRUE(IsTimeSorted(trace));
  // Runs multiply the request count roughly by the mean run length.
  const TraceSummary summary = Summarize(trace);
  EXPECT_NEAR(static_cast<double>(summary.client_reads),
              2.0 * 20.0 * 8.0, 2.0 * 20.0 * 8.0 * 0.5);
  // Count +1-page successors: most records should continue a run.
  int consecutive = 0;
  std::unordered_map<std::uint64_t, bool> seen;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    if (trace[i].page == trace[i - 1].page + 1) ++consecutive;
  }
  EXPECT_GT(consecutive, static_cast<int>(trace.size()) / 2);
}

TEST(PresetTest, DssStorageSpecIsScanHeavy) {
  const WorkloadSpec spec = DssStorageSpec();
  EXPECT_EQ(spec.name, "DSS-St");
  EXPECT_GT(spec.sequential_run_mean, 8.0);
  EXPECT_LT(spec.zipf_alpha, 1.0);
  WorkloadSpec short_spec = spec;
  short_spec.duration = 50 * kMillisecond;
  const Trace trace = GenerateWorkload(short_spec);
  EXPECT_FALSE(trace.empty());
  EXPECT_TRUE(IsTimeSorted(trace));
}

// Parameterized: every preset must generate a valid trace whose rates
// match its spec.
class PresetSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(PresetSweepTest, GeneratesConsistentTrace) {
  WorkloadSpec spec;
  switch (GetParam()) {
    case 0:
      spec = OltpStorageSpec();
      break;
    case 1:
      spec = SyntheticStorageSpec();
      break;
    case 2:
      spec = OltpDatabaseSpec();
      break;
    default:
      spec = SyntheticDatabaseSpec();
      break;
  }
  spec.duration = 30 * kMillisecond;
  const Trace trace = GenerateWorkload(spec);
  EXPECT_TRUE(IsTimeSorted(trace));
  const TraceSummary summary = Summarize(trace);
  EXPECT_NEAR(summary.ReadsPerMs(),
              spec.client_reads_per_ms * (1.0 - spec.write_fraction),
              spec.client_reads_per_ms * 0.25);
  for (const TraceRecord& record : trace) {
    EXPECT_LT(record.page, spec.pages);
    EXPECT_GT(record.bytes, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetSweepTest, ::testing::Range(0, 4));

// --- Pinned generator bytes ------------------------------------------------
//
// Each case hashes one generated trace: its size, then every record's
// time, kind, page and bytes, each widened to 64 bits. The digests pin
// the record order as well as the draws, including the order of
// equal-time records inside a request and across requests.

std::uint64_t TraceDigest(const Trace& trace) {
  Fnv1a hash;
  hash.MixU64(trace.size());
  for (const TraceRecord& record : trace) {
    hash.MixU64(static_cast<std::uint64_t>(record.time));
    hash.MixU64(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(record.kind)));
    hash.MixU64(record.page);
    hash.MixU64(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(record.bytes)));
  }
  return hash.hash();
}

struct PinnedTrace {
  const char* name;
  WorkloadSpec (*spec)();
  std::size_t records;
  std::uint64_t digest;

  friend void PrintTo(const PinnedTrace& pinned, std::ostream* os) {
    *os << pinned.name;
  }
};

WorkloadSpec AtDuration(WorkloadSpec spec, Tick duration) {
  spec.duration = duration;
  return spec;
}

const PinnedTrace kPinnedTraces[] = {
    // Table 2 presets and DSS-St, 30 ms, each with its own seed.
    {"OltpSt", [] { return AtDuration(OltpStorageSpec(), 30 * kMillisecond); },
     1353, 4515880795549748044ULL},
    {"SyntheticSt",
     [] { return AtDuration(SyntheticStorageSpec(), 30 * kMillisecond); },
     2365, 7082980310969737320ULL},
    {"OltpDb", [] { return AtDuration(OltpDatabaseSpec(), 30 * kMillisecond); },
     696565, 5615728401061490739ULL},
    {"SyntheticDb",
     [] { return AtDuration(SyntheticDatabaseSpec(), 30 * kMillisecond); },
     293133, 7809646995920847827ULL},
    {"DssSt", [] { return AtDuration(DssStorageSpec(), 30 * kMillisecond); },
     2010, 14142146295792001952ULL},
    // Every CPU access lands on its request's arrival time.
    {"OltpDbZeroCpuWindow",
     [] {
       WorkloadSpec spec = AtDuration(OltpDatabaseSpec(), 10 * kMillisecond);
       spec.cpu_window = 0;
       return spec;
     },
     249021, 17224269744751836278ULL},
    // A 100 ps window: ~233 accesses share ~100 distinct times.
    {"OltpDbTinyCpuWindow",
     [] {
       WorkloadSpec spec = AtDuration(OltpDatabaseSpec(), 10 * kMillisecond);
       spec.cpu_window = 100;
       return spec;
     },
     249021, 1493222034365619020ULL},
    // Arrivals ~14 ps apart with a 30 ps window: accesses of neighbouring
    // requests interleave and tie with each other and with arrivals.
    {"OltpDbTiesAcrossRequests",
     [] {
       WorkloadSpec spec = AtDuration(OltpDatabaseSpec(), kMicrosecond);
       spec.client_reads_per_ms = 1e8;
       spec.cpu_accesses_per_transfer = 3.0;
       spec.cpu_window = 30;
       return spec;
     },
     380480, 7200045435776164178ULL},
    // Scan runs of neighbouring requests overlap.
    {"DssStOverlappingScans",
     [] {
       WorkloadSpec spec = AtDuration(DssStorageSpec(), 20 * kMillisecond);
       spec.client_reads_per_ms = 200.0;
       return spec;
     },
     64195, 9715549723713232982ULL},
    // Requests with both a scan run and CPU accesses, whose 200 us window
    // interleaves them: the only batches whose own records need merging.
    {"DssStScansWithCpuAccesses",
     [] {
       WorkloadSpec spec = AtDuration(DssStorageSpec(), 10 * kMillisecond);
       spec.cpu_accesses_per_transfer = 4.0;
       spec.cpu_window = 200 * kMicrosecond;
       return spec;
     },
     506, 3545637185407949014ULL},
    {"SyntheticDbLocalityPool",
     [] {
       WorkloadSpec spec =
           AtDuration(SyntheticDatabaseSpec(), 10 * kMillisecond);
       spec.locality_probability = 0.8;
       spec.locality_pool_pages = 64;
       return spec;
     },
     102761, 10676846178879664220ULL},
    // The benchmark's oltp-db trace at seed 1.
    {"BenchmarkOltpDbSeed1",
     [] {
       WorkloadSpec spec = AtDuration(OltpDatabaseSpec(), 100 * kMillisecond);
       std::uint64_t state = 1 ^ 0xdbULL;
       spec.seed = SplitMix64(state);
       return spec;
     },
     2326027, 15305491898616441236ULL},
};

class PinnedTraceTest : public ::testing::TestWithParam<PinnedTrace> {};

TEST_P(PinnedTraceTest, GeneratorBytesAreStable) {
  const PinnedTrace& pinned = GetParam();
  const Trace trace = GenerateWorkload(pinned.spec());
  EXPECT_TRUE(IsTimeSorted(trace));
#if defined(__GNUC__) && !defined(__clang__)
  // Compiler-gated like the pinned sweep checksum: the draws go through
  // libm (exp, log, pow), whose last bits another toolchain may round
  // differently.
  EXPECT_EQ(trace.size(), pinned.records);
  EXPECT_EQ(TraceDigest(trace), pinned.digest);
#endif
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, PinnedTraceTest, ::testing::ValuesIn(kPinnedTraces),
    [](const ::testing::TestParamInfo<PinnedTrace>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace dmasim
