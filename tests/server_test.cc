// Tests for the buffer cache and the data-server request paths.
#include "server/data_server.h"

#include <gtest/gtest.h>

#include "core/memory_controller.h"
#include "mem/power_policy.h"
#include "server/buffer_cache.h"
#include "server/domain.h"
#include "sim/simulator.h"

namespace dmasim {
namespace {

TEST(BufferCacheTest, MissThenHit) {
  BufferCache cache(4);
  EXPECT_FALSE(cache.Lookup(1));
  cache.Insert(1);
  EXPECT_TRUE(cache.Lookup(1));
  EXPECT_EQ(cache.Hits(), 1u);
  EXPECT_EQ(cache.Misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.HitRatio(), 0.5);
}

TEST(BufferCacheTest, EvictsLeastRecentlyUsed) {
  BufferCache cache(2);
  cache.Insert(1);
  cache.Insert(2);
  EXPECT_TRUE(cache.Lookup(1));  // 1 becomes MRU; 2 is now LRU.
  const std::uint64_t evicted = cache.Insert(3);
  EXPECT_EQ(evicted, 2u);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_FALSE(cache.Contains(2));
}

TEST(BufferCacheTest, ReinsertDoesNotEvict) {
  BufferCache cache(2);
  cache.Insert(1);
  cache.Insert(2);
  EXPECT_EQ(cache.Insert(1), BufferCache::kNoEviction);
  EXPECT_EQ(cache.Size(), 2u);
}

TEST(BufferCacheTest, CapacityRespected) {
  BufferCache cache(3);
  for (std::uint64_t page = 0; page < 10; ++page) cache.Insert(page);
  EXPECT_EQ(cache.Size(), 3u);
  EXPECT_TRUE(cache.Contains(9));
  EXPECT_TRUE(cache.Contains(8));
  EXPECT_TRUE(cache.Contains(7));
}

TEST(BufferCacheTest, InsertAtExactCapacityEvictsExactlyOne) {
  BufferCache cache(3);
  cache.Insert(1);
  cache.Insert(2);
  cache.Insert(3);  // Now exactly full; nothing evicted yet.
  EXPECT_EQ(cache.Size(), 3u);
  const std::uint64_t evicted = cache.Insert(4);
  EXPECT_EQ(evicted, 1u);  // The LRU page, and only it.
  EXPECT_EQ(cache.Size(), 3u);
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(4));
}

TEST(BufferCacheTest, ReinsertPromotesToMru) {
  BufferCache cache(2);
  cache.Insert(1);
  cache.Insert(2);
  // Re-inserting 1 must promote it (like a Lookup hit), so the next
  // eviction takes 2, not 1.
  EXPECT_EQ(cache.Insert(1), BufferCache::kNoEviction);
  EXPECT_EQ(cache.Insert(3), 2u);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
}

TEST(BufferCacheTest, HitRatioOnEmptyCacheIsZero) {
  BufferCache cache(4);
  // No lookups yet: must be 0, not 0/0.
  EXPECT_DOUBLE_EQ(cache.HitRatio(), 0.0);
  EXPECT_EQ(cache.Hits(), 0u);
  EXPECT_EQ(cache.Misses(), 0u);
}

TEST(BufferCacheTest, SingleEntryCacheCycles) {
  BufferCache cache(1);
  EXPECT_EQ(cache.Insert(1), BufferCache::kNoEviction);
  EXPECT_EQ(cache.Insert(2), 1u);
  EXPECT_EQ(cache.Insert(3), 2u);
  EXPECT_EQ(cache.Size(), 1u);
  EXPECT_TRUE(cache.Contains(3));
}

class ServerFixture : public ::testing::Test {
 protected:
  void Build(double forced_miss_ratio) {
    MemorySystemConfig config;
    config.chips = 4;
    config.pages_per_chip = 16;
    controller_ = std::make_unique<MemoryController>(&simulator_, config,
                                                     &policy_);
    ServerConfig server_config;
    server_config.forced_miss_ratio = forced_miss_ratio;
    server_config.cache_pages = 16;
    server_config.disks = 8;
    server_ = std::make_unique<DataServer>(&simulator_, controller_.get(),
                                           server_config);
  }

  Simulator simulator_;
  DynamicThresholdPolicy policy_;
  std::unique_ptr<MemoryController> controller_;
  std::unique_ptr<DataServer> server_;
};

TEST_F(ServerFixture, HitPathIsFast) {
  Build(/*forced_miss_ratio=*/0.0);
  Tick done = -1;
  server_->ClientRead(3, 8192, [&](Tick when) { done = when; });
  simulator_.RunUntil(10 * kMillisecond);
  EXPECT_GT(done, 0);
  // Hit: wake + DMA (~13 us) + network; far below a disk access.
  EXPECT_LT(done, kMillisecond);
  EXPECT_EQ(server_->stats().hits, 1u);
  EXPECT_EQ(server_->stats().misses, 0u);
  EXPECT_EQ(server_->ResponseTime().Count(), 1u);
}

TEST_F(ServerFixture, MissPathIncludesDiskAndTwoTransfers) {
  Build(/*forced_miss_ratio=*/1.0);
  Tick done = -1;
  server_->ClientRead(3, 8192, [&](Tick when) { done = when; });
  simulator_.RunUntil(100 * kMillisecond);
  EXPECT_GT(done, kMillisecond);  // Disk latency dominates.
  EXPECT_EQ(server_->stats().misses, 1u);
  // Disk DMA in + network DMA out.
  EXPECT_EQ(controller_->stats().transfers_completed, 2u);
}

TEST_F(ServerFixture, WritePathAcknowledgesBeforeWriteback) {
  Build(0.0);
  Tick done = -1;
  server_->ClientWrite(3, 8192, [&](Tick when) { done = when; });
  simulator_.RunUntil(100 * kMillisecond);
  EXPECT_GT(done, 0);
  EXPECT_LT(done, kMillisecond);  // Ack does not wait for the disk.
  EXPECT_EQ(server_->stats().writes, 1u);
  // Network in + disk writeback out.
  EXPECT_EQ(controller_->stats().transfers_completed, 2u);
}

TEST_F(ServerFixture, ForcedMissRatioIsHonoured) {
  Build(/*forced_miss_ratio=*/0.3);
  for (int i = 0; i < 2000; ++i) {
    server_->ClientRead(static_cast<std::uint64_t>(i % 64), 8192, {});
    simulator_.RunUntil(simulator_.Now() + 50 * kMicrosecond);
  }
  simulator_.RunUntil(simulator_.Now() + 100 * kMillisecond);
  const double miss_ratio =
      static_cast<double>(server_->stats().misses) /
      static_cast<double>(server_->stats().reads);
  EXPECT_NEAR(miss_ratio, 0.3, 0.04);
}

TEST_F(ServerFixture, CacheDrivenMissesWhenNotForced) {
  Build(/*forced_miss_ratio=*/-1.0);
  // Working set of 8 pages fits in the 16-page cache: first pass misses,
  // second pass hits.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t page = 0; page < 8; ++page) {
      server_->ClientRead(page, 8192, {});
      simulator_.RunUntil(simulator_.Now() + 20 * kMillisecond);
    }
  }
  EXPECT_EQ(server_->stats().misses, 8u);
  EXPECT_EQ(server_->stats().hits, 8u);
}

TEST_F(ServerFixture, CpuAccessForwarded) {
  Build(0.0);
  server_->CpuAccess(3, 64);
  simulator_.RunUntil(kMillisecond);
  EXPECT_EQ(server_->stats().cpu_accesses, 1u);
  EXPECT_EQ(controller_->stats().cpu_accesses, 1u);
}

TEST_F(ServerFixture, ComputeTimeAddsToResponse) {
  MemorySystemConfig config;
  config.chips = 4;
  config.pages_per_chip = 16;
  controller_ = std::make_unique<MemoryController>(&simulator_, config,
                                                   &policy_);
  ServerConfig with_compute;
  with_compute.forced_miss_ratio = 0.0;
  with_compute.request_compute_time = 500 * kMicrosecond;
  DataServer server(&simulator_, controller_.get(), with_compute);
  Tick done = -1;
  server.ClientRead(3, 8192, [&](Tick when) { done = when; });
  simulator_.RunUntil(10 * kMillisecond);
  EXPECT_GE(done, 500 * kMicrosecond);
}

// A page past the memory would abort mid-run in the controller's page
// map; the domain refuses the trace before the first event instead, and
// names the record.
TEST(DomainDeathTest, RecordPastTheMemoryFailsBeforeTheFirstEvent) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SimulationOptions options;
  options.memory.chips = 2;
  options.memory.pages_per_chip = 16;
  const Trace trace = {
      {0, 31, 8192, TraceEventKind::kClientRead},
      {5, 32, 8192, TraceEventKind::kClientRead},
  };
  EXPECT_DEATH(Domain(options, 0.0, trace),
               "trace record 1 \\(time 5 ps\\) names page 32, but the "
               "memory holds 32 pages");
}

}  // namespace
}  // namespace dmasim
