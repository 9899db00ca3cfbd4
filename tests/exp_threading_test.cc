// Concurrency stress tests for the experiment engine, written to give
// ThreadSanitizer material: many producers submitting concurrently,
// workers submitting child tasks (work-stealing across queues), reusable
// Wait barriers, destructor draining, and whole SweepRunners racing each
// other. Under plain builds they are fast smoke tests; the CI TSan job
// runs them with -fsanitize=thread (see DESIGN.md).
#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/sweep_runner.h"
#include "trace/workloads.h"
#include "util/thread_pool.h"

namespace dmasim {
namespace {

SweepOptions ThreadedOptions(int threads) {
  SweepOptions options;
  options.threads = threads;
  return options;
}

TEST(ThreadPoolStressTest, ManyProducersOneCounter) {
  constexpr int kProducers = 8;
  constexpr int kTasksPerProducer = 400;
  ThreadPool pool(4);
  std::atomic<int> executed{0};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &executed]() {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        pool.Submit([&executed]() {
          executed.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  pool.Wait();
  EXPECT_EQ(executed.load(), kProducers * kTasksPerProducer);
}

TEST(ThreadPoolStressTest, WorkersSpawnChildTasks) {
  // Randomized small task graphs: every task may fan out into children,
  // submitted from worker threads — the path a sweep's work-stealing
  // exercises when phase-2 runs are enqueued while phase 1 still drains.
  ThreadPool pool(4);
  std::atomic<int> executed{0};

  // Deterministic fan-out: node i spawns children while i * 13 % 7 > 3,
  // depth-limited. Total node count is fixed, so the assertion is exact.
  std::atomic<int> expected{0};
  std::function<void(int, int)> spawn = [&](int index, int depth) {
    expected.fetch_add(1, std::memory_order_relaxed);
    pool.Submit([&, index, depth]() {
      executed.fetch_add(1, std::memory_order_relaxed);
      if (depth < 3 && (index * 13 % 7) > 3) {
        spawn(2 * index + 1, depth + 1);
        spawn(2 * index + 2, depth + 1);
      }
    });
  };
  for (int root = 0; root < 64; ++root) spawn(root, 0);

  pool.Wait();
  EXPECT_EQ(executed.load(), expected.load());
  EXPECT_GT(executed.load(), 64);  // Some fan-out actually happened.
}

TEST(ThreadPoolStressTest, WaitBarrierIsReusable) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 1; round <= 3; ++round) {
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter]() {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), 100 * round);
  }
}

TEST(ThreadPoolStressTest, DestructorDrainsPendingTasks) {
  std::atomic<int> executed{0};
  constexpr int kTasks = 500;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&executed]() {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No Wait(): the destructor must finish everything before joining.
  }
  EXPECT_EQ(executed.load(), kTasks);
}

WorkloadSpec TinyWorkload(WorkloadSpec spec) {
  spec.duration = 4 * kMillisecond;
  return spec;
}

ExperimentSpec TinySweepSpec(const char* name) {
  ExperimentSpec spec;
  spec.name = name;
  spec.workloads = {TinyWorkload(OltpStorageSpec())};
  spec.schemes = {TaScheme()};
  spec.cp_limits = {0.10};
  return spec;
}

TEST(SweepThreadingTest, ConcurrentSweepRunnersDoNotInterfere) {
  // Two full sweep engines — each with its own work-stealing pool — run
  // simultaneously in one process. Sweeps share no mutable state, so
  // both must complete with their full grids and no sanitizer findings.
  SweepResults first_results;
  SweepResults second_results;
  std::thread first([&first_results]() {
    SweepRunner runner(ThreadedOptions(2));
    first_results = runner.Run(TinySweepSpec("stress-a"));
  });
  std::thread second([&second_results]() {
    SweepRunner runner(ThreadedOptions(2));
    second_results = runner.Run(TinySweepSpec("stress-b"));
  });
  first.join();
  second.join();

  EXPECT_EQ(first_results.summary.failed, 0);
  EXPECT_EQ(second_results.summary.failed, 0);
  EXPECT_EQ(first_results.records.size(), second_results.records.size());
  EXPECT_GE(first_results.records.size(), 2u);  // Baseline + TA run.
}

}  // namespace
}  // namespace dmasim
