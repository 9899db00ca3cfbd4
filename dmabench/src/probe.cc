#include "probe.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

namespace dmabench {

namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 19;  // 4 MiB.
constexpr std::size_t kPendingEvents = 4096;
constexpr int kSteps = 100000;
// Seconds the kSteps take on the reference host (a 4-vCPU Intel Xeon VM
// at 2.0 GHz, gcc 12.2, -O3) when no co-tenant load slows it down: the
// fastest of 300 probes there. This defines the reference speed every
// normalized host time is quoted at.
constexpr double kReferenceSeconds = 0.016;

std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

HostProbe::HostProbe(int threads) : lanes_(static_cast<std::size_t>(threads)) {
  for (Lane& lane : lanes_) {
    lane.table.resize(kTableWords);
    for (std::size_t i = 0; i < kTableWords; ++i) lane.table[i] = Mix(i + 1);
  }
}

double HostProbe::RelativeSpeed() {
  std::vector<std::thread> helpers;
  for (std::size_t i = 1; i < lanes_.size(); ++i) {
    helpers.emplace_back([this, i]() { Run(&lanes_[i]); });
  }
  Run(&lanes_[0]);
  for (std::thread& helper : helpers) helper.join();
  double slowest = 0.0;
  for (const Lane& lane : lanes_) slowest = std::max(slowest, lane.seconds);
  return kReferenceSeconds / slowest;
}

void HostProbe::Run(Lane* lane) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  std::vector<std::pair<std::uint64_t, std::uint32_t>>& heap = lane->heap;
  heap.clear();
  for (std::uint32_t i = 0; i < kPendingEvents; ++i) {
    heap.emplace_back(Mix(i) & 0xffff, i);
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  std::uint64_t acc = lane->sink;
  for (int step = 0; step < kSteps; ++step) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    auto [when, slot] = heap.back();
    heap.pop_back();
    std::uint64_t& word = lane->table[Mix(when ^ slot) & (kTableWords - 1)];
    word = Mix(word + acc);
    acc += word & 0xff;
    if ((word & 3) != 0) slot = static_cast<std::uint32_t>(word >> 40);
    heap.emplace_back(when + 1 + (word & 1023), slot);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  lane->sink = acc;
  lane->seconds = std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace dmabench
