// Host-speed probe: a fixed computation timed next to every measured run.
//
// The benchmark runs on shared hosts where co-tenants slow a process by up
// to 40% for seconds to minutes at a time. The probe is a small
// discrete-event loop (binary-heap event queue, random read-modify-write
// over a 4 MiB table), shaped like the simulator's own work but
// independent of the code under test. It measures how fast the host is
// running right now. Host seconds are then normalized to a fixed reference
// speed, so co-tenant slowdowns cancel out of the reported figures.
#ifndef DMABENCH_PROBE_H_
#define DMABENCH_PROBE_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace dmabench {

class HostProbe {
 public:
  // Probes with as many threads as the measured run keeps busy. A
  // multi-threaded run waits for its slowest thread at every barrier, so
  // the host's speed is that of the slowest probe thread.
  explicit HostProbe(int threads);

  // Runs the fixed computation once on every thread and returns the
  // host's current speed relative to the reference (1.0 = reference
  // speed, 0.5 = half as fast).
  double RelativeSpeed();

 private:
  struct Lane {
    std::vector<std::uint64_t> table;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> heap;
    std::uint64_t sink = 0;
    double seconds = 0.0;
  };

  static void Run(Lane* lane);

  std::vector<Lane> lanes_;
};

}  // namespace dmabench

#endif  // DMABENCH_PROBE_H_
