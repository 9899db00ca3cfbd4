// Data-server request paths (Fig. 1 of the paper).
//
// A client read: the processor parses the request and checks the buffer
// cache index. On a hit, a network DMA moves the page from memory to the
// SAN. On a miss, a disk read brings the page into memory via a disk DMA,
// then a network DMA sends it out. A client write flows in reverse: a
// network DMA in, an acknowledgment, and a write-back to disk via a disk
// DMA. CPU accesses (database servers) go straight to the controller with
// priority.
#ifndef DMASIM_SERVER_DATA_SERVER_H_
#define DMASIM_SERVER_DATA_SERVER_H_

#include <cstdint>
#include <memory>

#include "core/memory_controller.h"
#include "disk/disk_model.h"
#include "net/network_model.h"
#include "obs/event_trace.h"
#include "server/buffer_cache.h"
#include "sim/inline_function.h"
#include "sim/simulator.h"
#include "stats/accumulators.h"
#include "stats/histogram.h"
#include "util/random.h"
#include "util/time.h"

namespace dmasim {

struct ServerConfig {
  // When >= 0, each read is a miss with this probability, regardless of
  // cache contents (reproduces the published per-trace disk DMA rates;
  // see DESIGN.md). When < 0, misses come from the LRU cache.
  double forced_miss_ratio = -1.0;

  // Buffer cache capacity in pages (only relevant without forced misses).
  std::uint64_t cache_pages = 1ULL << 17;

  // The disk array must sustain the trace's miss rate (OLTP-St implies
  // ~16.7k disk reads/s, i.e. an EMC-class array: ~90 concurrent 5 ms
  // operations). 128 spindles keeps utilization below saturation.
  DiskParams disk;
  int disks = 128;
  NetworkParams network;

  // Server-side request processing time added to every client response
  // (query parsing/execution on a database server; ~0 on a storage
  // server). Part of the client-perceived response time against which
  // CP-Limit is defined.
  Tick request_compute_time = 0;

  std::uint64_t seed = 0xda7a;
};

struct ServerStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t cpu_accesses = 0;
};

// Client-completion continuation. Sized for the observers that actually
// follow a request (a pointer or a couple of words); it rides inside the
// DMA pipeline's SmallFunction captures, so every byte here is multiplied
// by three nesting levels on the miss path.
using ClientCallback = InlineFunction<void(Tick), 16>;

class DataServer {
 public:
  // `controller` must outlive the server.
  DataServer(Simulator* simulator, MemoryController* controller,
             const ServerConfig& config);

  // Client read request for `page` (completes with a response-time
  // sample; `done` is optional).
  void ClientRead(std::uint64_t page, std::int64_t bytes,
                  ClientCallback done = {});

  // Client write request for `page`.
  void ClientWrite(std::uint64_t page, std::int64_t bytes,
                   ClientCallback done = {});

  // Processor access to `page` (cache-line sized).
  void CpuAccess(std::uint64_t page, std::int64_t bytes);

  // Client-perceived response times, in ticks.
  const RunningMean& ResponseTime() const { return response_time_; }
  const ServerStats& stats() const { return stats_; }
  DiskArray& disks() { return disks_; }

  // Observability hook points (SimulationObserver). Optional and inert
  // with respect to simulation behaviour.
  struct ObsHooks {
    Histogram* response_time = nullptr;  // Client response times, ticks.
    EventTracer* tracer = nullptr;
  };
  void SetObsHooks(const ObsHooks& hooks) { obs_ = hooks; }

 private:
  int PickBus();
  bool IsMiss(std::uint64_t page);
  void FinishRequest(Tick arrival, Tick dma_done, std::int64_t reply_bytes,
                     ClientCallback& done);

  Simulator* simulator_;
  MemoryController* controller_;
  ServerConfig config_;
  BufferCache cache_;  // Consulted only without forced misses.
  DiskArray disks_;
  NetworkModel network_;
  Rng rng_;
  int next_bus_ = 0;

  RunningMean response_time_;
  ServerStats stats_;

  ObsHooks obs_;
};

}  // namespace dmasim

#endif  // DMASIM_SERVER_DATA_SERVER_H_
