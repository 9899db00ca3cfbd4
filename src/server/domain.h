// One simulated data server, composed once: event kernel, low-power
// policy, memory controller (chips and buses), data server, a cursor over
// a borrowed trace, and the optional audit and observer. RunTrace runs
// one Domain; RunFleet runs one per engine shard, each on its routed
// trace.
//
// Construction schedules the run's first events in one fixed order — the
// controller's, the server's, the feeder's first pump at trace[0].time,
// then the audit's — on which every pinned byte depends.
#ifndef DMASIM_SERVER_DOMAIN_H_
#define DMASIM_SERVER_DOMAIN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "audit/simulation_audit.h"
#include "obs/simulation_obs.h"
#include "server/simulation_driver.h"
#include "sim/shard_annotations.h"

namespace dmasim {

class ShardedEngine;

// The feeder's one fleet hook: it serves the client reads that peer
// domains routed into this domain's trace, and records their replies
// for the requesters.
class RoutedReads {
 public:
  virtual ~RoutedReads() = default;
  // Called for the client read at trace index `position`. Returns true
  // when the read was routed in and the hook served it; false serves it
  // as a local read.
  virtual bool Serve(const TraceRecord& record, std::uint64_t position) = 0;
};

class Domain {
 public:
  // `options` and the time-sorted `trace` are borrowed and must outlive
  // the domain. `miss_ratio` overrides options.server.forced_miss_ratio
  // (< 0 for cache-driven misses). `engine`, when set, is the sharded
  // engine whose window and mailbox counters the observer exports.
  Domain(const SimulationOptions& options, double miss_ratio,
         const Trace& trace, const ShardedEngine* engine = nullptr);

  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  // Installs the fleet hook. Without one (RunTrace), every client read is
  // served locally.
  void set_routed_reads(RoutedReads* routed) { routed_ = routed; }

  Simulator& simulator() { return simulator_; }
  DataServer& server() { return server_; }
  // Null unless options.obs_level >= 1.
  const SimulationObserver* observer() const { return observer_.get(); }

  // Finishes the audit and the observer and returns the run's results.
  // Call once, after the run.
  DMASIM_BARRIER_ONLY SimulationResults Collect(const std::string& workload);

 private:
  // Hands the server every record due by Now(), then schedules itself at
  // the next record's time.
  void Pump();

  DMASIM_SHARED_CONST const SimulationOptions& options_;
  DMASIM_SHARED_CONST const Trace& trace_;
  DMASIM_SHARD_LOCAL Simulator simulator_;
  DMASIM_SHARD_LOCAL std::unique_ptr<LowPowerPolicy> policy_;
  DMASIM_SHARD_LOCAL MemoryController controller_;
  DMASIM_SHARD_LOCAL DataServer server_;
  DMASIM_SHARD_LOCAL std::size_t cursor_ = 0;
  DMASIM_SHARED_CONST RoutedReads* routed_ = nullptr;
  DMASIM_SHARD_LOCAL std::unique_ptr<SimulationAudit> audit_;
  DMASIM_SHARD_LOCAL std::unique_ptr<SimulationObserver> observer_;
};

}  // namespace dmasim

#endif  // DMASIM_SERVER_DOMAIN_H_
