// Fleet driver: one simulation spanning many memory-controller domains,
// executed by the sharded engine (sim/sharded_engine.h).
//
// Each domain is a full simulated system — private event kernel, memory
// controller with its chips and buses, data server, workload trace — and
// maps 1:1 onto an engine shard. Domains interact only through remote
// client reads: every request belongs to a client stream (a stable hash
// of its trace position), and a configurable fraction of streams are
// homed on a peer domain. A remote-homed read is forwarded over the
// fleet interconnect (one `remote_latency` hop each way) as a
// cross-shard message and served by the peer's data server; its reply
// changes nothing the requester simulates, so it is not a message but a
// record, credited to the requester's remote-read counters after the
// run. No cross-domain effect propagates faster than one hop, and a
// domain sends only when its feeder reaches a remote-homed read — a
// position known before the run — so each domain declares the engine
// send bound "next remote-homed read's time + remote_latency". With no
// remote-homed read left anywhere, the rest of the run is one window.
//
// Determinism: RunFleet with the same options produces bit-identical
// results for every `sim_threads` value — the engine's windows, the
// per-domain event orders, and the barrier delivery order are all
// independent of the thread count. `FleetResults::Fingerprint()`
// digests the run for the pinned-checksum suites.
#ifndef DMASIM_SERVER_FLEET_DRIVER_H_
#define DMASIM_SERVER_FLEET_DRIVER_H_

#include <cstdint>
#include <vector>

#include "server/simulation_driver.h"
#include "sim/sharded_engine.h"
#include "stats/accumulators.h"
#include "trace/workloads.h"
#include "util/time.h"

namespace dmasim {

// Options are read-only once RunFleet starts: every field is
// DMASIM_SHARED_CONST for the run's duration.
struct FleetOptions {
  // Per-domain system configuration (memory, server, policy, audit
  // knobs).
  DMASIM_SHARED_CONST SimulationOptions base;
  // Per-domain workload template; each domain derives its own seed (and
  // its server's) from `workload.seed` and the domain index, so domains
  // are statistically alike but not in lockstep.
  DMASIM_SHARED_CONST WorkloadSpec workload;

  DMASIM_SHARED_CONST int domains = 4;
  // Engine threads, >= 1; 1 = serial. The run uses at most one per
  // domain and per host core (FleetResults::engine.threads reports how
  // many it used). Any value is bit-identical.
  DMASIM_SHARED_CONST int sim_threads = 1;

  // Fraction of client streams homed on a remote domain (0 disables
  // cross-domain traffic; forced to 0 when `domains` == 1).
  DMASIM_SHARED_CONST double remote_fraction = 0.05;
  // Client streams per domain; requests hash onto streams, and a
  // stream's home (local or which peer) is a stable function of its id.
  DMASIM_SHARED_CONST std::uint64_t streams_per_domain = 1024;
  // One-way fleet-interconnect hop: how far past a remote-homed read's
  // time a domain's send bound lies. Must be positive when `domains` > 1
  // (it is also the engine's lookahead).
  DMASIM_SHARED_CONST Tick remote_latency = 20 * kMicrosecond;

  // Engine knobs (see ShardedEngine::Options).
  DMASIM_SHARED_CONST std::size_t mailbox_capacity = 4096;
  DMASIM_SHARED_CONST bool record_deliveries = false;
  DMASIM_SHARED_CONST bool record_window_digests = false;
  // Seeded engine fault for the determinism proof kit (kNone in any
  // real run; `fleet_scenario --engine-fault` plumbs it for the CI
  // divergence check).
  DMASIM_SHARED_CONST EngineFault engine_fault = EngineFault::kNone;
  // Nonzero perturbs worker scheduling (see ShardedEngine::Options); the
  // result must stay bit-identical to seed 0.
  DMASIM_SHARED_CONST std::uint64_t sched_fuzz_seed = 0;
};

// Domain `index`'s workload and options: the fleet's templates, seeded
// from `workload.seed` and the index. RunFleet builds the domain from
// exactly these, so with no remote-homed stream RunTrace on this pair
// reproduces it bit for bit.
struct FleetDomainSpec {
  DMASIM_SHARED_CONST WorkloadSpec workload;
  DMASIM_SHARED_CONST SimulationOptions options;
};
FleetDomainSpec MakeFleetDomainSpec(const FleetOptions& options, int index);

// One domain's outcome: the usual single-system results plus its side of
// the remote-read traffic. Results structs are assembled after the run
// on the coordinator — barrier context, hence DMASIM_BARRIER_ONLY.
struct FleetDomainResults {
  DMASIM_BARRIER_ONLY SimulationResults results;
  DMASIM_BARRIER_ONLY std::uint64_t remote_sent = 0;   // Forwarded to a peer.
  DMASIM_BARRIER_ONLY std::uint64_t remote_served = 0;  // Peer reads served.
  // Replies back by the end of the run.
  DMASIM_BARRIER_ONLY std::uint64_t remote_completed = 0;
  // End-to-end remote read, ticks.
  DMASIM_BARRIER_ONLY RunningMean remote_response;
};

struct FleetResults {
  DMASIM_BARRIER_ONLY std::vector<FleetDomainResults> domains;
  DMASIM_BARRIER_ONLY Tick duration = 0;

  // Fleet-wide aggregates (sums / merges over domains).
  DMASIM_BARRIER_ONLY EnergyBreakdown energy;
  // Locally-served requests.
  DMASIM_BARRIER_ONLY RunningMean client_response;
  // Remote round trips.
  DMASIM_BARRIER_ONLY RunningMean remote_response;
  DMASIM_BARRIER_ONLY std::uint64_t executed_events = 0;
  DMASIM_BARRIER_ONLY std::uint64_t stepped_events = 0;
  DMASIM_BARRIER_ONLY std::uint64_t remote_sent = 0;
  DMASIM_BARRIER_ONLY std::uint64_t remote_served = 0;
  DMASIM_BARRIER_ONLY std::uint64_t remote_completed = 0;

  // Engine outcome.
  DMASIM_BARRIER_ONLY ShardedEngine::Stats engine;
  // Delivered cross-shard messages in delivery order (empty unless
  // FleetOptions::record_deliveries; the golden-replay test pins it).
  DMASIM_BARRIER_ONLY std::vector<ShardMessage> deliveries;
  // Per-window delivery digests (empty unless
  // FleetOptions::record_window_digests). Comparing two runs finds the
  // first mismatching window of a divergence.
  DMASIM_BARRIER_ONLY std::vector<std::uint64_t> window_digests;
  // Shard-protocol audit outcome (zero unless base.audit_level >= 1).
  // Not part of Fingerprint() — auditing must not change the result.
  DMASIM_BARRIER_ONLY std::uint64_t shard_audit_checks = 0;
  DMASIM_BARRIER_ONLY std::uint64_t shard_audit_failures = 0;

  // Order-stable FNV-1a digest of the simulation-visible outcome (event
  // counts, energy, latencies, remote traffic — not wall-clock). Equal
  // fingerprints across `sim_threads` values is the determinism
  // invariant.
  std::uint64_t Fingerprint() const;
};

// Runs the fleet to completion (workload duration + drain).
FleetResults RunFleet(const FleetOptions& options);

}  // namespace dmasim

#endif  // DMASIM_SERVER_FLEET_DRIVER_H_
