// Fleet driver: one simulation spanning many memory-controller domains.
//
// Each domain is a full simulated system — private event kernel, memory
// controller with its chips and buses, data server, workload trace — and
// runs on its own shard of the sharded engine (sim/sharded_engine.h).
// Domains interact only through remote client reads: every request
// belongs to a client stream (a stable hash of its trace position), and
// a configurable fraction of streams are homed on a peer domain. A
// remote-homed read crosses the fleet interconnect, one `remote_latency`
// hop each way, and the peer's data server serves it.
//
// Route, then run. Nothing a domain simulates reaches another domain: a
// read's home depends only on its position in its sender's trace, and it
// reaches the home one hop after its trace time. So RunFleet generates
// every domain's trace, routes each remote-homed read out of its
// sender's trace and into its home's (RouteFleetTraces), and then runs
// each domain as an ordinary `Domain` on its routed trace. No message
// crosses shards: every shard declares the engine send bound "never",
// so the engine runs the whole fleet as one window. A reply changes
// nothing the requester simulates, so it is a record, credited to the
// requester's remote-read counters after the run.
//
// Determinism: RunFleet with the same options produces bit-identical
// results for every `sim_threads` value — routing is serial and depends
// only on the traces, and each domain runs its own kernel in its own
// (time, seq) order. `FleetResults::Fingerprint()` digests the run for
// the pinned-checksum suites.
#ifndef DMASIM_SERVER_FLEET_DRIVER_H_
#define DMASIM_SERVER_FLEET_DRIVER_H_

#include <cstdint>
#include <vector>

#include "server/simulation_driver.h"
#include "sim/sharded_engine.h"
#include "stats/accumulators.h"
#include "trace/trace.h"
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
  // Threads, >= 1; 1 = serial. The engine's window uses at most one per
  // domain and per host core (FleetResults::engine.threads reports how
  // many), and trace generation all but the calling one. Any value is
  // bit-identical.
  DMASIM_SHARED_CONST int sim_threads = 1;

  // Fraction of client streams homed on a remote domain (0 disables
  // cross-domain traffic; forced to 0 when `domains` == 1).
  DMASIM_SHARED_CONST double remote_fraction = 0.05;
  // Client streams per domain; requests hash onto streams, and a
  // stream's home (local or which peer) is a stable function of its id.
  DMASIM_SHARED_CONST std::uint64_t streams_per_domain = 1024;
  // One-way fleet-interconnect hop: a remote-homed read reaches its home
  // this long after its time in the sender's trace, and its reply takes
  // as long back. Must be positive when `domains` > 1.
  DMASIM_SHARED_CONST Tick remote_latency = 20 * kMicrosecond;

  // Engine knobs (see ShardedEngine::Options). The run is one window, so
  // it records one digest, and a fuzz seed permutes the shard order
  // inside that window.
  DMASIM_SHARED_CONST bool record_window_digests = false;
  // Nonzero perturbs worker scheduling; the result must stay
  // bit-identical to seed 0.
  DMASIM_SHARED_CONST std::uint64_t sched_fuzz_seed = 0;
};

// Domain `index`'s workload and options: the fleet's templates, seeded
// from `workload.seed` and the index. RunFleet generates the domain's
// trace from `workload` and builds the domain from `options`, so RunTrace
// on the domain's routed trace and these options reproduces it bit for
// bit.
struct FleetDomainSpec {
  DMASIM_SHARED_CONST WorkloadSpec workload;
  DMASIM_SHARED_CONST SimulationOptions options;
};
FleetDomainSpec MakeFleetDomainSpec(const FleetOptions& options, int index);

// Every domain's generated trace, traces[i] from
// MakeFleetDomainSpec(options, i).workload, generated in parallel on the
// threads the engine's team adds to the calling thread (at least one).
std::vector<Trace> GenerateFleetTraces(const FleetOptions& options);

// A client read that routing moved into its home's trace.
// dmasim-lint: allow(unannotated-member) -- value type, held by the
// RoutedTrace that owns it.
struct RoutedRead {
  std::uint64_t position = 0;  // Index in the home's routed trace.
  int requester = 0;           // The domain that sent it.
};

// One domain's trace after routing.
// dmasim-lint: allow(unannotated-member) -- value type, built before the
// run and read-only to the domain that runs it.
struct RoutedTrace {
  // The domain's own records minus the reads it sent to peers, merged
  // with the reads peers sent to it; time-sorted.
  Trace trace;
  // The routed-in reads, in trace order.
  std::vector<RoutedRead> routed_in;
  // This domain's own reads that were routed to a peer.
  std::uint64_t remote_sent = 0;
};

// Routes every remote-homed client read out of its sender's trace and
// into its home's, where it arrives `remote_latency` after its time in
// the sender's trace. `traces` is GenerateFleetTraces(options) or any
// time-sorted traces, one per domain, and each is routed in place into
// its domain's RoutedTrace, so no unrouted copy outlives routing.
// A read's home depends only on its position in its sender's trace,
// `workload.seed`, `streams_per_domain` and `remote_fraction`; with one
// domain or a zero fraction every trace comes back unchanged.
//
// Same-tick rule: on equal ticks a home's own records come first, and
// its routed-in reads follow in (arrival tick, sender, sender's send
// order).
std::vector<RoutedTrace> RouteFleetTraces(const FleetOptions& options,
                                          std::vector<Trace> traces);

// One domain's outcome: the usual single-system results plus its side of
// the remote-read traffic. Results structs are assembled after the run
// on the coordinator — barrier context, hence DMASIM_BARRIER_ONLY.
struct FleetDomainResults {
  DMASIM_BARRIER_ONLY SimulationResults results;
  // Own reads routed to a peer.
  DMASIM_BARRIER_ONLY std::uint64_t remote_sent = 0;
  // Routed-in reads served by the end of the run.
  DMASIM_BARRIER_ONLY std::uint64_t remote_served = 0;
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

  // Engine outcome: one window, no delivered message.
  DMASIM_BARRIER_ONLY ShardedEngine::Stats engine;
  // The run's window digest (empty unless
  // FleetOptions::record_window_digests). Comparing two runs' digests
  // tells whether they diverged.
  DMASIM_BARRIER_ONLY std::vector<std::uint64_t> window_digests;

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
