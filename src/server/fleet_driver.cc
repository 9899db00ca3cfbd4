#include "server/fleet_driver.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <utility>

#include "server/domain.h"
#include "util/fnv.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace dmasim {

namespace {

// How client streams are homed: the per-stream remote-homing
// probability as a 32-bit threshold, the stream space and the salt.
// dmasim-lint: allow(unannotated-member) -- value type, local to routing.
struct StreamHoming {
  std::uint64_t stream_count = 0;
  std::uint64_t remote_threshold = 0;
  int domain_count = 0;
  std::uint64_t salt = 0;
};

StreamHoming HomingFor(const FleetOptions& options) {
  StreamHoming homing;
  homing.stream_count = options.streams_per_domain;
  homing.domain_count = options.domains;
  std::uint64_t salt_state = options.workload.seed;
  homing.salt = SplitMix64(salt_state);
  homing.remote_threshold =
      options.domains > 1
          ? static_cast<std::uint64_t>(options.remote_fraction * 4294967296.0)
          : 0;
  return homing;
}

// The domain a trace record's client stream is homed on: itself for
// local streams, a stable peer for remote-homed ones. The stream is a
// stable hash of the record's position in the domain's trace, folded
// onto the per-domain stream space.
int HomeOf(const StreamHoming& homing, int domain, std::uint64_t position) {
  std::uint64_t state = homing.salt ^
                        (static_cast<std::uint64_t>(domain) << 40) ^ position;
  const std::uint64_t stream = SplitMix64(state) % homing.stream_count;
  state = homing.salt ^ 0x5eedULL ^
          (static_cast<std::uint64_t>(domain) << 32) ^ stream;
  const std::uint64_t hash = SplitMix64(state);
  if ((hash & 0xffffffffULL) >= homing.remote_threshold) return domain;
  const std::uint64_t peer =
      (hash >> 32) % static_cast<std::uint64_t>(homing.domain_count - 1);
  return (domain + 1 + static_cast<int>(peer)) % homing.domain_count;
}

// Threads for a fleet's trace generation and its engine window: more
// than one per domain finds no work, and more than one per core only
// takes turns on a core.
int FleetThreads(const FleetOptions& options) {
  DMASIM_EXPECTS(options.sim_threads >= 1);
  return std::min({options.sim_threads, ThreadPool::HardwareThreads(),
                   std::max(1, options.domains)});
}

// A read on its way to its home: the record at its arrival tick.
// dmasim-lint: allow(unannotated-member) -- value type, local to routing.
struct InFlightRead {
  TraceRecord record;
  int sender = 0;
};

// One fleet member: a Domain on its routed trace, the workload and
// options the domain borrows, and the reads it serves for peers. Lives
// in a deque (Domain is neither copyable nor movable).
struct FleetMember final : RoutedReads {
  FleetMember(FleetDomainSpec domain_spec, RoutedTrace routed_trace,
              const ShardedEngine* engine)
      : spec(std::move(domain_spec)),
        routed(std::move(routed_trace)),
        finished_at(routed.routed_in.size(), Simulator::kNoPendingEvent),
        domain(spec.options, spec.workload.miss_ratio, routed.trace, engine) {
    if (!routed.routed_in.empty()) domain.set_routed_reads(this);
  }

  // The feeder reaches the routed-in reads in trace order, so comparing
  // positions with the next one finds each.
  // dmasim-lint: window-context
  bool Serve(const TraceRecord& record, std::uint64_t position) override {
    if (next_routed == routed.routed_in.size() ||
        routed.routed_in[next_routed].position != position) {
      return false;
    }
    const std::size_t read = next_routed++;
    domain.server().ClientRead(record.page, record.bytes,
                               [this, read](Tick finish) {
                                 finished_at[read] = finish;
                               });
    return true;
  }

  DMASIM_SHARED_CONST FleetDomainSpec spec;
  DMASIM_SHARED_CONST RoutedTrace routed;
  // When each routed-in read finished, by routed-in index;
  // kNoPendingEvent until then. Its reply reaches the requester one hop
  // later.
  DMASIM_SHARD_LOCAL std::vector<Tick> finished_at;
  // The routed-in reads the feeder has reached.
  DMASIM_SHARD_LOCAL std::size_t next_routed = 0;
  // The domain's private simulated system — owned by its shard's worker
  // during the window, by the coordinator before and after.
  DMASIM_SHARD_LOCAL Domain domain;
};

std::uint64_t Bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

}  // namespace

std::uint64_t FleetResults::Fingerprint() const {
  Fnv1a hash;
  hash.MixU64(domains.size());
  hash.MixU64(static_cast<std::uint64_t>(duration));
  for (const FleetDomainResults& domain : domains) {
    const SimulationResults& r = domain.results;
    hash.MixU64(r.executed_events);
    hash.MixU64(r.stepped_events);
    for (int bucket = 0; bucket < kEnergyBucketCount; ++bucket) {
      hash.MixU64(
          Bits(r.energy.Of(static_cast<EnergyBucket>(bucket)).joules()));
    }
    hash.MixU64(r.client_response.Count());
    hash.MixU64(Bits(r.client_response.Sum()));
    hash.MixU64(Bits(r.transfer_latency.Sum()));
    hash.MixU64(r.controller.transfers_completed);
    hash.MixU64(r.server.reads);
    hash.MixU64(r.server.misses);
    hash.MixU64(r.gated_requests);
    hash.MixU64(domain.remote_sent);
    hash.MixU64(domain.remote_served);
    hash.MixU64(domain.remote_completed);
    hash.MixU64(domain.remote_response.Count());
    hash.MixU64(Bits(domain.remote_response.Sum()));
  }
  hash.MixU64(engine.windows);
  hash.MixU64(engine.delivered_messages);
  return hash.hash();
}

FleetDomainSpec MakeFleetDomainSpec(const FleetOptions& options, int index) {
  // Domains are statistically alike but never in lockstep: trace and
  // server randomness derive from the workload seed and the index.
  std::uint64_t seed_state =
      options.workload.seed +
      0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(index + 1);
  FleetDomainSpec spec{options.workload, options.base};
  spec.options.server.request_compute_time =
      options.workload.request_compute_time;
  spec.options.server.seed = SplitMix64(seed_state);
  spec.workload.seed = SplitMix64(seed_state);
  return spec;
}

std::vector<RoutedTrace> RouteFleetTraces(const FleetOptions& options,
                                          std::vector<Trace> traces) {
  DMASIM_EXPECTS(traces.size() == static_cast<std::size_t>(options.domains));
  const StreamHoming homing = HomingFor(options);
  std::vector<RoutedTrace> routed(traces.size());

  // One pass per trace takes its remote-homed reads out, in place.
  // Senders go in index order, each in send order, so a stable sort on
  // the arrival tick puts every home's reads in (arrival tick, sender,
  // send order).
  std::vector<std::vector<InFlightRead>> arriving(traces.size());
  for (std::size_t sender = 0; sender < traces.size(); ++sender) {
    Trace& trace = traces[sender];
    std::size_t kept = 0;
    for (std::uint64_t position = 0; position < trace.size(); ++position) {
      const TraceRecord& record = trace[position];
      const int home =
          record.kind == TraceEventKind::kClientRead
              ? HomeOf(homing, static_cast<int>(sender), position)
              : static_cast<int>(sender);
      if (home == static_cast<int>(sender)) {
        trace[kept++] = record;
        continue;
      }
      InFlightRead read{record, static_cast<int>(sender)};
      read.record.time += options.remote_latency;
      arriving[static_cast<std::size_t>(home)].push_back(read);
    }
    routed[sender].remote_sent = trace.size() - kept;
    trace.resize(kept);
  }

  // Each home's reads merge into its trace from the back, so its records
  // move once and no second trace exists. On equal ticks the read goes
  // behind the home's own record.
  for (std::size_t home = 0; home < traces.size(); ++home) {
    std::vector<InFlightRead>& reads = arriving[home];
    std::stable_sort(reads.begin(), reads.end(),
                     [](const InFlightRead& a, const InFlightRead& b) {
                       return a.record.time < b.record.time;
                     });
    Trace& trace = traces[home];
    std::vector<RoutedRead>& routed_in = routed[home].routed_in;
    routed_in.resize(reads.size());
    std::size_t own = trace.size();
    std::size_t read = reads.size();
    trace.resize(own + read);
    for (std::size_t slot = trace.size(); read > 0;) {
      --slot;
      if (own > 0 && trace[own - 1].time > reads[read - 1].record.time) {
        trace[slot] = trace[--own];
      } else {
        --read;
        trace[slot] = reads[read].record;
        routed_in[read] = RoutedRead{slot, reads[read].sender};
      }
    }
    routed[home].trace = std::move(trace);
  }
  return routed;
}

std::vector<Trace> GenerateFleetTraces(const FleetOptions& options) {
  DMASIM_EXPECTS(options.domains >= 1);
  std::vector<Trace> traces(static_cast<std::size_t>(options.domains));
  // As many workers as the engine's team adds to the calling thread, so
  // the team's threads reuse the pool's malloc arenas. One worker more
  // left one more arena holding each run's memory and raised the
  // benchmark fleet's median peak RSS 4.7% (4-vCPU VM, glibc malloc).
  ThreadPool pool(std::max(1, FleetThreads(options) - 1));
  for (int i = 0; i < options.domains; ++i) {
    pool.Submit([&options, &traces, i]() {
      traces[static_cast<std::size_t>(i)] =
          GenerateWorkload(MakeFleetDomainSpec(options, i).workload);
    });
  }
  pool.Wait();
  return traces;
}

FleetResults RunFleet(const FleetOptions& options) {
  DMASIM_EXPECTS(options.domains >= 1);
  DMASIM_EXPECTS(options.sim_threads >= 1);
  DMASIM_EXPECTS(options.streams_per_domain > 0);
  DMASIM_EXPECTS(options.remote_fraction >= 0.0 &&
                 options.remote_fraction <= 1.0);
  if (options.domains > 1) DMASIM_EXPECTS(options.remote_latency > 0);

  // Only the traces generate in parallel; the domains are built below,
  // on this thread. Building whole domains on the workers raised the
  // benchmark fleet's peak RSS from about 60 to about 70 MiB (4-vCPU
  // VM).
  std::vector<RoutedTrace> routed =
      RouteFleetTraces(options, GenerateFleetTraces(options));

  // Every shard's send bound is "never", so the run is one window. The
  // engine still requires a positive lookahead with more than one shard;
  // it bounds only shards that declare no bound, and there are none.
  ShardedEngine::Options engine_options;
  engine_options.lookahead = 1;
  engine_options.record_window_digests = options.record_window_digests;
  engine_options.sched_fuzz_seed = options.sched_fuzz_seed;
  ShardedEngine engine(engine_options);

  std::deque<FleetMember> members;
  for (int i = 0; i < options.domains; ++i) {
    FleetMember* member = &members.emplace_back(
        MakeFleetDomainSpec(options, i),
        std::move(routed[static_cast<std::size_t>(i)]), &engine);
    engine.AddShard(
        &member->domain.simulator(),
        [](const ShardMessage&) {
          DMASIM_CHECK_MSG(false, "a fleet member received a message");
        },
        []() { return Simulator::kNoPendingEvent; });
  }

  const Tick end = options.workload.duration + options.base.drain;
  engine.Run(end, FleetThreads(options));
  for (FleetMember& member : members) member.domain.simulator().RunUntil(end);

  FleetResults fleet;
  fleet.duration = end;
  for (FleetMember& member : members) {
    FleetDomainResults& summary = fleet.domains.emplace_back();
    summary.results = member.domain.Collect(options.workload.name);
    summary.remote_sent = member.routed.remote_sent;
    summary.remote_served = member.next_routed;
  }
  // Each requester gets the replies that reach it by `end`, one hop after
  // their reads were served. Response times are whole ticks, so their
  // sums are exact in any order (below 2^53 ticks).
  for (const FleetMember& member : members) {
    for (std::size_t read = 0; read < member.next_routed; ++read) {
      const Tick finish = member.finished_at[read];
      if (finish == Simulator::kNoPendingEvent) continue;  // Still serving.
      const Tick reply_at = finish + options.remote_latency;
      if (reply_at > end) continue;
      const RoutedRead& routed_read = member.routed.routed_in[read];
      const Tick sent_at = member.routed.trace[routed_read.position].time -
                           options.remote_latency;
      FleetDomainResults& requester =
          fleet.domains[static_cast<std::size_t>(routed_read.requester)];
      ++requester.remote_completed;
      requester.remote_response.Add(static_cast<double>(reply_at - sent_at));
    }
  }
  for (const FleetDomainResults& summary : fleet.domains) {
    fleet.energy += summary.results.energy;
    fleet.client_response.Merge(summary.results.client_response);
    fleet.remote_response.Merge(summary.remote_response);
    fleet.executed_events += summary.results.executed_events;
    fleet.stepped_events += summary.results.stepped_events;
    fleet.remote_sent += summary.remote_sent;
    fleet.remote_served += summary.remote_served;
    fleet.remote_completed += summary.remote_completed;
  }
  fleet.engine = engine.stats();
  if (options.record_window_digests) {
    fleet.window_digests = engine.window_digests();
  }
  return fleet;
}

}  // namespace dmasim
