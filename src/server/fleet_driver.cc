#include "server/fleet_driver.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <memory>
#include <thread>

#include "audit/shard_audit.h"
#include "server/domain.h"
#include "util/fnv.h"
#include "util/random.h"

namespace dmasim {

namespace {

// The one cross-shard message kind (ShardMessage::kind): a remote client
// read, a=page, b=bytes.
constexpr std::uint32_t kRemoteReadMsg = 1;

// Set up before the engine runs, read-only to every worker after.
struct FleetShared {
  DMASIM_SHARED_CONST ShardedEngine* engine = nullptr;
  DMASIM_SHARED_CONST Tick remote_latency = 0;
  DMASIM_SHARED_CONST std::uint64_t stream_count = 0;
  // Per-stream remote-homing probability as a 32-bit threshold.
  DMASIM_SHARED_CONST std::uint64_t remote_threshold = 0;
  DMASIM_SHARED_CONST int domain_count = 0;
  DMASIM_SHARED_CONST std::uint64_t salt = 0;
};

// The domain a trace record's client stream is homed on: itself for
// local streams, a stable peer for remote-homed ones. The stream is a
// stable hash of the record's position in the domain's trace, folded
// onto the per-domain stream space.
int HomeOf(const FleetShared& shared, int domain, std::uint64_t position) {
  std::uint64_t state = shared.salt ^
                        (static_cast<std::uint64_t>(domain) << 40) ^ position;
  const std::uint64_t stream = SplitMix64(state) % shared.stream_count;
  state = shared.salt ^ 0x5eedULL ^
          (static_cast<std::uint64_t>(domain) << 32) ^ stream;
  const std::uint64_t hash = SplitMix64(state);
  if ((hash & 0xffffffffULL) >= shared.remote_threshold) return domain;
  const std::uint64_t peer =
      (hash >> 32) % static_cast<std::uint64_t>(shared.domain_count - 1);
  return (domain + 1 + static_cast<int>(peer)) % shared.domain_count;
}

// A client read in a member's trace whose stream is homed on `home`.
// dmasim-lint: allow(unannotated-member) -- value type, stored in the
// member's annotated remote_reads.
struct RemoteRead {
  std::uint64_t position = 0;
  int home = 0;
};

// A peer's remote read that this member served. The reply would reach
// the requester at `reply_at` (never while the read is still being
// served); the requester sent the read at `sent_at`.
// dmasim-lint: allow(unannotated-member) -- value type, stored in the
// member's annotated served_reads.
struct ServedRead {
  Tick reply_at = Simulator::kNoPendingEvent;
  Tick sent_at = 0;
  int requester = 0;
};

// One fleet member: a Domain on its own engine shard, the workload and
// options the domain borrows, and the member's side of the remote-read
// traffic. Lives in a deque (Domain is neither copyable nor movable).
struct FleetMember final : RemoteReads {
  FleetMember(const FleetOptions& options, int member_index,
              const FleetShared* shared_state)
      : index(member_index),
        shared(shared_state),
        spec(MakeFleetDomainSpec(options, member_index)),
        trace(GenerateWorkload(spec.workload)),
        domain(spec.options, spec.workload.miss_ratio, trace,
               shared_state->engine) {
    if (shared->remote_threshold == 0) return;
    // A read's home depends only on its position, so one pass over the
    // trace finds every read this member will forward.
    for (std::uint64_t position = 0; position < trace.size(); ++position) {
      if (trace[position].kind != TraceEventKind::kClientRead) continue;
      const int home = HomeOf(*shared, index, position);
      if (home != index) remote_reads.push_back(RemoteRead{position, home});
    }
    if (!remote_reads.empty()) domain.set_remote_reads(this);
  }

  // dmasim-lint: window-context
  bool Forward(const TraceRecord& record, std::uint64_t position) override {
    if (next_remote == remote_reads.size() ||
        remote_reads[next_remote].position != position) {
      return false;
    }
    const int home = remote_reads[next_remote++].home;
    shared->engine->Send(
        index, home, domain.simulator().Now() + shared->remote_latency,
        kRemoteReadMsg, record.page,
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(record.bytes)),
        0);
    return true;
  }

  // The engine's send bound: the feeder forwards each record at its own
  // time, and forwarding is the only way a member sends, so no message
  // can leave before the next remote-homed record's time plus the hop.
  Tick SendBound() const {
    if (next_remote == remote_reads.size()) {
      return Simulator::kNoPendingEvent;
    }
    return trace[remote_reads[next_remote].position].time +
           shared->remote_latency;
  }

  // Barrier-time delivery: turns a peer's remote read into an ordinary
  // event in this member's kernel. Its reply is bookkeeping, not a
  // message: it would only bump the requester's counters, which no
  // simulated hardware reads, so the read's reply time is recorded here
  // and RunFleet credits the requester after the run.
  void Handle(const ShardMessage& message) {
    DMASIM_CHECK_EQ(message.kind, kRemoteReadMsg);
    const std::uint64_t page = message.a;
    const std::int64_t bytes = static_cast<std::int64_t>(message.b);
    const int requester = static_cast<int>(message.src);
    domain.simulator().ScheduleAt(
        message.deliver_at, [this, page, bytes, requester]() {
          const std::size_t read = served_reads.size();
          served_reads.push_back(ServedRead{
              Simulator::kNoPendingEvent,
              domain.simulator().Now() - shared->remote_latency, requester});
          domain.server().ClientRead(page, bytes, [this, read](Tick end) {
            served_reads[read].reply_at = end + shared->remote_latency;
          });
        });
  }

  DMASIM_SHARED_CONST int index;
  DMASIM_SHARED_CONST const FleetShared* shared;
  DMASIM_SHARED_CONST FleetDomainSpec spec;
  DMASIM_SHARED_CONST Trace trace;
  // The domain's private simulated system — owned by its shard's worker
  // during a window, by the coordinator at barriers (Handle).
  DMASIM_SHARD_LOCAL Domain domain;

  // This member's remote-homed client reads in trace order, found at
  // construction, and the next one the feeder will reach: the reads
  // before it are the ones it sent.
  DMASIM_SHARED_CONST std::vector<RemoteRead> remote_reads;
  DMASIM_SHARD_LOCAL std::size_t next_remote = 0;
  // Peers' reads this member served, in arrival order.
  DMASIM_SHARD_LOCAL std::vector<ServedRead> served_reads;
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

FleetResults RunFleet(const FleetOptions& options) {
  DMASIM_EXPECTS(options.domains >= 1);
  DMASIM_EXPECTS(options.sim_threads >= 1);
  DMASIM_EXPECTS(options.streams_per_domain > 0);
  DMASIM_EXPECTS(options.remote_fraction >= 0.0 &&
                 options.remote_fraction <= 1.0);
  if (options.domains > 1) DMASIM_EXPECTS(options.remote_latency > 0);

  FleetShared shared;
  shared.remote_latency = options.remote_latency;
  shared.stream_count = options.streams_per_domain;
  shared.domain_count = options.domains;
  std::uint64_t salt_state = options.workload.seed;
  shared.salt = SplitMix64(salt_state);
  shared.remote_threshold =
      options.domains > 1
          ? static_cast<std::uint64_t>(options.remote_fraction * 4294967296.0)
          : 0;

  ShardedEngine::Options engine_options;
  engine_options.lookahead = options.remote_latency;
  engine_options.mailbox_capacity = options.mailbox_capacity;
  engine_options.record_deliveries = options.record_deliveries;
  engine_options.record_window_digests = options.record_window_digests;
  engine_options.fault = options.engine_fault;
  engine_options.sched_fuzz_seed = options.sched_fuzz_seed;
  std::unique_ptr<ShardAudit> shard_audit;
  if (options.base.audit_level >= 1) {
    shard_audit = std::make_unique<ShardAudit>(
        options.base.audit_abort ? InvariantAuditor::Mode::kAbort
                                 : InvariantAuditor::Mode::kCollect);
    engine_options.hooks = shard_audit.get();
  }
  ShardedEngine engine(engine_options);
  shared.engine = &engine;

  std::deque<FleetMember> members;
  for (int i = 0; i < options.domains; ++i) {
    FleetMember* member = &members.emplace_back(options, i, &shared);
    engine.AddShard(
        &member->domain.simulator(),
        [member](const ShardMessage& message) { member->Handle(message); },
        [member]() { return member->SendBound(); });
  }

  const Tick end = options.workload.duration + options.base.drain;
  // More members than cores only makes them take turns on a core: the
  // team never runs more threads than the host has.
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  engine.Run(end, std::min(options.sim_threads, cores));
  for (FleetMember& member : members) member.domain.simulator().RunUntil(end);

  FleetResults fleet;
  fleet.duration = end;
  for (FleetMember& member : members) {
    FleetDomainResults& summary = fleet.domains.emplace_back();
    summary.results = member.domain.Collect(options.workload.name);
    summary.remote_sent = member.next_remote;
    summary.remote_served = member.served_reads.size();
  }
  // Each requester gets the replies that reach it by `end`, one hop after
  // their reads were served. Response times are whole ticks, so their
  // sums are exact in any order (below 2^53 ticks).
  for (const FleetMember& member : members) {
    for (const ServedRead& read : member.served_reads) {
      if (read.reply_at > end) continue;
      FleetDomainResults& requester =
          fleet.domains[static_cast<std::size_t>(read.requester)];
      ++requester.remote_completed;
      requester.remote_response.Add(
          static_cast<double>(read.reply_at - read.sent_at));
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
  if (options.record_deliveries) fleet.deliveries = engine.deliveries();
  if (options.record_window_digests) {
    fleet.window_digests = engine.window_digests();
  }
  if (shard_audit != nullptr) {
    fleet.shard_audit_checks = shard_audit->checks_run();
    fleet.shard_audit_failures = shard_audit->auditor().failures().size();
  }
  return fleet;
}

}  // namespace dmasim
