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

// Cross-shard message kinds (ShardMessage::kind).
constexpr std::uint32_t kRemoteReadMsg = 1;   // a=page, b=bytes, c=slot.
constexpr std::uint32_t kRemoteReplyMsg = 2;  // c=slot at the requester.

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
    if (shared->remote_threshold > 0) domain.set_remote_reads(this);
  }

  // dmasim-lint: window-context
  bool Forward(const TraceRecord& record, std::uint64_t position) override {
    const int home = HomeOf(*shared, index, position);
    if (home == index) return false;
    std::uint32_t slot;
    if (!free_slots.empty()) {
      slot = free_slots.back();
      free_slots.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slot_issue_time.size());
      slot_issue_time.push_back(0);
    }
    const Tick now = domain.simulator().Now();
    slot_issue_time[slot] = now;
    ++remote_sent;
    shared->engine->Send(
        index, home, now + shared->remote_latency, kRemoteReadMsg, record.page,
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(record.bytes)),
        slot);
    return true;
  }

  // Barrier-time delivery: turns a cross-shard message into an ordinary
  // event in this member's kernel.
  void Handle(const ShardMessage& message) {
    if (message.kind == kRemoteReadMsg) {
      const std::uint64_t page = message.a;
      const std::int64_t bytes = static_cast<std::int64_t>(message.b);
      // Reply route: requesting domain in the high word, its slot below.
      const std::uint64_t route =
          (static_cast<std::uint64_t>(message.src) << 32) | message.c;
      domain.simulator().ScheduleAt(
          message.deliver_at, [this, page, bytes, route]() {
            ++remote_served;
            domain.server().ClientRead(page, bytes, [this, route](Tick end) {
              shared->engine->Send(index, static_cast<int>(route >> 32),
                                   end + shared->remote_latency,
                                   kRemoteReplyMsg, 0, 0,
                                   route & 0xffffffffULL);
            });
          });
      return;
    }
    DMASIM_CHECK_EQ(message.kind, kRemoteReplyMsg);
    const std::uint32_t slot = static_cast<std::uint32_t>(message.c);
    domain.simulator().ScheduleAt(message.deliver_at, [this, slot]() {
      ++remote_completed;
      remote_response.Add(static_cast<double>(domain.simulator().Now() -
                                              slot_issue_time[slot]));
      free_slots.push_back(slot);
    });
  }

  DMASIM_SHARED_CONST int index;
  DMASIM_SHARED_CONST const FleetShared* shared;
  DMASIM_SHARED_CONST FleetDomainSpec spec;
  DMASIM_SHARED_CONST Trace trace;
  // The domain's private simulated system — owned by its shard's worker
  // during a window, by the coordinator at barriers (Handle).
  DMASIM_SHARD_LOCAL Domain domain;

  // Outstanding remote reads this member issued: slot -> issue time.
  // Slots recycle through the free list in deterministic order.
  DMASIM_SHARD_LOCAL std::vector<Tick> slot_issue_time;
  DMASIM_SHARD_LOCAL std::vector<std::uint32_t> free_slots;

  DMASIM_SHARD_LOCAL std::uint64_t remote_sent = 0;
  DMASIM_SHARD_LOCAL std::uint64_t remote_served = 0;
  DMASIM_SHARD_LOCAL std::uint64_t remote_completed = 0;
  DMASIM_SHARD_LOCAL RunningMean remote_response;
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
    engine.AddShard(&member->domain.simulator(),
                    [member](const ShardMessage& message) {
                      member->Handle(message);
                    });
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
    summary.remote_sent = member.remote_sent;
    summary.remote_served = member.remote_served;
    summary.remote_completed = member.remote_completed;
    summary.remote_response = member.remote_response;

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
