#include "server/fleet_driver.h"

#include <bit>
#include <cstddef>
#include <deque>
#include <memory>
#include <utility>

#include "audit/shard_audit.h"
#include "audit/simulation_audit.h"
#include "exp/thread_pool.h"
#include "obs/simulation_obs.h"
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

// One memory-controller domain: a complete simulated system around a
// private kernel, plus its side of the remote-read bookkeeping. Lives in
// a deque (Simulator is neither copyable nor movable).
struct FleetDomain {
  FleetDomain(int domain_index, FleetShared* shared_state)
      : index(domain_index), shared(shared_state) {}

  DMASIM_SHARED_CONST int index;
  DMASIM_SHARED_CONST FleetShared* shared;
  // Everything below is the domain's private simulated system — owned
  // by its shard's worker during a window, by the coordinator at
  // barriers (delivery handlers).
  DMASIM_SHARD_LOCAL Simulator simulator;
  DMASIM_SHARD_LOCAL std::unique_ptr<LowPowerPolicy> policy;
  DMASIM_SHARD_LOCAL std::unique_ptr<MemoryController> controller;
  DMASIM_SHARD_LOCAL std::unique_ptr<DataServer> server;
  DMASIM_SHARD_LOCAL Trace trace;
  DMASIM_SHARD_LOCAL std::size_t cursor = 0;

  // Outstanding remote reads this domain issued: slot -> issue time.
  // Slots recycle through the free list in deterministic order.
  DMASIM_SHARD_LOCAL std::vector<Tick> slot_issue_time;
  DMASIM_SHARD_LOCAL std::vector<std::uint32_t> free_slots;

  DMASIM_SHARD_LOCAL std::uint64_t remote_sent = 0;
  DMASIM_SHARD_LOCAL std::uint64_t remote_served = 0;
  DMASIM_SHARD_LOCAL std::uint64_t remote_completed = 0;
  DMASIM_SHARD_LOCAL RunningMean remote_response;
};

// The stream a trace record belongs to: a stable hash of its position in
// the domain's trace, folded onto the per-domain stream space.
std::uint64_t StreamOf(const FleetShared& shared, int domain,
                       std::uint64_t position) {
  std::uint64_t state = shared.salt ^
                        (static_cast<std::uint64_t>(domain) << 40) ^ position;
  return SplitMix64(state) % shared.stream_count;
}

// The domain a (domain, stream) pair is homed on: itself for local
// streams, a stable peer for remote-homed ones.
int HomeOf(const FleetShared& shared, int domain, std::uint64_t stream) {
  std::uint64_t state = shared.salt ^ 0x5eedULL ^
                        (static_cast<std::uint64_t>(domain) << 32) ^ stream;
  const std::uint64_t hash = SplitMix64(state);
  if ((hash & 0xffffffffULL) >= shared.remote_threshold) return domain;
  const std::uint64_t peer =
      (hash >> 32) % static_cast<std::uint64_t>(shared.domain_count - 1);
  return (domain + 1 + static_cast<int>(peer)) % shared.domain_count;
}

// shardcheck: window-context
void ForwardRemoteRead(FleetDomain* domain, int home,
                       const TraceRecord& record) {
  std::uint32_t slot;
  if (!domain->free_slots.empty()) {
    slot = domain->free_slots.back();
    domain->free_slots.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(domain->slot_issue_time.size());
    domain->slot_issue_time.push_back(0);
  }
  const Tick now = domain->simulator.Now();
  domain->slot_issue_time[slot] = now;
  ++domain->remote_sent;
  domain->shared->engine->Send(
      domain->index, home, now + domain->shared->remote_latency,
      kRemoteReadMsg, record.page,
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(record.bytes)),
      slot);
}

// shardcheck: window-context
void FeedRecord(FleetDomain* domain, const TraceRecord& record,
                std::uint64_t position) {
  switch (record.kind) {
    case TraceEventKind::kClientRead: {
      const FleetShared& shared = *domain->shared;
      if (shared.remote_threshold > 0) {
        const std::uint64_t stream = StreamOf(shared, domain->index, position);
        const int home = HomeOf(shared, domain->index, stream);
        if (home != domain->index) {
          ForwardRemoteRead(domain, home, record);
          return;
        }
      }
      domain->server->ClientRead(record.page, record.bytes);
      return;
    }
    case TraceEventKind::kClientWrite:
      domain->server->ClientWrite(record.page, record.bytes);
      return;
    case TraceEventKind::kCpuAccess:
      domain->server->CpuAccess(record.page, record.bytes);
      return;
  }
}

// Cursor-based feeder, the fleet counterpart of RunTrace's TraceFeeder.
// shardcheck: window-context
void PumpDomain(FleetDomain* domain) {
  while (domain->cursor < domain->trace.size() &&
         domain->trace[domain->cursor].time <= domain->simulator.Now()) {
    const std::uint64_t position = domain->cursor;
    const TraceRecord& record = domain->trace[domain->cursor++];
    FeedRecord(domain, record, position);
  }
  if (domain->cursor < domain->trace.size()) {
    domain->simulator.ScheduleAt(domain->trace[domain->cursor].time,
                                 [domain]() { PumpDomain(domain); });
  }
}

// Barrier-time delivery: turns a cross-shard message into an ordinary
// event in the destination domain's kernel.
void HandleMessage(FleetDomain* domain, const ShardMessage& message) {
  if (message.kind == kRemoteReadMsg) {
    const std::uint64_t page = message.a;
    const std::int64_t bytes = static_cast<std::int64_t>(message.b);
    // Reply route: requesting domain in the high word, its slot below.
    const std::uint64_t route =
        (static_cast<std::uint64_t>(message.src) << 32) | message.c;
    domain->simulator.ScheduleAt(
        message.deliver_at, [domain, page, bytes, route]() {
          ++domain->remote_served;
          domain->server->ClientRead(
              page, bytes, [domain, route](Tick finish) {
                const int requester = static_cast<int>(route >> 32);
                domain->shared->engine->Send(
                    domain->index, requester,
                    finish + domain->shared->remote_latency, kRemoteReplyMsg,
                    0, 0, route & 0xffffffffULL);
              });
        });
    return;
  }
  DMASIM_CHECK_EQ(message.kind, kRemoteReplyMsg);
  const std::uint32_t slot = static_cast<std::uint32_t>(message.c);
  domain->simulator.ScheduleAt(message.deliver_at, [domain, slot]() {
    ++domain->remote_completed;
    domain->remote_response.Add(static_cast<double>(
        domain->simulator.Now() - domain->slot_issue_time[slot]));
    domain->free_slots.push_back(slot);
  });
}

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

FleetResults RunFleet(const FleetOptions& options) {
  DMASIM_EXPECTS(options.domains >= 1);
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

  std::deque<FleetDomain> domains;
  std::vector<std::unique_ptr<SimulationAudit>> audits;
  std::vector<std::unique_ptr<SimulationObserver>> observers;
  for (int i = 0; i < options.domains; ++i) {
    FleetDomain& domain = domains.emplace_back(i, &shared);
    domain.policy = MakePolicy(options.base.policy, options.base.thresholds,
                               options.base.memory);
    domain.controller = std::make_unique<MemoryController>(
        &domain.simulator, options.base.memory, domain.policy.get());

    // Domains are statistically alike but never in lockstep: trace and
    // server randomness derive from the workload seed and the index.
    std::uint64_t seed_state =
        options.workload.seed +
        0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1);
    ServerConfig server_config = options.base.server;
    server_config.request_compute_time = options.workload.request_compute_time;
    server_config.forced_miss_ratio = options.workload.miss_ratio;
    server_config.seed = SplitMix64(seed_state);
    domain.server = std::make_unique<DataServer>(
        &domain.simulator, domain.controller.get(), server_config);

    WorkloadSpec spec = options.workload;
    spec.seed = SplitMix64(seed_state);
    domain.trace = GenerateWorkload(spec);
    if (!domain.trace.empty()) {
      FleetDomain* pumped = &domain;
      domain.simulator.ScheduleAt(domain.trace[0].time,
                                  [pumped]() { PumpDomain(pumped); });
    }

    if (options.base.audit_level >= 1) {
      SimulationAudit::Options audit_options;
      audit_options.level = options.base.audit_level;
      audit_options.period = options.base.audit_period;
      audit_options.mode = options.base.audit_abort
                               ? InvariantAuditor::Mode::kAbort
                               : InvariantAuditor::Mode::kCollect;
      audit_options.reference_model = options.base.audit_reference_model;
      audits.push_back(std::make_unique<SimulationAudit>(
          &domain.simulator, domain.controller.get(), audit_options));
    }

    if (options.base.obs_level >= 1) {
      SimulationObserver::Options obs_options;
      obs_options.level = options.base.obs_level;
      obs_options.trace_capacity = options.base.obs_trace_capacity;
      obs_options.simulator = &domain.simulator;
      // Every domain's observer sees the shared engine, so any domain's
      // metric snapshot carries the fleet-wide window/mailbox counters.
      obs_options.engine = &engine;
      observers.push_back(std::make_unique<SimulationObserver>(
          domain.controller.get(), domain.server.get(), obs_options));
    }

    FleetDomain* handled = &domain;
    engine.AddShard(&domain.simulator,
                    [handled](const ShardMessage& message) {
                      HandleMessage(handled, message);
                    });
  }

  const Tick end = options.workload.duration + options.base.drain;
  if (options.sim_threads != 1 && options.domains > 1) {
    ThreadPool pool(options.sim_threads);
    engine.Run(end, &pool);
  } else {
    engine.Run(end, nullptr);
  }
  for (FleetDomain& domain : domains) domain.simulator.RunUntil(end);

  FleetResults fleet;
  fleet.duration = end;
  for (FleetDomain& domain : domains) {
    FleetDomainResults summary;
    summary.results.workload = options.workload.name;
    summary.results.scheme = SchemeName(options.base.memory) + "/" +
                             PolicyKindName(options.base.policy);
    if (options.base.audit_level >= 1) {
      SimulationAudit& audit = *audits[static_cast<std::size_t>(domain.index)];
      audit.Finish();
      summary.results.audit_checks = audit.auditor().checks_run();
      summary.results.audit_failures = audit.auditor().failures().size();
    }
    CollectRunResults(&domain.simulator, domain.controller.get(),
                      domain.server.get(), &summary.results);
    if (options.base.obs_level >= 1) {
      SimulationObserver& observer =
          *observers[static_cast<std::size_t>(domain.index)];
      observer.Finish();
      summary.results.metrics = observer.SnapshotMetrics();
    }
    summary.remote_sent = domain.remote_sent;
    summary.remote_served = domain.remote_served;
    summary.remote_completed = domain.remote_completed;
    summary.remote_response = domain.remote_response;

    fleet.energy += summary.results.energy;
    fleet.client_response.Merge(summary.results.client_response);
    fleet.remote_response.Merge(summary.remote_response);
    fleet.executed_events += summary.results.executed_events;
    fleet.stepped_events += summary.results.stepped_events;
    fleet.remote_sent += summary.remote_sent;
    fleet.remote_served += summary.remote_served;
    fleet.remote_completed += summary.remote_completed;
    fleet.domains.push_back(std::move(summary));
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
