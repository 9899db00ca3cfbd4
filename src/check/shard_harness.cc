#include "check/shard_harness.h"

#include <algorithm>
#include <deque>
#include <fstream>
#include <set>
#include <sstream>

#include "audit/shard_audit.h"
#include "check/minimizer.h"
#include "util/check.h"
#include "util/fnv.h"

namespace dmasim::check {

namespace {

constexpr std::uint32_t kRelayMsg = 1;
constexpr const char* kConvergenceProperty = "shard.fingerprint-convergence";

void ValidateConfig(const ShardCheckConfig& config) {
  DMASIM_EXPECTS(config.shards >= kMinCheckShards &&
                 config.shards <= kMaxCheckShards);
  DMASIM_EXPECTS(config.events_per_shard >= 1 &&
                 config.events_per_shard <= kMaxCheckShardEvents);
  DMASIM_EXPECTS(config.max_hops >= 1 && config.max_hops <= kMaxCheckShardHops);
  DMASIM_EXPECTS(config.lookahead > 0);
  DMASIM_EXPECTS(config.max_choice_windows >= 0 &&
                 config.max_choice_windows <= kMaxCheckShardWindows);
}

// One executed scenario event, the unit of the run fingerprint. Order
// within a shard is the kernel's execution order, so any
// delivery-order-dependent tie-break shows up here.
struct LogEntry {
  Tick time = 0;
  std::uint32_t shard = 0;
  std::uint32_t origin = 0;
  std::uint32_t hop = 0;
  std::uint32_t tag = 0;
};

// The scenario: every shard runs the same timeline — `events_per_shard`
// seed events at one tick — and every event broadcasts to all other
// shards one lookahead ahead, `max_hops` deep. Identical timelines make
// cross-shard messages from different sources collide on
// (deliver_at, dst), so only the barrier sort keeps tie-breaks (and the
// fingerprint) independent of the drain order.
class ShardScenario;

// Drain-order script + audit forwarding, attached as the engine's
// BarrierHooks. All calls are coordinator-side.
class ScriptedHooks : public BarrierHooks {
 public:
  ScriptedHooks(ShardAudit* audit, const ShardTrace* perms, int shards)
      : audit_(audit), perms_(perms), shards_(shards) {}

  void OnWindowStart(std::uint64_t window, Tick horizon) override {
    audit_->OnWindowStart(window, horizon);
  }

  void OnBarrier(std::uint64_t window,
                 std::vector<int>* drain_order) override {
    audit_->OnBarrier(window, drain_order);
    ++barriers_;
    if (window < perms_->size()) {
      const int index = (*perms_)[window];
      DMASIM_EXPECTS(index >= 0 && index < ShardPermutationCount(shards_));
      if (index != 0) {
        NthShardPermutation(shards_, index, &scratch_);
        *drain_order = scratch_;
      }
    }
  }

  void OnDrained(const ShardMessage& message) override {
    audit_->OnDrained(message);
  }

  void OnDeliver(const ShardMessage& message) override {
    audit_->OnDeliver(message);
  }

  std::uint64_t barriers() const { return barriers_; }

 private:
  ShardAudit* audit_;
  const ShardTrace* perms_;
  int shards_;
  std::uint64_t barriers_ = 0;
  std::vector<int> scratch_;
};

class ShardScenario {
 public:
  ShardScenario(const ShardCheckConfig& config, BarrierHooks* hooks)
      : config_(config), engine_(EngineOptionsFor(config, hooks)) {
    for (int s = 0; s < config.shards; ++s) {
      simulators_.emplace_back();
      logs_.emplace_back();
    }
    for (int s = 0; s < config.shards; ++s) {
      ShardScenario* self = this;
      const int dst = s;
      engine_.AddShard(&simulators_[static_cast<std::size_t>(s)],
                       [self, dst](const ShardMessage& message) {
                         self->HandleMessage(dst, message);
                       });
    }
    for (int s = 0; s < config.shards; ++s) {
      for (int e = 0; e < config.events_per_shard; ++e) {
        ScheduleEvent(s, kSeedTime, static_cast<std::uint32_t>(s), 0,
                      static_cast<std::uint32_t>(e));
      }
    }
  }

  void Run() { engine_.Run(kRunUntil, /*threads=*/1); }

  std::uint64_t Fingerprint() const {
    Fnv1a hash;
    for (int s = 0; s < config_.shards; ++s) {
      const std::vector<LogEntry>& log = logs_[static_cast<std::size_t>(s)];
      hash.MixU64(log.size());
      for (const LogEntry& entry : log) {
        hash.MixU64(static_cast<std::uint64_t>(entry.time));
        hash.MixU64((static_cast<std::uint64_t>(entry.shard) << 32) |
                    entry.origin);
        hash.MixU64((static_cast<std::uint64_t>(entry.hop) << 32) |
                    entry.tag);
      }
    }
    for (const ShardMessage& message : engine_.deliveries()) {
      hash.MixU64(static_cast<std::uint64_t>(message.deliver_at));
      hash.MixU64(message.send_seq);
      hash.MixU64(message.a);
      hash.MixU64(message.b);
      hash.MixU64(message.c);
      hash.MixU64((static_cast<std::uint64_t>(message.src) << 32) |
                  message.dst);
    }
    hash.MixU64(engine_.stats().windows);
    hash.MixU64(engine_.stats().delivered_messages);
    return hash.hash();
  }

  const ShardedEngine& engine() const { return engine_; }

  std::uint64_t executed_events() const {
    std::uint64_t total = 0;
    for (const Simulator& sim : simulators_) total += sim.ExecutedEvents();
    return total;
  }

 private:
  static constexpr Tick kSeedTime = 10;
  static constexpr Tick kRunUntil = Tick{1} << 40;

  static ShardedEngine::Options EngineOptionsFor(const ShardCheckConfig& config,
                                                 BarrierHooks* hooks) {
    ShardedEngine::Options options;
    options.lookahead = config.lookahead;
    options.record_deliveries = true;
    options.record_window_digests = true;
    options.fault = config.fault;
    options.hooks = hooks;
    return options;
  }

  void ScheduleEvent(int shard, Tick at, std::uint32_t origin,
                     std::uint32_t hop, std::uint32_t tag) {
    ShardScenario* self = this;
    simulators_[static_cast<std::size_t>(shard)].ScheduleAt(
        at, [self, shard, origin, hop, tag]() {
          self->OnEvent(shard, origin, hop, tag);
        });
  }

  void OnEvent(int shard, std::uint32_t origin, std::uint32_t hop,
               std::uint32_t tag) {
    Simulator& sim = simulators_[static_cast<std::size_t>(shard)];
    logs_[static_cast<std::size_t>(shard)].push_back(
        LogEntry{sim.Now(), static_cast<std::uint32_t>(shard), origin, hop,
                 tag});
    if (hop >= static_cast<std::uint32_t>(config_.max_hops)) return;
    for (int dst = 0; dst < config_.shards; ++dst) {
      if (dst == shard) continue;
      engine_.Send(shard, dst, sim.Now() + config_.lookahead, kRelayMsg,
                   origin, hop + 1, tag);
    }
  }

  void HandleMessage(int shard, const ShardMessage& message) {
    DMASIM_CHECK_EQ(message.kind, kRelayMsg);
    Simulator& sim = simulators_[static_cast<std::size_t>(shard)];
    // Under the deliver-early fault the delivery may be addressed into
    // time the destination already executed; clamp so the kernel's
    // `when >= Now()` contract holds and the run completes for the
    // audit to report on.
    const Tick at = std::max(message.deliver_at, sim.Now());
    ScheduleEvent(shard, at, static_cast<std::uint32_t>(message.a),
                  static_cast<std::uint32_t>(message.b),
                  static_cast<std::uint32_t>(message.c));
  }

  ShardCheckConfig config_;
  std::deque<Simulator> simulators_;  // Stable addresses.
  std::vector<std::vector<LogEntry>> logs_;
  ShardedEngine engine_;
};

}  // namespace

int ShardPermutationCount(int shards) {
  int count = 1;
  for (int i = 2; i <= shards; ++i) count *= i;
  return count;
}

void NthShardPermutation(int shards, int index, std::vector<int>* out) {
  DMASIM_EXPECTS(index >= 0 && index < ShardPermutationCount(shards));
  out->clear();
  std::vector<int> pool;
  for (int i = 0; i < shards; ++i) pool.push_back(i);
  int radix = ShardPermutationCount(shards);
  for (int slot = shards; slot >= 1; --slot) {
    radix /= slot;
    const int pick = index / radix;
    index %= radix;
    out->push_back(pool[static_cast<std::size_t>(pick)]);
    pool.erase(pool.begin() + pick);
  }
}

ShardRunOutcome RunShardScenario(const ShardCheckConfig& config,
                                 const ShardTrace& perms) {
  ValidateConfig(config);
  ShardAudit audit(InvariantAuditor::Mode::kCollect);
  ScriptedHooks hooks(&audit, &perms, config.shards);
  ShardScenario scenario(config, &hooks);
  scenario.Run();

  ShardRunOutcome outcome;
  outcome.fingerprint = scenario.Fingerprint();
  outcome.window_digests = scenario.engine().window_digests();
  outcome.barriers = hooks.barriers();
  outcome.delivered_messages = scenario.engine().stats().delivered_messages;
  outcome.executed_events = scenario.executed_events();
  if (!audit.auditor().failures().empty()) {
    outcome.violation = true;
    outcome.property = audit.auditor().failures().front().invariant;
    outcome.message = audit.auditor().failures().front().message;
  }
  return outcome;
}

namespace {

// First window whose digest differs (or the shorter length).
std::size_t FirstDivergentWindow(const std::vector<std::uint64_t>& a,
                                 const std::vector<std::uint64_t>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return i;
  }
  return n;
}

std::string DivergenceMessage(const ShardRunOutcome& canonical,
                              const ShardRunOutcome& run) {
  std::ostringstream text;
  text << "fingerprint " << std::hex << run.fingerprint
       << " != canonical " << canonical.fingerprint << std::dec
       << "; first divergent window "
       << FirstDivergentWindow(canonical.window_digests, run.window_digests);
  return text.str();
}

}  // namespace

ShardExploreResult ExploreShardInterleavings(const ShardCheckConfig& config) {
  ValidateConfig(config);
  ShardExploreResult result;

  const ShardRunOutcome canonical = RunShardScenario(config, {});
  result.stats.runs = 1;
  result.stats.barriers = canonical.barriers;
  result.canonical_fingerprint = canonical.fingerprint;
  std::set<std::uint64_t> fingerprints;
  fingerprints.insert(canonical.fingerprint);
  if (canonical.violation) {
    result.violation_found = true;
    result.violation.property = canonical.property;
    result.violation.message = canonical.message;
    result.stats.distinct_fingerprints = fingerprints.size();
    return result;
  }

  const std::uint64_t choice_windows =
      std::min<std::uint64_t>(canonical.barriers,
                              static_cast<std::uint64_t>(
                                  config.max_choice_windows));
  result.stats.choice_windows = choice_windows;
  const int perm_count = ShardPermutationCount(config.shards);

  // Odometer over all drain-order sequences; 0 is the canonical run.
  ShardTrace perms(static_cast<std::size_t>(choice_windows), 0);
  while (true) {
    // Increment (window 0 is the most significant digit).
    std::size_t digit = perms.size();
    while (digit > 0) {
      --digit;
      if (++perms[digit] < perm_count) break;
      perms[digit] = 0;
      if (digit == 0) {
        result.stats.distinct_fingerprints = fingerprints.size();
        return result;  // Wrapped: enumeration complete, no violation.
      }
    }
    if (perms.empty()) {
      result.stats.distinct_fingerprints = fingerprints.size();
      return result;  // No choices to enumerate.
    }

    const ShardRunOutcome run = RunShardScenario(config, perms);
    ++result.stats.runs;
    fingerprints.insert(run.fingerprint);
    if (run.violation) {
      result.violation_found = true;
      result.violation.property = run.property;
      result.violation.message = run.message;
      result.violation.perms = perms;
      result.stats.distinct_fingerprints = fingerprints.size();
      return result;
    }
    if (run.fingerprint != canonical.fingerprint) {
      result.violation_found = true;
      result.violation.property = kConvergenceProperty;
      result.violation.message = DivergenceMessage(canonical, run);
      result.violation.perms = perms;
      result.stats.distinct_fingerprints = fingerprints.size();
      return result;
    }
  }
}

bool ShardTraceReproduces(const ShardCheckConfig& config,
                          const ShardTrace& perms,
                          const std::string& property) {
  const ShardRunOutcome run = RunShardScenario(config, perms);
  if (run.violation) {
    return property.empty() || run.property == property;
  }
  if (property.empty() || property == kConvergenceProperty) {
    const ShardRunOutcome canonical = RunShardScenario(config, {});
    return !canonical.violation &&
           run.fingerprint != canonical.fingerprint;
  }
  return false;
}

ShardTrace MinimizeShardTrace(const ShardCheckConfig& config,
                              const ShardTrace& perms,
                              const std::string& property) {
  DMASIM_EXPECTS(ShardTraceReproduces(config, perms, property));
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < perms.size(); ++i) {
    if (perms[i] != 0) active.push_back(i);
  }
  // Keeps the non-identity choices at `kept` (indices into `active`) and
  // resets the rest to identity, so remaining choices keep their barrier
  // positions; trailing identity choices are implied and trimmed.
  const auto keep_only = [&](const std::vector<std::size_t>& kept) {
    ShardTrace candidate(perms.size(), 0);
    for (const std::size_t k : kept) candidate[active[k]] = perms[active[k]];
    while (!candidate.empty() && candidate.back() == 0) candidate.pop_back();
    return candidate;
  };
  return keep_only(MinimizeIndices(
      active.size(), [&](const std::vector<std::size_t>& kept) {
        return ShardTraceReproduces(config, keep_only(kept), property);
      }));
}

namespace {

std::string SingleLine(const std::string& text) {
  std::string out = text;
  std::replace(out.begin(), out.end(), '\n', ' ');
  return out;
}

}  // namespace

std::string FormatShardCounterexample(const ShardCounterexample& ce) {
  std::ostringstream out;
  out << "dmasim-shard-counterexample v1\n";
  out << "shards " << ce.config.shards << "\n";
  out << "events-per-shard " << ce.config.events_per_shard << "\n";
  out << "max-hops " << ce.config.max_hops << "\n";
  out << "lookahead " << ce.config.lookahead << "\n";
  out << "max-choice-windows " << ce.config.max_choice_windows << "\n";
  out << "fault " << EngineFaultName(ce.config.fault) << "\n";
  out << "property " << ce.property << "\n";
  out << "message " << SingleLine(ce.message) << "\n";
  out << "perms " << ce.perms.size() << "\n";
  for (int perm : ce.perms) out << perm << "\n";
  out << "end\n";
  return out.str();
}

namespace {

bool Fail(std::string* error, int line, const std::string& what) {
  std::ostringstream out;
  out << "line " << line << ": " << what;
  *error = out.str();
  return false;
}

bool ParseInt(const std::string& text, long long* out) {
  if (text.empty()) return false;
  std::size_t pos = 0;
  try {
    *out = std::stoll(text, &pos);
  } catch (...) {
    return false;
  }
  return pos == text.size();
}

}  // namespace

bool ParseShardCounterexampleText(const std::string& text,
                                  ShardCounterexample* out,
                                  std::string* error) {
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  auto next_line = [&](std::string* target) {
    while (std::getline(in, line)) {
      ++line_number;
      if (line.empty()) continue;
      *target = line;
      return true;
    }
    return false;
  };

  std::string header;
  if (!next_line(&header) || header != "dmasim-shard-counterexample v1") {
    return Fail(error, line_number,
                "expected header 'dmasim-shard-counterexample v1'");
  }

  ShardCounterexample ce;
  long long perm_total = -1;
  while (true) {
    std::string entry;
    if (!next_line(&entry)) {
      return Fail(error, line_number, "unexpected end of file (no 'perms')");
    }
    const std::size_t space = entry.find(' ');
    const std::string key = entry.substr(0, space);
    const std::string value =
        space == std::string::npos ? std::string() : entry.substr(space + 1);
    long long number = 0;
    if (key == "shards" || key == "events-per-shard" || key == "max-hops" ||
        key == "lookahead" || key == "max-choice-windows" || key == "perms") {
      if (!ParseInt(value, &number)) {
        return Fail(error, line_number, "expected an integer after '" + key +
                                            "'");
      }
    }
    if (key == "shards") {
      ce.config.shards = static_cast<int>(number);
    } else if (key == "events-per-shard") {
      ce.config.events_per_shard = static_cast<int>(number);
    } else if (key == "max-hops") {
      ce.config.max_hops = static_cast<int>(number);
    } else if (key == "lookahead") {
      ce.config.lookahead = static_cast<Tick>(number);
    } else if (key == "max-choice-windows") {
      ce.config.max_choice_windows = static_cast<int>(number);
    } else if (key == "fault") {
      if (!ParseEngineFault(value, &ce.config.fault)) {
        return Fail(error, line_number, "unknown fault '" + value + "'");
      }
    } else if (key == "property") {
      ce.property = value;
    } else if (key == "message") {
      ce.message = value;
    } else if (key == "perms") {
      perm_total = number;
      break;
    } else {
      return Fail(error, line_number, "unknown key '" + key + "'");
    }
  }

  if (perm_total < 0 || perm_total > 64) {
    return Fail(error, line_number, "perm count out of range");
  }
  for (long long i = 0; i < perm_total; ++i) {
    std::string entry;
    if (!next_line(&entry)) {
      return Fail(error, line_number, "unexpected end of file inside perms");
    }
    long long perm = 0;
    if (!ParseInt(entry, &perm) || perm < 0) {
      return Fail(error, line_number, "expected a permutation index");
    }
    ce.perms.push_back(static_cast<int>(perm));
  }
  std::string footer;
  if (!next_line(&footer) || footer != "end") {
    return Fail(error, line_number, "expected 'end'");
  }
  if (next_line(&footer)) {
    return Fail(error, line_number, "trailing content after 'end'");
  }
  *out = ce;
  return true;
}

bool WriteShardCounterexampleFile(const ShardCounterexample& ce,
                                  const std::string& path,
                                  std::string* error) {
  std::ofstream out(path);
  if (!out) {
    *error = "cannot open '" + path + "' for writing";
    return false;
  }
  out << FormatShardCounterexample(ce);
  out.flush();
  if (!out) {
    *error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

bool ReadShardCounterexampleFile(const std::string& path,
                                 ShardCounterexample* out,
                                 std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open '" + path + "'";
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseShardCounterexampleText(text.str(), out, error);
}

bool ReplayShardCounterexample(const ShardCounterexample& ce,
                               std::string* observed) {
  const ShardRunOutcome run = RunShardScenario(ce.config, ce.perms);
  if (run.violation) {
    if (observed != nullptr) {
      *observed = run.property + ": " + run.message;
    }
    return ce.property.empty() || run.property == ce.property;
  }
  const ShardRunOutcome canonical = RunShardScenario(ce.config, {});
  if (!canonical.violation && run.fingerprint != canonical.fingerprint) {
    if (observed != nullptr) {
      *observed = std::string(kConvergenceProperty) + ": " +
                  DivergenceMessage(canonical, run);
    }
    return ce.property.empty() || ce.property == kConvergenceProperty;
  }
  if (observed != nullptr) *observed = "no violation reproduced";
  return false;
}

}  // namespace dmasim::check
