#include "audit/simulation_audit.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <string>

#include "util/check.h"

namespace dmasim {

namespace {

// Tolerance for reconstructing bucket energies from integer tick totals
// and state powers: the chip integrates segment by segment, so the two
// sums differ only by floating-point reassociation noise.
constexpr double kRelativeTolerance = 1e-6;

bool NearlyEqual(double a, double b) {
  const double scale = std::max({1e-12, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= kRelativeTolerance * scale;
}

std::string Format(const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return std::string(buffer);
}

}  // namespace

bool CheckLayoutIndex(const std::vector<std::uint32_t>& counts,
                      const std::vector<std::uint32_t>& nonzero_pages,
                      const std::vector<std::int32_t>& page_to_chip,
                      int chips, int pages_per_chip, std::string* message) {
  std::vector<std::uint8_t> indexed(counts.size(), 0);
  for (const std::uint32_t page : nonzero_pages) {
    if (page >= counts.size() || counts[page] == 0 || indexed[page] != 0) {
      *message = Format(
          "referenced-page index lists page %u %s", page,
          page >= counts.size() ? "outside the page space"
          : counts[page] == 0   ? "whose count is 0"
                                : "twice");
      return false;
    }
    indexed[page] = 1;
  }
  for (std::size_t page = 0; page < counts.size(); ++page) {
    if (counts[page] > 0 && indexed[page] == 0) {
      *message = Format(
          "page %zu has count %u but is missing from the referenced-page "
          "index",
          page, counts[page]);
      return false;
    }
  }

  std::vector<std::int64_t> residents(static_cast<std::size_t>(chips), 0);
  for (std::size_t page = 0; page < page_to_chip.size(); ++page) {
    const std::int32_t chip = page_to_chip[page];
    if (chip < 0 || chip >= chips) {
      *message = Format("page %zu maps to chip %d of %d", page, chip, chips);
      return false;
    }
    ++residents[static_cast<std::size_t>(chip)];
  }
  for (int chip = 0; chip < chips; ++chip) {
    if (residents[static_cast<std::size_t>(chip)] != pages_per_chip) {
      *message = Format(
          "chip %d holds %lld logical pages, not %d", chip,
          static_cast<long long>(residents[static_cast<std::size_t>(chip)]),
          pages_per_chip);
      return false;
    }
  }
  return true;
}

SimulationAudit::SimulationAudit(Simulator* simulator,
                                 MemoryController* controller,
                                 const Options& options)
    : simulator_(simulator),
      controller_(controller),
      options_(options),
      auditor_(options.mode),
      power_auditor_(options.reference_model != nullptr
                         ? options.reference_model
                         : &controller->chip_model(),
                     controller->chip_count()) {
  DMASIM_EXPECTS(simulator != nullptr);
  DMASIM_EXPECTS(controller != nullptr);
  DMASIM_EXPECTS(options.level >= 1);
  // A periodic pass re-arms itself one period later: a period <= 0 would
  // re-arm at the same tick forever.
  if (options.level >= 2) DMASIM_EXPECTS(options.period > 0);

  const int chips = controller_->chip_count();
  shadow_energy_.assign(static_cast<std::size_t>(chips), {});
  base_stats_.reserve(static_cast<std::size_t>(chips));
  base_energy_.reserve(static_cast<std::size_t>(chips));
  base_accounted_.reserve(static_cast<std::size_t>(chips));
  for (int i = 0; i < chips; ++i) {
    MemoryChip& chip = controller_->chip(i);
    chip.SetAuditSink(this);
    power_auditor_.Seed(i, chip.power_state());
    base_stats_.push_back(chip.stats());
    base_energy_.push_back(chip.energy());
    base_accounted_.push_back(chip.accounted_until());
    if (chip.energy().Total() > JoulesEnergy(0.0) ||
        chip.accounted_until() > 0) {
      attached_at_zero_ = false;
    }
  }

  RegisterStandardInvariants();
  if (options_.level >= 2) SchedulePeriodicPass();
}

SimulationAudit::~SimulationAudit() {
  for (int i = 0; i < controller_->chip_count(); ++i) {
    controller_->chip(i).SetAuditSink(nullptr);
  }
}

void SimulationAudit::Finish() { auditor_.RunPhase(AuditPhase::kEndOfRun); }

void SimulationAudit::OnPowerTransition(int chip, PowerState from,
                                        PowerState to, bool up, Tick start,
                                        Tick end) {
  std::string message = power_auditor_.Validate(chip, from, to, up, start, end);
  if (message.empty()) return;
  ++transition_violations_;
  if (first_transition_violation_.empty()) {
    first_transition_violation_ = message;
  }
  // Transition-time reporting is the level-2 behavior; at level 1 the
  // violation surfaces through the registry's end-of-run pass.
  if (options_.level >= 2 && auditor_.mode() == InvariantAuditor::Mode::kAbort) {
    auditor_.ReportFailure("power-state-legality", message);
  }
}

void SimulationAudit::OnEnergyAccounted(int chip, EnergyBucket bucket,
                                        JoulesEnergy joules, Ticks duration) {
  (void)duration;
  shadow_energy_[static_cast<std::size_t>(chip)]
                [static_cast<std::size_t>(bucket)] += joules;
}

void SimulationAudit::SchedulePeriodicPass() {
  simulator_->ScheduleAfter(options_.period, [this]() {
    auditor_.RunPhase(AuditPhase::kPeriodic);
    SchedulePeriodicPass();
  });
}

bool SimulationAudit::CheckEnergyConservation(std::string* message) {
  // Flush every chip to Now() (settling coalesced runs exactly) so the
  // integrated totals below are current.
  controller_->CollectEnergy();
  const ChipPowerModel& reference = options_.reference_model != nullptr
                                        ? *options_.reference_model
                                        : controller_->chip_model();
  MilliwattPower transition_power_min;
  MilliwattPower transition_power_max;
  reference.TransitionPowerBounds(&transition_power_min, &transition_power_max);
  MilliwattPower serving_power_min;
  MilliwattPower serving_power_max;
  reference.ServingPowerBounds(&serving_power_min, &serving_power_max);
  const MilliwattPower active_mw = reference.StatePowerMw(PowerState::kActive);

  for (int i = 0; i < controller_->chip_count(); ++i) {
    const MemoryChip& chip = controller_->chip(i);
    const ChipStats& now = chip.stats();
    const ChipStats& base = base_stats_[static_cast<std::size_t>(i)];

    // (a) Tick conservation, integer-exact: every accounted tick landed
    // in exactly one ChipStats slot.
    Tick slots = (now.dma_serving - base.dma_serving) +
                 (now.cpu_serving - base.cpu_serving) +
                 (now.migration_serving - base.migration_serving) +
                 (now.active_idle_dma - base.active_idle_dma) +
                 (now.active_idle_threshold - base.active_idle_threshold) +
                 (now.transition - base.transition);
    for (int s = 0; s < kPowerStateCount; ++s) {
      slots += now.low_power[s] - base.low_power[s];
    }
    const Tick accounted =
        chip.accounted_until() - base_accounted_[static_cast<std::size_t>(i)];
    if (slots != accounted) {
      *message = Format(
          "chip %d: stats time slots sum to %lld ticks but %lld ticks were "
          "accounted",
          i, static_cast<long long>(slots), static_cast<long long>(accounted));
      return false;
    }

    // (b) The shadow breakdown (accumulated from the chip's own energy
    // stream, same values in the same order) matches the chip's
    // breakdown bit for bit.
    for (int b = 0; b < kEnergyBucketCount; ++b) {
      const EnergyBucket bucket = static_cast<EnergyBucket>(b);
      const JoulesEnergy shadow = shadow_energy_[static_cast<std::size_t>(i)]
                                                [static_cast<std::size_t>(b)];
      const JoulesEnergy reported =
          chip.energy().Of(bucket) -
          base_energy_[static_cast<std::size_t>(i)].Of(bucket);
      const bool equal =
          attached_at_zero_ ? reported == shadow
                            : NearlyEqual(reported.joules(), shadow.joules());
      if (!equal) {
        *message = Format(
            "chip %d: %s bucket reports %.17g J but the shadow sum is "
            "%.17g J",
            i, EnergyBucketName(bucket).data(), reported.joules(),
            shadow.joules());
        return false;
      }
    }

    // (c) Each bucket's energy is reproducible from its tick total and
    // the reference model's powers. Idle-active buckets are exact at the
    // active state power; serving buckets are bounded by the model's
    // serving envelope (exact whenever the envelope is a point, i.e.
    // serving power is burst-independent); transition energy mixes
    // per-edge powers, so it is only bounded.
    struct Expectation {
      EnergyBucket bucket;
      Tick ticks;
      MilliwattPower power_min_mw;
      MilliwattPower power_max_mw;
    };
    const Expectation expectations[] = {
        {EnergyBucket::kActiveServing,
         (now.dma_serving - base.dma_serving) +
             (now.cpu_serving - base.cpu_serving),
         serving_power_min, serving_power_max},
        {EnergyBucket::kMigration,
         now.migration_serving - base.migration_serving, serving_power_min,
         serving_power_max},
        {EnergyBucket::kActiveIdleDma,
         now.active_idle_dma - base.active_idle_dma, active_mw, active_mw},
        {EnergyBucket::kActiveIdleThreshold,
         now.active_idle_threshold - base.active_idle_threshold, active_mw,
         active_mw},
    };
    for (const Expectation& expect : expectations) {
      const double reported =
          (chip.energy().Of(expect.bucket) -
           base_energy_[static_cast<std::size_t>(i)].Of(expect.bucket))
              .joules();
      if (expect.power_min_mw == expect.power_max_mw) {
        const double expected =
            EnergyOver(expect.power_min_mw, Ticks(expect.ticks)).joules();
        if (!NearlyEqual(reported, expected)) {
          *message = Format(
              "chip %d: %s bucket holds %.17g J but %lld ticks at %g mW "
              "integrate to %.17g J",
              i, EnergyBucketName(expect.bucket).data(), reported,
              static_cast<long long>(expect.ticks),
              expect.power_min_mw.milliwatts(), expected);
          return false;
        }
        continue;
      }
      const double bucket_lower =
          EnergyOver(expect.power_min_mw, Ticks(expect.ticks)).joules();
      const double bucket_upper =
          EnergyOver(expect.power_max_mw, Ticks(expect.ticks)).joules();
      if (reported < bucket_lower * (1.0 - kRelativeTolerance) - 1e-12 ||
          reported > bucket_upper * (1.0 + kRelativeTolerance) + 1e-12) {
        *message = Format(
            "chip %d: %s bucket holds %.17g J, outside the [%g, %g] J "
            "serving envelope for %lld ticks",
            i, EnergyBucketName(expect.bucket).data(), reported, bucket_lower,
            bucket_upper, static_cast<long long>(expect.ticks));
        return false;
      }
    }
    // Per-state residency: integrate only states the reference model
    // supports, and demand zero residency everywhere else (a tick spent
    // in an unsupported state would prove the chips ran a different
    // model than the audit was told about).
    JoulesEnergy low_power_expected;
    for (int s = 0; s < kPowerStateCount; ++s) {
      const PowerState state = static_cast<PowerState>(s);
      const Tick residency = now.low_power[s] - base.low_power[s];
      if (!reference.IsSupported(state)) {
        if (residency != 0) {
          *message = Format(
              "chip %d: %lld ticks of residency in %s, a state the "
              "reference model does not support",
              i, static_cast<long long>(residency),
              PowerStateName(state).data());
          return false;
        }
        continue;
      }
      low_power_expected +=
          EnergyOver(reference.StatePowerMw(state), Ticks(residency));
    }
    const JoulesEnergy low_power_reported =
        chip.energy().Of(EnergyBucket::kLowPower) -
        base_energy_[static_cast<std::size_t>(i)].Of(EnergyBucket::kLowPower);
    if (!NearlyEqual(low_power_reported.joules(),
                     low_power_expected.joules())) {
      *message = Format(
          "chip %d: LowPowerModes bucket holds %.17g J but per-state "
          "residency integrates to %.17g J",
          i, low_power_reported.joules(), low_power_expected.joules());
      return false;
    }
    const Tick transition_ticks = now.transition - base.transition;
    const double transition_reported =
        (chip.energy().Of(EnergyBucket::kTransition) -
         base_energy_[static_cast<std::size_t>(i)].Of(EnergyBucket::kTransition))
            .joules();
    const double lower =
        EnergyOver(transition_power_min, Ticks(transition_ticks)).joules();
    const double upper =
        EnergyOver(transition_power_max, Ticks(transition_ticks)).joules();
    if (transition_reported < lower * (1.0 - kRelativeTolerance) - 1e-12 ||
        transition_reported > upper * (1.0 + kRelativeTolerance) + 1e-12) {
      *message = Format(
          "chip %d: Transition bucket holds %.17g J, outside the [%g, %g] J "
          "bound for %lld transition ticks",
          i, transition_reported, lower, upper,
          static_cast<long long>(transition_ticks));
      return false;
    }
  }
  return true;
}

void SimulationAudit::RegisterStandardInvariants() {
  // Event kernel bookkeeping: coalesced-run credits may only add to the
  // executed count, never push it below the number of Step() calls.
  auditor_.Register(
      "event-accounting", AuditPhase::kEndOfRun | AuditPhase::kPeriodic,
      [this](std::string* message) {
        if (simulator_->ExecutedEvents() >= simulator_->SteppedEvents()) {
          return true;
        }
        *message = Format(
            "executed-event credit %llu fell below the %llu kernel steps",
            static_cast<unsigned long long>(simulator_->ExecutedEvents()),
            static_cast<unsigned long long>(simulator_->SteppedEvents()));
        return false;
      });

  // Every completed power-state transition was a legal edge with the
  // reference model's exact resync delay (validated as transitions
  // stream in; this entry surfaces what the stream recorded).
  auditor_.Register("power-state-legality",
                    AuditPhase::kEndOfRun | AuditPhase::kPeriodic,
                    [this](std::string* message) {
                      if (transition_violations_ == 0) return true;
                      *message = Format(
                          "%llu illegal transition(s); first: %s",
                          static_cast<unsigned long long>(
                              transition_violations_),
                          first_transition_violation_.c_str());
                      return false;
                    });

  auditor_.Register("energy-conservation",
                    AuditPhase::kEndOfRun | AuditPhase::kPeriodic,
                    [this](std::string* message) {
                      return CheckEnergyConservation(message);
                    });

  // The slack account's balance can never exceed the mu-derived budget
  // cap (credits are clamped; debits only lower it).
  auditor_.Register(
      "slack-budget", AuditPhase::kEndOfRun | AuditPhase::kPeriodic,
      [this](std::string* message) {
        if (!controller_->aligner().enabled()) return true;
        const SlackAccount& slack = controller_->aligner().slack();
        if (slack.slack() <= slack.cap()) return true;
        *message =
            Format("slack balance %.17g exceeds the mu-derived cap %.17g",
                   slack.slack(), slack.cap());
        return false;
      });

  // Slab leak detection: every acquired transfer descriptor is either
  // still in flight or was released exactly once.
  auditor_.Register(
      "transfer-pool-balance", AuditPhase::kEndOfRun | AuditPhase::kPeriodic,
      [this](std::string* message) {
        const ControllerStats& stats = controller_->stats();
        const std::uint64_t outstanding =
            stats.transfers_started - stats.transfers_completed;
        if (outstanding == controller_->InFlightTransfers()) return true;
        *message = Format(
            "%llu transfers outstanding by count but the pool holds %llu "
            "active descriptors",
            static_cast<unsigned long long>(outstanding),
            static_cast<unsigned long long>(controller_->InFlightTransfers()));
        return false;
      });

  // After the driver's drain window, nothing may still hold a slab
  // descriptor or sit gated behind DMA-TA — unless the simulation
  // horizon cut scheduled work off mid-flight. A non-empty event queue
  // at end-of-run means RunUntil() stopped the clock, not the workload
  // (a gated transfer's release deadline can fall past the horizon on
  // dense traces); descriptors those unexecuted events would complete
  // are not leaks. With the queue empty, anything still held can never
  // be released — the genuine leak / stuck-gate these checks exist for.
  auditor_.Register("transfer-pool-drained", AuditPhase::kEndOfRun,
                    [this](std::string* message) {
                      if (controller_->InFlightTransfers() == 0) return true;
                      if (simulator_->PendingEvents() > 0) return true;
                      *message = Format(
                          "%llu transfer descriptor(s) leaked past the drain",
                          static_cast<unsigned long long>(
                              controller_->InFlightTransfers()));
                      return false;
                    });
  auditor_.Register(
      "aligner-drained", AuditPhase::kEndOfRun, [this](std::string* message) {
        if (controller_->aligner().TotalPending() == 0) return true;
        if (simulator_->PendingEvents() > 0) return true;
        *message = Format("%d gated request(s) still pending after the drain",
                          controller_->aligner().TotalPending());
        return false;
      });

  // Access-monitor region discipline: the split/merge machinery must
  // keep the region list inside the [min_regions, max_regions] budget and
  // tiling the logical page space exactly (sorted, gap-free, covering
  // [0, pages)). A violated tiling would silently misattribute samples.
  auditor_.Register(
      "monitor-region-budget", AuditPhase::kEndOfRun | AuditPhase::kPeriodic,
      [this](std::string* message) {
        const RegionMonitor* monitor = controller_->monitor();
        if (monitor == nullptr) return true;
        const std::vector<MonitorRegion>& regions = monitor->regions();
        const MonitorConfig& config = monitor->config();
        const int count = static_cast<int>(regions.size());
        if (count < config.min_regions || count > config.max_regions) {
          *message = Format(
              "monitor holds %d regions, outside the [%d, %d] budget", count,
              config.min_regions, config.max_regions);
          return false;
        }
        std::uint64_t expected_start = 0;
        for (const MonitorRegion& region : regions) {
          if (region.start != expected_start || region.end <= region.start) {
            *message = Format(
                "monitor region [%llu, %llu) breaks the tiling at %llu",
                static_cast<unsigned long long>(region.start),
                static_cast<unsigned long long>(region.end),
                static_cast<unsigned long long>(expected_start));
            return false;
          }
          expected_start = region.end;
        }
        if (expected_start != monitor->pages()) {
          *message = Format(
              "monitor regions cover %llu pages of %llu",
              static_cast<unsigned long long>(expected_start),
              static_cast<unsigned long long>(monitor->pages()));
          return false;
        }
        return true;
      });

  // PL's incremental structures against the dense arrays they stand in
  // for: the oracle tracker's referenced-page index, and the page map
  // whose swaps must leave every chip holding pages_per_chip pages.
  auditor_.Register(
      "layout-index", AuditPhase::kEndOfRun | AuditPhase::kPeriodic,
      [this](std::string* message) {
        const MemorySystemConfig& config = controller_->config();
        return CheckLayoutIndex(controller_->popularity().counts(),
                                controller_->popularity().nonzero_pages(),
                                controller_->page_to_chip(), config.chips,
                                config.pages_per_chip, message);
      });

  // Page migration bills what it counts: every planned move is either
  // counted (both chips served its last copy chunk) or pending, and the
  // chips served exactly the counted moves' copies, a page read and a
  // page write each, plus the part of the pending moves' copies they
  // reached.
  auditor_.Register(
      "work-conservation", AuditPhase::kEndOfRun | AuditPhase::kPeriodic,
      [this](std::string* message) {
        const ControllerStats& stats = controller_->stats();
        const std::uint64_t planned = controller_->MigrationsPlanned();
        if (stats.migrations + stats.migrations_pending != planned) {
          *message = Format(
              "%llu moves planned but %llu counted and %llu pending",
              static_cast<unsigned long long>(planned),
              static_cast<unsigned long long>(stats.migrations),
              static_cast<unsigned long long>(stats.migrations_pending));
          return false;
        }
        std::uint64_t served = 0;
        for (int i = 0; i < controller_->chip_count(); ++i) {
          served += controller_->chip(i).stats().migration_bytes;
        }
        const auto page_bytes =
            static_cast<std::uint64_t>(controller_->config().page_bytes);
        const std::uint64_t pending_served =
            controller_->PendingMigrationBytesServed();
        const std::uint64_t expected =
            2 * page_bytes * stats.migrations + pending_served;
        if (served == expected) return true;
        *message = Format(
            "chips served %llu migration copy bytes, but %llu counted "
            "moves of 2 x %llu bytes and %llu served bytes of %llu pending "
            "moves make %llu",
            static_cast<unsigned long long>(served),
            static_cast<unsigned long long>(stats.migrations),
            static_cast<unsigned long long>(page_bytes),
            static_cast<unsigned long long>(pending_served),
            static_cast<unsigned long long>(stats.migrations_pending),
            static_cast<unsigned long long>(expected));
        return false;
      });

  // DMA-TA lockstep: only the first request of a transfer may be gated,
  // so a transfer never pays the alignment delay twice. (Level 2 also
  // checks the stronger per-chunk form inline in DeliverChunk: after the
  // gather, non-first chunks must find their chip awake.)
  auditor_.Register(
      "dma-ta-lockstep", AuditPhase::kEndOfRun, [this](std::string* message) {
        const std::uint64_t gated = controller_->aligner().TotalGated();
        const std::uint64_t started = controller_->stats().transfers_started;
        if (gated <= started) return true;
        *message = Format(
            "%llu gated first requests exceed the %llu transfers started",
            static_cast<unsigned long long>(gated),
            static_cast<unsigned long long>(started));
        return false;
      });
}

}  // namespace dmasim
