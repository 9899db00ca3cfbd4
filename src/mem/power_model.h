// RDRAM power and timing model (Table 1 of the paper).
//
// Numbers follow the 512-Mbit 1600 MHz RDRAM specification used by the
// paper (and by Lebeck et al.): four power states with per-state power,
// and per-transition power/latency. The memory bus moves 2 bytes per
// 625 ps memory cycle (3.2 GB/s peak).
#ifndef DMASIM_MEM_POWER_MODEL_H_
#define DMASIM_MEM_POWER_MODEL_H_

#include <string_view>

#include "util/check.h"
#include "util/time.h"
#include "util/units.h"

namespace dmasim {

// Union of the power states any chip model can occupy. The first four
// are the paper's RDRAM Table 1 states; the last three exist only in
// modern-DRAM models (DDR4-style power-down and self-refresh). Which
// subset is reachable — and in what power order — is owned by the
// ChipPowerModel instance (mem/chip_power_model.h), never hard-coded.
enum class PowerState : int {
  kActive = 0,
  kStandby,
  kNap,
  kPowerdown,
  kActivePowerdown,     // DDR4: CKE low with a row open.
  kPrechargePowerdown,  // DDR4: CKE low, all banks precharged.
  kSelfRefresh,         // DDR4: clock stopped, internal refresh.
};

inline constexpr int kPowerStateCount = 7;

// Canonical display name. Total over the enum: an out-of-range value is
// a programming error and aborts instead of silently printing "?" (a
// 5+-state model falling through a 4-state switch must be loud).
constexpr std::string_view PowerStateName(PowerState state) {
  switch (state) {
    case PowerState::kActive:
      return "active";
    case PowerState::kStandby:
      return "standby";
    case PowerState::kNap:
      return "nap";
    case PowerState::kPowerdown:
      return "powerdown";
    case PowerState::kActivePowerdown:
      return "active-powerdown";
    case PowerState::kPrechargePowerdown:
      return "precharge-powerdown";
    case PowerState::kSelfRefresh:
      return "self-refresh";
  }
  DMASIM_CHECK_MSG(false, "unnamed power state");
}

// Power/latency pair describing one power-mode transition.
struct Transition {
  MilliwattPower power_mw;
  Ticks duration;
};

// Chip-level power/timing parameters. Defaults reproduce the paper's
// Table 1 exactly; a memory cycle is 625 ps (1600 MHz). The calibration
// members stay raw doubles/Ticks literals: this struct IS the audited
// Table 1 edge where spec numbers enter the typed world.
struct PowerModel {
  Tick cycle = 625;              // One memory cycle in ticks.
  double bytes_per_cycle = 2.0;  // Peak data rate: 3.2 GB/s.

  // Table 1 calibration literals: the audited raw edge the typed layer
  // is built from (dmasim-lint: allow(raw-unit-decl) on each line).
  double active_mw = 300.0;     // dmasim-lint: allow(raw-unit-decl)
  double standby_mw = 180.0;    // dmasim-lint: allow(raw-unit-decl)
  double nap_mw = 30.0;         // dmasim-lint: allow(raw-unit-decl)
  double powerdown_mw = 3.0;    // dmasim-lint: allow(raw-unit-decl)

  // Downward transitions (from active; also used as an approximation for
  // chained steps, e.g. standby -> nap, which the spec does not list).
  Transition to_standby{MilliwattPower(240.0), Ticks(1 * 625)};
  Transition to_nap{MilliwattPower(160.0), Ticks(8 * 625)};
  Transition to_powerdown{MilliwattPower(15.0), Ticks(8 * 625)};

  // Upward transitions back to active ("+" latencies in Table 1).
  Transition from_standby{MilliwattPower(240.0), Ticks(6 * kNanosecond)};
  Transition from_nap{MilliwattPower(160.0), Ticks(60 * kNanosecond)};
  Transition from_powerdown{MilliwattPower(15.0), Ticks(6000 * kNanosecond)};

  // Steady-state power of `state`.
  MilliwattPower StatePowerMw(PowerState state) const {
    switch (state) {
      case PowerState::kActive:
        return MilliwattPower(active_mw);
      case PowerState::kStandby:
        return MilliwattPower(standby_mw);
      case PowerState::kNap:
        return MilliwattPower(nap_mw);
      case PowerState::kPowerdown:
        return MilliwattPower(powerdown_mw);
      case PowerState::kActivePowerdown:
      case PowerState::kPrechargePowerdown:
      case PowerState::kSelfRefresh:
        break;  // Not RDRAM states; only ChipPowerModel instances own them.
    }
    DMASIM_CHECK_MSG(false, "state outside the RDRAM model");
  }

  // Transition descriptor for entering `target` from a higher-power state.
  const Transition& DownTransition(PowerState target) const {
    switch (target) {
      case PowerState::kStandby:
        return to_standby;
      case PowerState::kNap:
        return to_nap;
      case PowerState::kPowerdown:
        return to_powerdown;
      case PowerState::kActive:
      case PowerState::kActivePowerdown:
      case PowerState::kPrechargePowerdown:
      case PowerState::kSelfRefresh:
        break;
    }
    DMASIM_CHECK_MSG(false, "no RDRAM down transition to that state");
  }

  // Transition descriptor for waking to active from `source`.
  const Transition& UpTransition(PowerState source) const {
    switch (source) {
      case PowerState::kStandby:
        return from_standby;
      case PowerState::kNap:
        return from_nap;
      case PowerState::kPowerdown:
        return from_powerdown;
      case PowerState::kActive:
      case PowerState::kActivePowerdown:
      case PowerState::kPrechargePowerdown:
      case PowerState::kSelfRefresh:
        break;
    }
    DMASIM_CHECK_MSG(false, "no RDRAM up transition from that state");
  }

  // Time to serve `bytes` at the chip's peak data rate.
  Ticks ServiceTime(ByteCount bytes) const {
    DMASIM_EXPECTS(bytes.count() > 0);
    const double cycles = static_cast<double>(bytes.count()) / bytes_per_cycle;
    return Ticks(static_cast<Tick>(cycles * static_cast<double>(cycle) + 0.5));
  }

  // Sustained memory bandwidth.
  BytesPerSecond Bandwidth() const {
    return BytesPerSecond(bytes_per_cycle / TicksToSeconds(cycle));
  }
};

}  // namespace dmasim

#endif  // DMASIM_MEM_POWER_MODEL_H_
