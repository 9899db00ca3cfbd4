// Unit-safe physical quantities (DESIGN.md §17).
//
// Every number the simulator trades in is a dimensioned quantity —
// picosecond durations, milliwatt state powers, joule energy buckets,
// byte counts, byte-per-second rates. This header gives each dimension a
// zero-overhead strong type so that a `mw * ticks` product passed where
// joules are expected, or a seconds/ticks mixup, is a compile error
// instead of a silently corrupted energy figure.
//
// Design rules (enforced by static_asserts below and the unit rules of
// tools/lint/dmasim_lint.py over the hot directories):
//   * No implicit cross-unit construction or conversion: every type has
//     an explicit single-argument constructor and exposes its raw value
//     only through a named accessor (`value()` / `joules()` / ...).
//   * Cross-dimension products exist only as named conversion functions
//     (`EnergyOver`, `TransferDuration`, `SecondsOf`, `TicksOf`), never
//     as operators. Same-dimension arithmetic (sum of energies, ratio of
//     two powers) is an operator because it stays inside the dimension.
//   * Each wrapper is trivially copyable, standard layout, and exactly
//     the size of its raw representation, so codegen is byte-identical
//     to the raw arithmetic it replaces and every committed artifact /
//     pinned FNV checksum keeps its exact bytes.
//   * Raw numerics live only at explicitly audited edges: the Table 1 /
//     DDR4 calibration literals (mem/power_model.h, chip_power_model.cc),
//     JSON artifact serialization (exp/result_sink.cc), fingerprinting
//     (server/fleet_driver.cc), trace parsing, and the simulator calendar
//     (absolute timestamps stay `Tick`; only *durations* are `Ticks`).
//
// The conversion math forwards to util/time.h so the double-precision
// results are bit-for-bit the historical values.
#ifndef DMASIM_UTIL_UNITS_H_
#define DMASIM_UTIL_UNITS_H_

#include <compare>
#include <cstdint>
#include <type_traits>

#include "util/time.h"

namespace dmasim {

// A span of simulated time in integer picoseconds. Strong wrapper over
// the raw `Tick` time base: absolute calendar timestamps remain `Tick`
// (the simulator's audited edge), while quantities that mean "how long"
// — transition latencies, policy idle thresholds, accounting intervals —
// carry this type. `Simulator::ScheduleAfter` accepts it directly.
class Ticks {
 public:
  Ticks() = default;
  constexpr explicit Ticks(Tick value) : value_(value) {}

  constexpr Tick value() const { return value_; }

  constexpr Ticks operator+(Ticks other) const {
    return Ticks(value_ + other.value_);
  }
  constexpr Ticks operator-(Ticks other) const {
    return Ticks(value_ - other.value_);
  }
  constexpr Ticks& operator+=(Ticks other) {
    value_ += other.value_;
    return *this;
  }
  constexpr Ticks operator*(std::int64_t scale) const {
    return Ticks(value_ * scale);
  }
  friend constexpr Ticks operator*(std::int64_t scale, Ticks t) {
    return Ticks(scale * t.value_);
  }
  constexpr bool operator==(const Ticks&) const = default;
  constexpr auto operator<=>(const Ticks&) const = default;

 private:
  Tick value_ = 0;
};

// Wall-of-simulation time in seconds, as a double. Exists so the
// ticks<->seconds conversion edge is spelled out in types instead of a
// bare double that could equally be milliseconds or a ratio.
class Seconds {
 public:
  Seconds() = default;
  constexpr explicit Seconds(double value) : value_(value) {}

  constexpr double value() const { return value_; }

  constexpr bool operator==(const Seconds&) const = default;
  constexpr auto operator<=>(const Seconds&) const = default;

 private:
  double value_ = 0.0;
};

// Electrical power in milliwatts (the unit of Table 1 and every chip
// model's calibration). Sums and dimensionless scaling stay power;
// dividing two powers yields a dimensionless ratio. Power x time makes
// energy only through `EnergyOver`.
class MilliwattPower {
 public:
  MilliwattPower() = default;
  constexpr explicit MilliwattPower(double mw) : mw_(mw) {}

  constexpr double milliwatts() const { return mw_; }

  constexpr MilliwattPower operator+(MilliwattPower other) const {
    return MilliwattPower(mw_ + other.mw_);
  }
  constexpr MilliwattPower operator-(MilliwattPower other) const {
    return MilliwattPower(mw_ - other.mw_);
  }
  constexpr MilliwattPower operator*(double scale) const {
    return MilliwattPower(mw_ * scale);
  }
  friend constexpr MilliwattPower operator*(double scale, MilliwattPower p) {
    return MilliwattPower(scale * p.mw_);
  }
  // Ratio of two powers (dimensionless; the corrected-RDRAM chained-edge
  // scaling and the audit envelopes use this).
  constexpr double operator/(MilliwattPower other) const {
    return mw_ / other.mw_;
  }
  constexpr bool operator==(const MilliwattPower&) const = default;
  constexpr auto operator<=>(const MilliwattPower&) const = default;

 private:
  double mw_ = 0.0;
};

// Energy in joules. The accumulation unit of EnergyBreakdown and the
// auditor's shadow sums; produced from power only via `EnergyOver`.
class JoulesEnergy {
 public:
  JoulesEnergy() = default;
  constexpr explicit JoulesEnergy(double joules) : joules_(joules) {}

  constexpr double joules() const { return joules_; }

  constexpr JoulesEnergy operator+(JoulesEnergy other) const {
    return JoulesEnergy(joules_ + other.joules_);
  }
  constexpr JoulesEnergy operator-(JoulesEnergy other) const {
    return JoulesEnergy(joules_ - other.joules_);
  }
  constexpr JoulesEnergy& operator+=(JoulesEnergy other) {
    joules_ += other.joules_;
    return *this;
  }
  constexpr JoulesEnergy operator*(double scale) const {
    return JoulesEnergy(joules_ * scale);
  }
  friend constexpr JoulesEnergy operator*(double scale, JoulesEnergy e) {
    return JoulesEnergy(scale * e.joules_);
  }
  // Ratio of two energies (dimensionless; savings figures are 1 - e/e0).
  constexpr double operator/(JoulesEnergy other) const {
    return joules_ / other.joules_;
  }
  constexpr bool operator==(const JoulesEnergy&) const = default;
  constexpr auto operator<=>(const JoulesEnergy&) const = default;

 private:
  double joules_ = 0.0;
};

// A count of bytes (request sizes, burst lengths). Integer, exact.
class ByteCount {
 public:
  ByteCount() = default;
  constexpr explicit ByteCount(std::int64_t count) : count_(count) {}

  constexpr std::int64_t count() const { return count_; }

  constexpr ByteCount operator+(ByteCount other) const {
    return ByteCount(count_ + other.count_);
  }
  constexpr ByteCount operator-(ByteCount other) const {
    return ByteCount(count_ - other.count_);
  }
  constexpr ByteCount operator*(std::int64_t scale) const {
    return ByteCount(count_ * scale);
  }
  constexpr bool operator==(const ByteCount&) const = default;
  constexpr auto operator<=>(const ByteCount&) const = default;

 private:
  std::int64_t count_ = 0;
};

// A data rate in bytes per second (bus/link/disk bandwidths). The
// derived tick-rate helper: bytes / rate -> Ticks via TransferDuration.
class BytesPerSecond {
 public:
  BytesPerSecond() = default;
  constexpr explicit BytesPerSecond(double rate) : rate_(rate) {}

  constexpr double value() const { return rate_; }

  constexpr bool operator==(const BytesPerSecond&) const = default;
  constexpr auto operator<=>(const BytesPerSecond&) const = default;

 private:
  double rate_ = 0.0;
};

// --- Named cross-dimension conversions ----------------------------------
// These four functions are the only places in the tree where one
// dimension becomes another. Each forwards to the util/time.h raw helper
// so the double-precision result is bit-for-bit the historical value.

// mW x duration -> J. The single power-to-energy edge: integrating
// `power` over `duration` of simulated time.
constexpr JoulesEnergy EnergyOver(MilliwattPower power, Ticks duration) {
  return JoulesEnergy(power.milliwatts() * 1e-3 *
                      TicksToSeconds(duration.value()));
}

// Duration -> seconds (for energy integration and report formatting).
constexpr Seconds SecondsOf(Ticks duration) {
  return Seconds(TicksToSeconds(duration.value()));
}

// Seconds -> nearest duration in ticks (symmetric round-half-away).
constexpr Ticks TicksOf(Seconds seconds) {
  return Ticks(SecondsToTicks(seconds.value()));
}

// bytes / rate -> duration: time to move `bytes` at `rate`.
constexpr Ticks TransferDuration(ByteCount bytes, BytesPerSecond rate) {
  return Ticks(TransferTime(bytes.count(), rate.value()));
}

// --- Zero-overhead pins -------------------------------------------------
// The wrappers must be layout-identical to their raw representations so
// the strong types compile out: same size, trivially copyable, standard
// layout. A change that breaks any of these would show up as codegen and
// perf-gate drift before it showed up as a review comment.
static_assert(sizeof(Ticks) == sizeof(Tick));
static_assert(sizeof(Seconds) == sizeof(double));
static_assert(sizeof(MilliwattPower) == sizeof(double));
static_assert(sizeof(JoulesEnergy) == sizeof(double));
static_assert(sizeof(ByteCount) == sizeof(std::int64_t));
static_assert(sizeof(BytesPerSecond) == sizeof(double));
static_assert(std::is_trivially_copyable_v<Ticks>);
static_assert(std::is_trivially_copyable_v<Seconds>);
static_assert(std::is_trivially_copyable_v<MilliwattPower>);
static_assert(std::is_trivially_copyable_v<JoulesEnergy>);
static_assert(std::is_trivially_copyable_v<ByteCount>);
static_assert(std::is_trivially_copyable_v<BytesPerSecond>);
static_assert(std::is_standard_layout_v<Ticks>);
static_assert(std::is_standard_layout_v<JoulesEnergy>);
static_assert(std::is_standard_layout_v<MilliwattPower>);
// No implicit cross-unit construction: a raw double/int64 must not
// silently become a quantity, and no quantity converts to another.
static_assert(!std::is_convertible_v<double, MilliwattPower>);
static_assert(!std::is_convertible_v<double, JoulesEnergy>);
static_assert(!std::is_convertible_v<double, Seconds>);
static_assert(!std::is_convertible_v<double, BytesPerSecond>);
static_assert(!std::is_convertible_v<Tick, Ticks>);
static_assert(!std::is_convertible_v<std::int64_t, ByteCount>);
static_assert(!std::is_convertible_v<MilliwattPower, JoulesEnergy>);
static_assert(!std::is_convertible_v<JoulesEnergy, MilliwattPower>);
static_assert(!std::is_convertible_v<Ticks, Seconds>);
static_assert(!std::is_convertible_v<Seconds, Ticks>);

}  // namespace dmasim

#endif  // DMASIM_UTIL_UNITS_H_
