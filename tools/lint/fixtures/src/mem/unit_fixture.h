// Fixture: unit rules (raw-unit-param, raw-unit-decl,
// unit-literal-conversion) -- raw doubles with unit names and inline
// conversion factors in a unit-typed layer. Nothing here is compiled.
#ifndef DMASIM_MEM_UNIT_FIXTURE_H_
#define DMASIM_MEM_UNIT_FIXTURE_H_

namespace dmasim {

// --- raw-unit-param ------------------------------------------------------
void AccountPower(double state_mw, int chip);      // expect-lint: raw-unit-param
void AddEnergy(double joules);                     // expect-lint: raw-unit-param
void Integrate(int chip, const double total_j,     // expect-lint: raw-unit-param
               bool final);
void Wake(Tick wake_latency, Tick now);            // expect-lint: raw-unit-param
void Step(Tick transition_duration = 0);           // expect-lint: raw-unit-param

// Absolute timestamps stay raw Tick: not findings.
void ScheduleAt(Tick when, int chip);
void OnEpoch(Tick now, Tick deadline);
// Dimensionless doubles are not findings.
void Scale(double mu, double fraction);
// A typed signature is the fixed form: not a finding.
void AccountPowerTyped(MilliwattPower power, Ticks duration);
// Waived edges: trace parsing hands over a raw value; a waiver on the
// line before covers the next line too.
void ParseEnergyColumn(double joules);  // dmasim-lint: allow(raw-unit-param)
// dmasim-lint: allow(raw-unit-param) -- JSON boundary, audited.
void SerializeEnergy(double joules);

// --- raw-unit-decl -------------------------------------------------------
struct FixtureState {
  double idle_energy_joules = 0.0;  // expect-lint: raw-unit-decl
  double wake_mw;                   // expect-lint: raw-unit-decl
  // Table 1 calibration literal: the audited raw edge, waived.
  double active_mw = 300.0;  // dmasim-lint: allow(raw-unit-decl)
  // Typed members are the fixed form.
  JoulesEnergy total;
  double utilization = 0.0;  // Dimensionless: not a finding.
};

inline double Drift() {
  double accumulated_joules = 0.0;  // expect-lint: raw-unit-decl
  static double peak_watts;         // expect-lint: raw-unit-decl
  return accumulated_joules + peak_watts;
}

// --- unit-literal-conversion ---------------------------------------------
inline double BadEnergy(double mw, double seconds_d) {
  return mw * 1e-3 * seconds_d;  // expect-lint: unit-literal-conversion
}
inline double BadMillijoules(double joules_d) {
  return joules_d * 1e3;  // expect-lint: unit-literal-conversion
}
inline double BadPicoseconds(double seconds_d) {
  return 1e12 * seconds_d;  // expect-lint: unit-literal-conversion
}
inline double BadSeconds(double ticks_d) {
  return ticks_d / 1.0e12;  // expect-lint: unit-literal-conversion
}
// Additive epsilons and tolerances are not conversions: no findings.
inline bool Near(double a, double b) {
  return a - b < 1e-12 && b - a < 1e-12;
}
inline double Clamp(double x) { return x < 1e-12 ? 1e-12 : x; }
// Waived formatting edge (J -> mJ in a report column).
inline double ReportMillijoules(double j) {
  return j * 1e3;  // dmasim-lint: allow(unit-literal-conversion)
}

}  // namespace dmasim

#endif  // DMASIM_MEM_UNIT_FIXTURE_H_
