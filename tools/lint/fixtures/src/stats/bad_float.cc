// Fixture: float is banned everywhere in src/ (energy accounting is
// double + integer ticks end to end).
namespace dmasim {

double Accumulate(double joules) {  // expect-lint: raw-unit-param
  float truncated = static_cast<float>(joules);  // expect-lint: float-energy
  return static_cast<double>(truncated);
}

// A unit-mixed conditional: both arms are doubles, so picking a power
// where an energy is expected compiles clean. The plain `float` keyword
// regex misses it; the ternary-arm check must not.
double Select(bool use_cap, double cap_joules, double state_mw) {  // expect-lint: raw-unit-param
  return use_cap ? cap_joules : state_mw;  // expect-lint: float-energy
}

// Same-dimension conditionals are fine: no finding.
double Pick(bool hi, double peak_joules, double idle_joules) {  // expect-lint: raw-unit-param
  return hi ? peak_joules : idle_joules;
}

}  // namespace dmasim
