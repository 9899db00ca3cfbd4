// Fixture: the sharded engine's surface reaches past src/sim into
// src/server/fleet_driver.*, so nondeterminism-source and the ownership
// rules apply here although src/server is not a hot-path directory
// (clean_cold_path.cc next door stays silent).
#include <chrono>
#include <map>
#include <random>

namespace dmasim {

struct Domain;

int g_domains_started = 0;  // expect-lint: global-mutable-state

unsigned FleetSeed() {
  std::random_device entropy;  // expect-lint: nondeterminism-source
  return entropy();
}

long FleetClock() {
  auto t = std::chrono::steady_clock::now();  // expect-lint: nondeterminism-source
  (void)t;
  return 0;
}

void FleetPointerKeys() {
  std::map<Domain*, int> by_address;  // expect-lint: nondeterminism-source
  (void)by_address;
}

}  // namespace dmasim
