// Fixture: the Domain's files are on the sharded engine's surface — the
// fleet's workers run its feeder — so the ownership rules and
// nondeterminism-source apply here, although src/server is not a
// hot-path directory (clean_cold_path.cc next door stays silent).
#ifndef DMASIM_SERVER_DOMAIN_H_
#define DMASIM_SERVER_DOMAIN_H_

#include <cstddef>
#include <ctime>

namespace dmasim {

class Simulator;

class Domain {
 public:
  // Results are assembled on the coordinator after the run.
  DMASIM_BARRIER_ONLY void Collect() {}

  // dmasim-lint: window-context
  void Pump() {
    ++cursor_;
    Collect();  // expect-lint: barrier-only-in-window
    stamp_ = std::time(nullptr);  // expect-lint: nondeterminism-source
  }

 private:
  DMASIM_SHARD_LOCAL Simulator* simulator_ = nullptr;  // Annotated: fine.
  std::size_t cursor_ = 0;  // expect-lint: unannotated-member
  DMASIM_SHARD_LOCAL long stamp_ = 0;
};

}  // namespace dmasim

#endif  // DMASIM_SERVER_DOMAIN_H_
