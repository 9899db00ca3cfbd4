// Greedy delta-debugging, shared by the protocol checker's action
// traces and the shard harness's drain-order traces.
//
// Classic ddmin chunk removal runs first, then a one-at-a-time sweep
// guarantees the result is 1-minimal: removing any single remaining
// element loses the violation. For action traces a candidate
// subsequence is valid iff every one of its actions is enabled when
// replayed in order AND the run surfaces a violation of the same
// property (mid-replay or at the terminal check).
#ifndef DMASIM_CHECK_MINIMIZER_H_
#define DMASIM_CHECK_MINIMIZER_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "check/action.h"
#include "check/check_config.h"

namespace dmasim::check {

// ddmin over the index set {0, ..., n - 1}. `reproduces` judges a
// candidate given as the ascending indices it keeps; the full set must
// reproduce. Returns the kept indices of a 1-minimal candidate.
std::vector<std::size_t> MinimizeIndices(
    std::size_t n,
    const std::function<bool(const std::vector<std::size_t>&)>& reproduces);

// True when replaying `actions` under `config` reproduces a violation of
// `property` (empty property accepts any violation). All actions must be
// enabled in sequence; the terminal check runs if the replay ends
// violation-free on a quiescent or dead-end state.
bool Reproduces(const CheckerConfig& config,
                const std::vector<Action>& actions,
                const std::string& property);

// Returns a 1-minimal subsequence of `actions` still reproducing
// `property`. `actions` itself must reproduce it.
std::vector<Action> MinimizeTrace(const CheckerConfig& config,
                                  const std::vector<Action>& actions,
                                  const std::string& property);

}  // namespace dmasim::check

#endif  // DMASIM_CHECK_MINIMIZER_H_
