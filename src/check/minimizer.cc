#include "check/minimizer.h"

#include <algorithm>
#include <numeric>

#include "check/explorer.h"
#include "check/protocol_harness.h"
#include "util/check.h"

namespace dmasim::check {

bool Reproduces(const CheckerConfig& config,
                const std::vector<Action>& actions,
                const std::string& property) {
  ProtocolHarness harness(config);
  std::size_t applied = 0;
  const bool complete = ReplayActions(actions, &harness, &applied);
  if (!harness.violation().has_value()) {
    if (!complete) return false;  // An action was not enabled: invalid.
    // Violation may only surface at the terminal pass (full drain).
    std::vector<Action> enabled;
    harness.EnabledActions(&enabled);
    if (!harness.Quiescent() && !enabled.empty()) return false;
    harness.CheckTerminal();
    if (!harness.violation().has_value()) return false;
  }
  return property.empty() || harness.violation()->property == property;
}

namespace {

std::vector<std::size_t> WithoutRange(const std::vector<std::size_t>& kept,
                                      std::size_t begin, std::size_t end) {
  std::vector<std::size_t> candidate;
  candidate.reserve(kept.size() - (end - begin));
  for (std::size_t i = 0; i < kept.size(); ++i) {
    if (i < begin || i >= end) candidate.push_back(kept[i]);
  }
  return candidate;
}

}  // namespace

std::vector<std::size_t> MinimizeIndices(
    std::size_t n,
    const std::function<bool(const std::vector<std::size_t>&)>& reproduces) {
  std::vector<std::size_t> current(n);
  std::iota(current.begin(), current.end(), std::size_t{0});

  // ddmin: partition into `chunks` pieces, greedily drop any piece whose
  // removal still reproduces; refine granularity when nothing drops.
  std::size_t chunks = 2;
  while (current.size() >= 2 && chunks <= current.size()) {
    const std::size_t chunk_size =
        (current.size() + chunks - 1) / chunks;  // ceil
    bool removed = false;
    for (std::size_t begin = 0; begin < current.size(); begin += chunk_size) {
      const std::size_t end = std::min(begin + chunk_size, current.size());
      std::vector<std::size_t> candidate = WithoutRange(current, begin, end);
      if (reproduces(candidate)) {
        current = std::move(candidate);
        chunks = std::max<std::size_t>(2, chunks - 1);
        removed = true;
        break;
      }
    }
    if (!removed) chunks *= 2;
  }

  // One-at-a-time sweep to a 1-minimal fixpoint.
  bool shrunk = true;
  while (shrunk && current.size() > 1) {
    shrunk = false;
    for (std::size_t i = 0; i < current.size(); ++i) {
      std::vector<std::size_t> candidate = WithoutRange(current, i, i + 1);
      if (reproduces(candidate)) {
        current = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return current;
}

std::vector<Action> MinimizeTrace(const CheckerConfig& config,
                                  const std::vector<Action>& actions,
                                  const std::string& property) {
  DMASIM_EXPECTS(Reproduces(config, actions, property));
  const auto pick = [&actions](const std::vector<std::size_t>& kept) {
    std::vector<Action> subset;
    subset.reserve(kept.size());
    for (const std::size_t i : kept) subset.push_back(actions[i]);
    return subset;
  };
  return pick(MinimizeIndices(
      actions.size(), [&](const std::vector<std::size_t>& kept) {
        return Reproduces(config, pick(kept), property);
      }));
}

}  // namespace dmasim::check
