// Visited-set hashing for the explorer: FNV-1a 64 over the canonical
// u64-vector state encoding produced by ProtocolHarness::EncodeState.
//
// The visited set stores only the 64-bit digest, not the encoded vector
// (full paths are kept on the frontier instead, and states are recreated
// by replay). A hash collision would silently merge two distinct states
// and prune one; with ~10^5 reachable states the birthday bound puts the
// odds of any collision around 3 * 10^-10, far below the noise floor of
// a bounded exploration that already truncates at max_depth.
#ifndef DMASIM_CHECK_STATE_HASH_H_
#define DMASIM_CHECK_STATE_HASH_H_

#include <cstdint>
#include <vector>

#include "util/fnv.h"

namespace dmasim::check {

inline std::uint64_t HashState(const std::vector<std::uint64_t>& words) {
  Fnv1a hash;
  for (const std::uint64_t word : words) hash.MixU64(word);
  return hash.hash();
}

}  // namespace dmasim::check

#endif  // DMASIM_CHECK_STATE_HASH_H_
