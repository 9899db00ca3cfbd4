// Fixture: unannotated-member — mutable class state in the engine
// surface must declare its shard ownership.
#ifndef DMASIM_SIM_BAD_MEMBERS_H_
#define DMASIM_SIM_BAD_MEMBERS_H_

#include <cstdint>
#include <vector>

namespace dmasim {

class LeakyShardState {
 public:
  int shard_count() const { return shard_count_; }

 private:
  int shard_count_ = 0;  // expect-lint: unannotated-member
  std::vector<std::uint64_t> digests_;  // expect-lint: unannotated-member
  DMASIM_SHARD_LOCAL std::uint64_t owned_counter_ = 0;  // Annotated: fine.
  DMASIM_BARRIER_ONLY bool running_ = false;            // Annotated: fine.
  DMASIM_SHARED_CONST int lanes_ = 4;                   // Annotated: fine.
  static constexpr int kLimit = 8;  // Immutable: no annotation needed.
  // dmasim-lint: allow(unannotated-member) -- justified single waiver
  int waived_member_ = 0;
};

// dmasim-lint: allow(unannotated-member) -- POD value type, whole-class
// waiver on the head line.
struct PlainMessageValue {
  std::uint64_t payload = 0;
  std::uint32_t tag = 0;
};

}  // namespace dmasim

#endif  // DMASIM_SIM_BAD_MEMBERS_H_
