// Fixture: barrier-only-in-window — a worker-context function calling a
// coordinator-only method, and global-mutable-state at namespace scope.
#include <cstdint>
#include <vector>

namespace dmasim {

std::uint64_t g_window_count = 0;  // expect-lint: global-mutable-state
static int g_scratch[4];  // expect-lint: global-mutable-state
constexpr int kLanes = 4;               // Immutable: fine.
const char* const kName = "fixture";    // Immutable: fine.

class FixtureEngine {
 public:
  // dmasim-lint: window-context
  void RunWindow(int shard) {
    ++events_;
    DrainOutboxes(shard);  // expect-lint: barrier-only-in-window
  }

  // Not marked window-context: calling the barrier-only method from the
  // coordinator between windows is the intended use.
  void Barrier() { DrainOutboxes(0); }

 private:
  DMASIM_BARRIER_ONLY void DrainOutboxes(int shard) { (void)shard; }
  DMASIM_SHARD_LOCAL std::uint64_t events_ = 0;
};

}  // namespace dmasim
