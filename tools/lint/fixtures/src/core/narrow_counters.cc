// Fixture: counter-narrowing -- static_cast of tick/energy counters to
// <64-bit integer types in a hot-path directory.
#include <cstdint>

namespace dmasim {

using Tick = std::int64_t;

struct NarrowCounters {
  Tick now = 0;
  Tick deadline = 0;
  Tick gated_at = 0;
  double energy_joules = 0.0;  // expect-lint: raw-unit-decl
  int chips = 4;

  void Truncate() {
    int a = static_cast<int>(now);                      // expect-lint: counter-narrowing
    auto b = static_cast<std::uint32_t>(deadline);      // expect-lint: counter-narrowing
    auto c = static_cast<std::int32_t>(now - gated_at); // expect-lint: counter-narrowing
    short d = static_cast<short>(energy_joules);        // expect-lint: counter-narrowing
    (void)a; (void)b; (void)c; (void)d;
  }

  void Fine() {
    // Widening a tick keeps all 64 bits.
    auto wide = static_cast<std::uint64_t>(now);
    // Narrowing something that is not a tick/energy counter is out of
    // scope for this rule (sizes, enum values, chip indices).
    int count = static_cast<int>(sizeof(Tick));
    int chip = static_cast<int>(chips + 1);
    // A waived truncation documents why the low bits suffice.
    auto lsb = static_cast<std::uint32_t>(now);  // dmasim-lint: allow(counter-narrowing)
    (void)wide; (void)count; (void)chip; (void)lsb;
  }
};

}  // namespace dmasim
