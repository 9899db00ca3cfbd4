"""Unit rules: the hot layers keep using the util/units.h quantity types.

src/util/units.h gives every dimensioned quantity the simulator trades
in — picosecond durations, milliwatt powers, joule energies, byte
counts, byte/s rates — a zero-overhead strong type, and confines the
cross-dimension math to four named conversions (EnergyOver, SecondsOf,
TicksOf, TransferDuration). The compiler enforces the types where they
are *used*; these rules (DESIGN.md section 17) enforce that the hot
layers keep *using* them instead of quietly reverting to bare `double`s:

  raw-unit-param          A function parameter of raw `double` (or raw
                          `Tick`) whose name carries a unit suffix
                          (`_mw`, `joules`, `_watts`, `_seconds`,
                          `duration`, `latency`) in scope. The name
                          says the value is dimensioned, so the
                          signature must say it too: take
                          MilliwattPower / JoulesEnergy / Seconds /
                          Ticks and the mixup becomes a compile error.
  raw-unit-decl           A `double` variable or member declaration
                          named like an energy or power quantity.
                          Accumulating joules in a bare double skips
                          the dimension check on every `+=` that feeds
                          it. Audited raw edges (the Table 1
                          calibration literals, JSON serialization)
                          carry explicit waivers.
  unit-literal-conversion Multiplicative use of a unit conversion
                          factor (1e-3 mW->W, 1e3 J->mJ, 1e12 /
                          1e-12 s<->ps) outside src/util/units.h and
                          src/util/time.h. Inline factors re-derive
                          what the named conversions already pin
                          bit-for-bit; a transposed exponent here is
                          exactly the bug class the types exist to
                          kill. Additive epsilons (`x + 1e-12`) and
                          comparison tolerances do not match: only a
                          factor adjacent to `*` or `/` is flagged.

Known limitations (deliberate -- the pass is line-based, not a parser):
a parameter list spanning lines is inspected line by line, so a unit
name on a continuation line is still caught but its enclosing function
is not identified; template arguments containing commas can make a
member declaration look like a parameter (none in scope today).
"""

from __future__ import annotations

import re

RULES = ("raw-unit-param", "raw-unit-decl", "unit-literal-conversion")

# Layers migrated onto the quantity types. Relative-path prefixes,
# POSIX separators. src/util, src/io, and src/trace stay out of scope:
# units.h/time.h define the conversions, and the I/O + trace-parsing
# edges are raw by design (documented in DESIGN.md §17).
SCOPE_PREFIXES = ("src/mem/", "src/core/", "src/sim/", "src/stats/",
                  "src/audit/", "src/mon/", "src/server/", "src/exp/")

# Files allowed to spell conversion factors: they *define* the
# conversions everything else must route through.
CONVERSION_HOME = ("src/util/units.h", "src/util/time.h")

# A unit-suffixed name: the repo's conventions for dimensioned doubles
# (Table 1 uses *_mw; energies are *joules* / *_j; report edges use
# *_seconds / *_watts).
UNIT_NAME = r"\w*(?:_mw|_milliwatts?|joules?|_j|_watts?|_seconds?)\b"
DURATION_NAME = r"\w*(?:duration|latency)\w*"

# A raw-double parameter with a unit-suffixed name: `(double x_mw,` /
# `, double joules)` / `(double total_joules = 0.0)`.
RAW_DOUBLE_PARAM_RE = re.compile(
    rf"[(,]\s*(?:const\s+)?double\s+({UNIT_NAME})\s*[,)=]")
# A raw-Tick parameter named as a duration: absolute timestamps stay
# `Tick` (names like now/when/deadline/at), but a `Tick duration` or
# `Tick wake_latency` is a span and must be `Ticks`.
RAW_TICK_PARAM_RE = re.compile(
    rf"[(,]\s*(?:const\s+)?Tick\s+({DURATION_NAME})\s*[,)=]")

# A `double` variable/member declaration named like an energy or power
# quantity. Parameters are the other rule's job: a declaration line
# starts at the line head (optional const/static), ends in `;` or `=`.
RAW_UNIT_DECL_RE = re.compile(
    rf"^\s*(?:static\s+|constexpr\s+|const\s+)*double\s+"
    rf"({UNIT_NAME})\s*(?:=|;|\{{)")

# A unit conversion factor used multiplicatively. 1e-3 (mW->W),
# 1e3 (J->mJ, GB->B prefixes), 1e12/1e-12 (s<->ps). Adjacency to * or /
# distinguishes a conversion from an additive epsilon or tolerance.
CONVERSION_FACTOR = r"1(?:\.0*)?[eE][-+]?(?:3|12)\b"
CONVERSION_MUL_RE = re.compile(
    rf"[*/]\s*{CONVERSION_FACTOR}|{CONVERSION_FACTOR}\s*[*/]")


def check_file(file):
    for index, line in enumerate(file.code_lines):
        for match in RAW_DOUBLE_PARAM_RE.finditer(line):
            yield (index, "raw-unit-param",
                   f"raw double parameter '{match.group(1)}' carries a "
                   f"unit in its name; take MilliwattPower / "
                   f"JoulesEnergy / Seconds (util/units.h) so a "
                   f"dimension mixup fails to compile")
        for match in RAW_TICK_PARAM_RE.finditer(line):
            yield (index, "raw-unit-param",
                   f"raw Tick parameter '{match.group(1)}' is a "
                   f"duration; take Ticks (util/units.h) -- absolute "
                   f"calendar timestamps are the only raw-Tick edge")
        for match in RAW_UNIT_DECL_RE.finditer(line):
            yield (index, "raw-unit-decl",
                   f"raw double '{match.group(1)}' holds a dimensioned "
                   f"quantity; declare it JoulesEnergy / MilliwattPower "
                   f"(util/units.h), or waive an audited raw edge")
        if CONVERSION_MUL_RE.search(line):
            yield (index, "unit-literal-conversion",
                   "inline unit conversion factor; route through the "
                   "named conversions in util/units.h (EnergyOver, "
                   "SecondsOf, TicksOf, TransferDuration) so the "
                   "double-precision result stays pinned in one place")


def check(files):
    for file in files:
        if file.under(SCOPE_PREFIXES) and file.path not in CONVERSION_HOME:
            for index, rule, message in check_file(file):
                yield file, index, rule, message
