"""Source rules: hot-path bans, precision, determinism and header guards.

  std-function        No std::function in the hot-path directories
                      (src/sim, src/mem, src/io, src/core, src/mon): the
                      event kernel and chunk pipeline are allocation-free
                      by design; callbacks use InlineFunction/
                      TrivialCallback.
  heap-alloc          No heap allocation (new, make_unique/make_shared,
                      malloc/calloc/realloc) in the hot-path directories.
                      Placement new is allowed (slab/SBO construction).
                      One-time construction sites carry suppressions.
  unordered-iteration Iterating an unordered container produces
                      implementation-defined order; unless the results
                      are sorted (or order-independent) before use, run
                      results silently stop being deterministic.
  float-energy        Energy accounting uses double + integer ticks
                      everywhere; a single float truncation breaks the
                      auditor's bit-exact shadow accounting. Also flags
                      a conditional whose arms mix dimensions (an
                      energy value vs a power value): both are raw
                      doubles, so the mix compiles clean and corrupts
                      the accounting by a factor of the elapsed time.
  counter-narrowing   No static_cast of tick/energy expressions to an
                      integer type narrower than 64 bits in the hot-path
                      directories: ticks are int64 picoseconds, so a
                      32-bit truncation wraps after ~2 ms of simulated
                      time and corrupts every derived statistic.
  float-compare       No ==/!= against floating-point literals in the
                      hot-path directories; after arithmetic, exact
                      equality is a latent heisenbug. Compare against an
                      epsilon or restructure to integer ticks.
  nondeterminism-source
                      No std::random_device, wall clocks (time(),
                      chrono::system_clock/steady_clock/high_resolution_
                      clock), rand(), or pointer-keyed map/set in the
                      hot-path directories or on the sharded engine's
                      surface (ENGINE_SURFACE in ownership_rules.py,
                      whose state is reachable from worker threads):
                      anything that varies across runs (entropy, wall
                      time, ASLR-dependent pointer order) breaks the
                      N-thread == 1-thread bit-identity contract
                      (DESIGN.md section 15). Seeded util/random.h PRNGs
                      and integer sim ticks are the deterministic
                      substitutes.
  header-guard        Guards follow DMASIM_<DIR>_<FILE>_H_.
"""

from __future__ import annotations

import pathlib
import re

from ownership_rules import ENGINE_SURFACE

RULES = ("std-function", "heap-alloc", "unordered-iteration",
         "float-energy", "counter-narrowing", "float-compare",
         "nondeterminism-source", "header-guard")

HOT_PATH_DIRS = ("src/sim/", "src/mem/", "src/io/", "src/core/", "src/mon/")

STD_FUNCTION_RE = re.compile(r"\bstd\s*::\s*function\b")
# A new-expression that is not placement new: `new Foo`, `new (std::nothrow)`
# is also flagged (still a heap allocation), but `new (address) Foo` --
# placement new on slab/SBO storage -- is the allocation-free idiom and
# passes. Distinguishing them: placement new is written `new (expr) Type`
# where expr is not std::nothrow; in this codebase placement new always
# appears as `::new (...)`, so plain `new` followed by `(` without the
# leading `::` is conservatively treated as placement only when spelled
# `::new`.
NEW_EXPR_RE = re.compile(r"(?<![:\w])new\s+[(\w:]")
PLACEMENT_NEW_RE = re.compile(r"::\s*new\s*\(")
MAKE_HEAP_RE = re.compile(r"\bstd\s*::\s*make_(?:unique|shared)\b")
C_ALLOC_RE = re.compile(r"\b(?:malloc|calloc|realloc)\s*\(")
FLOAT_RE = re.compile(r"\bfloat\b")
# A conditional whose arms mix unit dimensions: one arm an energy value
# (joules), the other a power value (milliwatts). Both arms are raw
# doubles, so `cond ? joules : mw` compiles clean and corrupts the
# energy accounting by a factor of the elapsed time; the bare `float`
# keyword check cannot see it. Arm spans are heuristic (single line, up
# to the next `;`/`,`/`)`), which covers the repo's expression style.
TERNARY_ARMS_RE = re.compile(r"\?\s*([^:?]+?)\s*:\s*([^;,)]+)")
ENERGY_ARM_RE = re.compile(r"\b\w*(?:joules?|_j)\b")
POWER_ARM_RE = re.compile(r"\b\w*(?:_mw|milliwatts?)\b")
UNORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<.*?>\s+(\w+)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(.*?:\s*(\w+)\s*\)")
# static_cast to an integer type narrower than 64 bits. The opening paren
# is included so the balanced argument can be extracted and inspected.
NARROW_CAST_RE = re.compile(
    r"\bstatic_cast\s*<\s*(?:std\s*::\s*)?"
    r"(?:int|unsigned(?:\s+int)?|short|u?int(?:8|16|32)_t)\s*>\s*\(")
# Identifiers that mark a cast argument as a 64-bit tick or energy
# counter. Heuristic by design: names follow the repo's conventions
# (Tick-typed locals/members, *_at timestamps, joules/energy doubles).
TICK_ENERGY_TOKEN_RE = re.compile(
    r"\b(?:Tick|[Nn]ow|ticks?|deadline\w*|duration\w*|elapsed\w*|"
    r"epoch\w*|\w+_at\b|joules\w*|energy\w*|residency\w*)")
# A floating-point literal: 1.0, .5, 2.5e3, 1e-9, with optional f suffix.
_FLOAT_LITERAL = r"(?:(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)f?"
FLOAT_COMPARE_RE = re.compile(
    rf"(?:{_FLOAT_LITERAL})\s*(?:==|!=)(?!=)|(?:==|!=)\s*[-+]?{_FLOAT_LITERAL}")
RANDOM_DEVICE_RE = re.compile(r"\bstd\s*::\s*random_device\b")
WALL_CLOCK_RE = re.compile(
    r"\bstd\s*::\s*chrono\s*::\s*"
    r"(?:system_clock|steady_clock|high_resolution_clock)\b")
# A call of the C `time()` function: either `std::time(` or a bare
# `time(` not preceded by a word character, member access, or `::`
# (so `deliver_time(...)`, `obj.time()`, and `Sim::time()` don't match).
TIME_CALL_RE = re.compile(r"(?:\bstd\s*::\s*|(?<![\w.:>]))time\s*\(")
RAND_CALL_RE = re.compile(r"(?:\bstd\s*::\s*|(?<![\w.:>]))s?rand\s*\(")
# A map/set keyed by a pointer type: iteration order depends on ASLR.
POINTER_KEY_RE = re.compile(
    r"\bstd\s*::\s*(?:unordered_)?(?:map|multimap)\s*<\s*[\w:<> ]*?\*\s*,"
    r"|\bstd\s*::\s*(?:unordered_)?(?:set|multiset)\s*<\s*[\w:<> ]*?\*\s*>")


def balanced_argument(line: str, open_index: int) -> str:
    """The parenthesized argument starting at `open_index` ('(').

    Single-line only: an argument spilling to the next line is returned
    up to the line end, which is enough for the token heuristics.
    """
    depth = 0
    for i in range(open_index, len(line)):
        if line[i] == "(":
            depth += 1
        elif line[i] == ")":
            depth -= 1
            if depth == 0:
                return line[open_index + 1:i]
    return line[open_index + 1:]


def expected_guard(rel_path: str) -> str:
    # src/core/slack_account.h -> DMASIM_CORE_SLACK_ACCOUNT_H_
    parts = pathlib.PurePosixPath(rel_path).parts[1:]  # Drop leading src/.
    stem = "_".join(parts)
    stem = re.sub(r"\.h$", "", stem)
    return "DMASIM_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"


def hot_path_findings(line: str):
    """(rule, message) pairs of the hot-path-only rules on one line."""
    if STD_FUNCTION_RE.search(line):
        yield ("std-function",
               "std::function in a hot-path directory; use "
               "InlineFunction/TrivialCallback (src/sim/inline_function.h)")
    heap_hit = MAKE_HEAP_RE.search(line) or C_ALLOC_RE.search(line)
    if not heap_hit and NEW_EXPR_RE.search(line):
        without_placement = PLACEMENT_NEW_RE.sub("        ", line)
        heap_hit = NEW_EXPR_RE.search(without_placement)
    if heap_hit:
        yield ("heap-alloc",
               "heap allocation in a hot-path directory; only placement "
               "new on preallocated storage is allocation-free")
    for match in NARROW_CAST_RE.finditer(line):
        argument = balanced_argument(line, match.end() - 1)
        # sizeof(Tick) is a size, not a counter value.
        argument = re.sub(r"\bsizeof\s*\([^)]*\)", "", argument)
        if TICK_ENERGY_TOKEN_RE.search(argument):
            yield ("counter-narrowing",
                   "static_cast of a tick/energy counter to a <64-bit "
                   "integer type; ticks are int64 picoseconds and wrap a "
                   "32-bit value after ~2 ms of simulated time")
    if FLOAT_COMPARE_RE.search(line):
        yield ("float-compare",
               "==/!= against a floating-point literal in a hot-path "
               "directory; compare with an epsilon or use integer ticks")


def nondeterminism_findings(line: str):
    if RANDOM_DEVICE_RE.search(line):
        yield ("std::random_device draws real entropy; seed a "
               "util/random.h PRNG from configuration instead")
    if WALL_CLOCK_RE.search(line):
        yield ("wall-clock reads vary across runs; simulation state must "
               "be a function of integer sim ticks")
    if TIME_CALL_RE.search(line) or RAND_CALL_RE.search(line):
        yield ("C time()/rand() in a hot-path or engine directory; use sim "
               "ticks and seeded util/random.h PRNGs")
    if POINTER_KEY_RE.search(line):
        yield ("pointer-keyed map/set iterates in ASLR-dependent address "
               "order; key by a stable chip, shard or stream id instead")


def mixed_dimension_ternary(line: str) -> bool:
    for match in TERNARY_ARMS_RE.finditer(line):
        arm_a, arm_b = match.group(1), match.group(2)
        a_energy = bool(ENERGY_ARM_RE.search(arm_a))
        b_energy = bool(ENERGY_ARM_RE.search(arm_b))
        a_power = bool(POWER_ARM_RE.search(arm_a))
        b_power = bool(POWER_ARM_RE.search(arm_b))
        if ((a_energy and not a_power and b_power and not b_energy)
                or (b_energy and not b_power and a_power and not a_energy)):
            return True
    return False


def check_file(file):
    hot = file.under(HOT_PATH_DIRS)
    nondeterminism_scope = hot or file.under(ENGINE_SURFACE)
    unordered_names = set()

    for index, line in enumerate(file.code_lines):
        if hot:
            for rule, message in hot_path_findings(line):
                yield index, rule, message
        if nondeterminism_scope:
            for message in nondeterminism_findings(line):
                yield index, "nondeterminism-source", message
        if FLOAT_RE.search(line):
            yield (index, "float-energy",
                   "float arithmetic; energy accounting is double + "
                   "integer ticks end to end")
        if mixed_dimension_ternary(line):
            yield (index, "float-energy",
                   "conditional mixes an energy arm with a power arm; both "
                   "are raw doubles so the dimension slip compiles clean "
                   "-- convert with EnergyOver (util/units.h) first")
        for match in UNORDERED_DECL_RE.finditer(line):
            unordered_names.add(match.group(1))
        for match in RANGE_FOR_RE.finditer(line):
            if match.group(1) in unordered_names:
                yield (index, "unordered-iteration",
                       f"iteration over unordered container "
                       f"'{match.group(1)}' has implementation-defined "
                       f"order; sort before consuming or justify with a "
                       f"suppression")

    if file.path.endswith(".h"):
        guard = expected_guard(file.path)
        guard_line = next(
            (i for i, line in enumerate(file.code_lines)
             if line.strip().startswith("#ifndef")), None)
        if guard_line is None:
            yield 0, "header-guard", f"missing include guard {guard}"
        else:
            tokens = file.code_lines[guard_line].split()
            actual = tokens[1] if len(tokens) > 1 else ""
            if actual != guard:
                yield (guard_line, "header-guard",
                       f"guard is '{actual}', expected '{guard}'")


def check(files):
    for file in files:
        for index, rule, message in check_file(file):
            yield file, index, rule, message
