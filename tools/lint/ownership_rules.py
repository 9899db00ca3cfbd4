"""Ownership rules: the sharded engine's shard-ownership discipline.

The parallel engine's determinism proof (DESIGN.md section 15) rests on
an ownership discipline: every piece of mutable state reachable from a
worker thread's window context is either owned by exactly one shard,
touched only by the coordinator between windows, or written only while
the engine is quiescent. The discipline is *declared* with the no-op
annotation macros in src/sim/shard_annotations.h; these rules make the
declaration mandatory and machine-checked over the engine's surface
(ENGINE_SURFACE: src/sim plus src/server/domain.* and
src/server/fleet_driver.*):

  unannotated-member      Every mutable data member of a class/struct in
                          scope carries DMASIM_SHARD_LOCAL,
                          DMASIM_BARRIER_ONLY, or DMASIM_SHARED_CONST.
                          Pure value types (messages, option blocks) opt
                          out with a class-level waiver on the head line.
  barrier-only-in-window  A function marked `// dmasim-lint:
                          window-context` (it runs on a worker inside a
                          window) must not call a method declared
                          DMASIM_BARRIER_ONLY anywhere in scope.
  global-mutable-state    No mutable namespace-scope variables in scope:
                          globals are reachable from every worker, so
                          they are either racy or a hidden barrier.

The engine surface is also in nondeterminism-source's scope (entropy,
wall clocks, pointer-keyed containers; see source_rules.py).

Known limitations (deliberate -- the pass is line-based, not a parser):
a member declaration that spans lines or contains parentheses (function
pointers, paren initializers) is skipped by unannotated-member, and
barrier-only-in-window matches calls by name, so an in-scope method
sharing a barrier-only method's name is flagged conservatively.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Set, Tuple

RULES = ("unannotated-member", "barrier-only-in-window",
         "global-mutable-state")

# The sharded engine's surface: files whose state is reachable from
# ShardedEngine / RunFleet worker context (the fleet's workers run each
# Domain's feeder). Relative-path prefixes, POSIX separators. The
# nondeterminism-source rule (source_rules.py) shares this scope.
ENGINE_SURFACE = ("src/sim/", "src/server/domain.",
                  "src/server/fleet_driver.")

ANNOTATIONS = ("DMASIM_SHARD_LOCAL", "DMASIM_BARRIER_ONLY",
               "DMASIM_SHARED_CONST")
ANNOTATION_RE = re.compile("|".join(ANNOTATIONS))

# A barrier-only *method*: the annotation followed by a declaration whose
# name precedes an argument list. Data members don't match (no paren).
BARRIER_METHOD_RE = re.compile(
    r"DMASIM_BARRIER_ONLY\s+(?:[\w:<>,&*~\s]*?[\s&*])?([A-Za-z_]\w*)\s*\(")

# A single-line data-member declaration: type tokens then a name,
# optional array extent / default initializer, terminated on this line.
# Parentheses anywhere disqualify the line (function declarations,
# paren initializers -- see the limitations note above).
MEMBER_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?[\w:]+(?:\s*<[^()]*>)?(?:\s*[&*]+\s*|\s+)"
    r"[A-Za-z_]\w*\s*(?:\[[^\]]*\]\s*)?(?:=\s*[^;()]+|\{[^;()]*\})?;\s*$")

# First token(s) that mark a line as not-a-mutable-member.
MEMBER_EXCLUDE_RE = re.compile(
    r"^\s*(?:static\b|constexpr\b|const\b|using\b|typedef\b|friend\b|"
    r"enum\b|class\b|struct\b|union\b|template\b|public\s*:|"
    r"private\s*:|protected\s*:|#)")

GLOBAL_EXCLUDE_RE = re.compile(
    r"^\s*(?:static\s+)?(?:constexpr\b|const\b|extern\b|using\b|"
    r"typedef\b|friend\b|enum\b|class\b|struct\b|union\b|template\b|"
    r"namespace\b|#)")


class Scope(NamedTuple):
    kind: str       # class | namespace | enum | block
    exempt: bool    # Class-level unannotated-member waiver.


def scope_kinds_per_line(file) -> List[List[Scope]]:
    """The scope stack in effect at the *start* of each line.

    Each `{` is classified by its head -- the text between the previous
    `;`, `{`, or `}` and the brace: `class`/`struct`/`union` opens a
    class scope, `namespace` a namespace, `enum` an enum; anything else
    (function bodies, initializer lists, lambdas) is a block.
    """
    stripped = file.code
    stacks: List[List[Scope]] = []
    stack: List[Scope] = []
    head_start = 0
    line_index = 0
    stacks.append(list(stack))
    for i, c in enumerate(stripped):
        if c == "\n":
            line_index += 1
            stacks.append(list(stack))
        elif c == "{":
            head = stripped[head_start:i]
            if re.search(r"\benum\b", head):
                kind = "enum"
            elif re.search(r"\b(?:class|struct|union)\b", head) \
                    and "(" not in head:
                kind = "class"
            elif re.search(r"\bnamespace\b", head):
                kind = "namespace"
            else:
                kind = "block"
            # The class-level waiver lives in a comment on the head
            # line(s), which the stripper blanked: consult the waivers.
            head_first_line = stripped[:head_start].count("\n")
            exempt = kind == "class" and any(
                "unannotated-member" in allows
                for allows in file.allows[head_first_line:line_index + 1])
            stack.append(Scope(kind, exempt))
            head_start = i + 1
        elif c in "};":
            if c == "}" and stack:
                stack.pop()
            head_start = i + 1
    return stacks


def window_context_regions(file) -> List[Tuple[int, int]]:
    """(start, end) line-index ranges of window-context function bodies.

    A marker comment applies to the next function: the region runs from
    the first `{` at or after the marker to its matching `}`.
    """
    regions: List[Tuple[int, int]] = []
    for marker_index in file.window_context_markers:
        depth = 0
        started = False
        for index in range(marker_index, len(file.code_lines)):
            for c in file.code_lines[index]:
                if c == "{":
                    depth += 1
                    started = True
                elif c == "}":
                    depth -= 1
            if started and depth <= 0:
                regions.append((marker_index, index))
                break
        else:
            regions.append((marker_index, len(file.code_lines) - 1))
    return regions


def check_file(file, barrier_methods: Set[str]):
    scopes = scope_kinds_per_line(file)
    for index, line in enumerate(file.code_lines):
        stack = scopes[index] if index < len(scopes) else []
        innermost = stack[-1] if stack else Scope("file", False)

        if innermost.kind == "class" and not innermost.exempt:
            if (not ANNOTATION_RE.search(line)
                    and not MEMBER_EXCLUDE_RE.match(line)
                    and MEMBER_DECL_RE.match(line)):
                yield (index, "unannotated-member",
                       "mutable data member without a shard-ownership "
                       "annotation; declare DMASIM_SHARD_LOCAL, "
                       "DMASIM_BARRIER_ONLY, or DMASIM_SHARED_CONST "
                       "(src/sim/shard_annotations.h), or waive the "
                       "class as a value type")

        if innermost.kind in ("namespace", "file"):
            # `static` at namespace scope is linkage, not immutability:
            # drop it before the keyword exclusion so `static int g;`
            # is still a mutable global.
            global_line = re.sub(r"^(\s*)static\s+", r"\1", line)
            if (not GLOBAL_EXCLUDE_RE.match(global_line)
                    and MEMBER_DECL_RE.match(global_line)
                    and not ANNOTATION_RE.search(line)):
                yield (index, "global-mutable-state",
                       "mutable namespace-scope variable in the sharded "
                       "engine's surface; globals are reachable from "
                       "every worker thread")

    for start, end in window_context_regions(file):
        for index in range(start, end + 1):
            line = file.code_lines[index]
            # The annotated declaration/definition itself is not a call.
            if "DMASIM_BARRIER_ONLY" in line:
                continue
            for name in barrier_methods:
                for _ in re.finditer(r"\b" + re.escape(name) + r"\s*\(",
                                     line):
                    yield (index, "barrier-only-in-window",
                           f"call of barrier-only method '{name}' from a "
                           f"window-context function; barrier-only state "
                           f"may only be touched by the coordinator "
                           f"between windows")


def check(files):
    in_scope = [file for file in files if file.under(ENGINE_SURFACE)]
    barrier_methods = {match.group(1) for file in in_scope
                       for match in BARRIER_METHOD_RE.finditer(file.code)}
    for file in in_scope:
        for index, rule, message in check_file(file, barrier_methods):
            yield file, index, rule, message
