#!/usr/bin/env python3
"""Repo-specific static checks for dmasim.

Enforces the invariants the simulator's performance and determinism story
rests on, which generic linters cannot know about. One engine runs three
rule modules; each module's docstring is its rule catalog:

  source_rules.py     Hot-path allocation, precision and determinism bans,
                      unordered iteration, header guards.
  ownership_rules.py  Shard-ownership discipline of the sharded engine
                      (DESIGN.md section 15).
  unit_rules.py       Unit-dimension discipline of the util/units.h
                      quantity types (DESIGN.md section 17).

The engine scans every .h/.cc file under <root>/src with comments and
string literals blanked, so a rule never matches prose or a string.

A finding can be waived with a comment on the same or preceding line:

    // dmasim-lint: allow(<rule>)  -- why this site is fine

For unannotated-member, the same comment on a class/struct head line
waives the whole body (the value-type opt-out). A function whose body
runs on a worker thread inside an engine window is marked with

    // dmasim-lint: window-context

on the line before it (see barrier-only-in-window).

Exit status: 0 clean, 1 findings, 2 bad invocation / self-test failure.
`--self-test` scans tools/lint/fixtures, where every expected finding
carries `// expect-lint: <rule>`. It fails unless the GitHub-format scan
exits 1 and prints exactly one ::error annotation per expected finding
and nothing else, and every rule fires at least once, so a rule that
silently stops matching fails CI instead of rotting.
"""

from __future__ import annotations

import argparse
import collections
import pathlib
import re
import subprocess
import sys
from typing import Iterable, List, NamedTuple, Optional, Set

import ownership_rules
import source_rules
import unit_rules

RULE_MODULES = (source_rules, ownership_rules, unit_rules)

WAIVER_RE = re.compile(r"//.*?dmasim-lint:\s*allow\(([a-z-]+)\)")
WINDOW_CONTEXT_RE = re.compile(r"//\s*dmasim-lint:\s*window-context\b")
EXPECT_RE = re.compile(r"//\s*expect-lint:\s*([a-z-]+)")
GITHUB_ERROR_RE = re.compile(
    r"^::error file=([^,]+),line=(\d+),title=dmasim-lint \[([a-z-]+)\]::")


class Finding(NamedTuple):
    path: str  # Relative to the scanned root, POSIX separators.
    line: int  # 1-based.
    rule: str
    message: str


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving newlines.

    Keeps line/column alignment so findings point at real source lines.
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


class SourceFile:
    """One scanned file, as every rule module sees it."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path  # Relative to the scanned root, POSIX separators.
        self.raw_lines = text.splitlines()
        self.code = strip_comments_and_strings(text)
        self.code_lines = self.code.splitlines()
        # Rules named by an allow() on each line (that line only).
        self.allows: List[Set[str]] = [set(WAIVER_RE.findall(line))
                                       for line in self.raw_lines]
        # Line indices of window-context markers.
        self.window_context_markers = [
            i for i, line in enumerate(self.raw_lines)
            if WINDOW_CONTEXT_RE.search(line)]

    def under(self, prefixes) -> bool:
        return self.path.startswith(prefixes)

    def waived(self, index: int, rule: str) -> bool:
        """An allow() covers its own line and the next one."""
        return any(rule in self.allows[i] for i in (index, index - 1)
                   if 0 <= i < len(self.allows))


def scan(root: pathlib.Path) -> List[Finding]:
    files = [SourceFile(path.relative_to(root).as_posix(),
                        path.read_text(encoding="utf-8"))
             for path in sorted((root / "src").rglob("*"))
             if path.suffix in (".h", ".cc")]
    findings = [Finding(file.path, index + 1, rule, message)
                for module in RULE_MODULES
                for file, index, rule, message in module.check(files)
                if not file.waived(index, rule)]
    return sorted(findings)


def print_findings(findings: Iterable[Finding], fmt: str = "text") -> None:
    for f in findings:
        if fmt == "github":
            # GitHub Actions workflow command: annotates the PR diff line.
            print(f"::error file={f.path},line={f.line},"
                  f"title=dmasim-lint [{f.rule}]::{f.message}")
        else:
            print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")


def self_test() -> int:
    """The fixture scan must report each expect-lint annotation once."""
    fixtures = pathlib.Path(__file__).resolve().parent / "fixtures"
    expected: collections.Counter = collections.Counter()
    for path in sorted((fixtures / "src").rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(fixtures).as_posix()
        lines = path.read_text(encoding="utf-8").splitlines()
        for index, line in enumerate(lines):
            for match in EXPECT_RE.finditer(line):
                expected[(rel, index + 1, match.group(1))] += 1

    # Through the command line, as CI runs it: exit status and the
    # ::error annotations are part of the contract.
    run = subprocess.run(
        [sys.executable, __file__, "--root", str(fixtures),
         "--format=github"], capture_output=True, text=True, check=False)
    problems = []
    if run.returncode != 1:
        problems.append(f"fixture scan exited {run.returncode}, expected 1"
                        f"\n{run.stderr}")
    reported: collections.Counter = collections.Counter()
    for line in run.stdout.splitlines():
        if not line.startswith("::error"):
            continue
        match = GITHUB_ERROR_RE.match(line)
        if match:
            reported[(match[1], int(match[2]), match[3])] += 1
        else:
            problems.append(f"malformed annotation: {line}")
    for rel, line, rule in sorted(expected - reported):
        problems.append(f"{rel}:{line}: expected [{rule}], not reported")
    for rel, line, rule in sorted(reported - expected):
        problems.append(f"{rel}:{line}: unexpected [{rule}]")
    fired = {rule for _, _, rule in expected}
    for rule in sorted(set().union(*(m.RULES for m in RULE_MODULES))
                       - fired):
        problems.append(f"rule [{rule}] has no expect-lint fixture")
    for problem in problems:
        print(f"self-test: {problem}")
    if problems:
        return 2
    print(f"self-test: ok ({sum(expected.values())} expected findings, "
          f"{len(fired)} rules, all reported, no extras)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[2],
                        help="repository root (default: this script's repo)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the rules against tools/lint/fixtures")
    parser.add_argument("--format", choices=("text", "github"),
                        default="text",
                        help="finding output format; 'github' emits "
                             "::error workflow commands that annotate PRs")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not (args.root / "src").is_dir():
        parser.error(f"no src/ under {args.root}")

    findings = scan(args.root)
    print_findings(findings, args.format)
    if findings:
        print(f"dmasim_lint: {len(findings)} finding(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
