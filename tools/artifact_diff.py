#!/usr/bin/env python3
"""Compares two `dmasim_sweep --out` artifacts field by field.

    python3 tools/artifact_diff.py PARENT.json HEAD.json
    python3 tools/artifact_diff.py --self-test

Host timing (TIMING_KEYS, at any depth) is ignored; every other value
must be equal. The artifact prints doubles with 17 significant digits,
so equal values are equal bits. For each run that differs, prints the
run's index and label and the first field that differs, as a path such
as `results.energy.ActiveIdleDma`, with both values; a difference outside
the runs is named the same way. Exits 0 when the artifacts agree, 1 when
anything differs, and 2 on a usage error or an unreadable artifact.
Standard library only.
"""

import copy
import io
import json
import pathlib
import sys
import tempfile
from contextlib import redirect_stdout

# The artifact's only host-dependent fields (src/exp/result_sink.h).
TIMING_KEYS = ("wall_seconds", "threads")

MISSING = "<missing>"


def strip_timing(node):
    """Drops TIMING_KEYS at every depth."""
    if isinstance(node, dict):
        return {k: strip_timing(v) for k, v in node.items()
                if k not in TIMING_KEYS}
    if isinstance(node, list):
        return [strip_timing(v) for v in node]
    return node


def _join(path, key):
    return f"{path}.{key}" if path else str(key)


def first_difference(a, b, path=""):
    """(path, a value, b value) of the first differing field, or None.

    Walks depth first, in `a`'s key order, then keys only `b` has. Values
    of different JSON types differ even when Python would call them equal
    (1 and 1.0, or True and 1).
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            if key not in a or key not in b:
                return _join(path, key), a.get(key, MISSING), b.get(key, MISSING)
            found = first_difference(a[key], b[key], _join(path, key))
            if found is not None:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found is not None:
                return found
        if len(a) != len(b):
            return _join(path, "length"), len(a), len(b)
        return None
    if type(a) is not type(b) or a != b:
        return path, a, b
    return None


def diff(a, b):
    """One line per differing run (and one for the rest); empty if equal."""
    a = strip_timing(a)
    b = strip_timing(b)
    runs_a = a.get("runs", [])
    runs_b = b.get("runs", [])
    lines = []
    for i in range(max(len(runs_a), len(runs_b))):
        if i >= len(runs_a) or i >= len(runs_b):
            side = "the first" if i < len(runs_a) else "the second"
            lines.append(f"run {i}: only in {side} artifact")
            continue
        found = first_difference(runs_a[i], runs_b[i])
        if found is not None:
            label = runs_a[i].get("label", "?")
            lines.append(f"run {i} ({label}): {found[0]}: "
                         f"{found[1]!r} != {found[2]!r}")
    rest_a = {k: v for k, v in a.items() if k != "runs"}
    rest_b = {k: v for k, v in b.items() if k != "runs"}
    found = first_difference(rest_a, rest_b)
    if found is not None:
        lines.append(f"artifact: {found[0]}: {found[1]!r} != {found[2]!r}")
    return lines


def load(path):
    try:
        return json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError) as error:
        print(f"artifact_diff: {path}: {error}", file=sys.stderr)
        sys.exit(2)


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if len(argv) != 2:
        print("usage: artifact_diff.py PARENT.json HEAD.json | --self-test",
              file=sys.stderr)
        return 2
    lines = diff(load(argv[0]), load(argv[1]))
    for line in lines:
        print(line)
    if lines:
        print(f"artifact_diff: {len(lines)} difference(s)")
        return 1
    print("artifact_diff: no difference (timing keys ignored)")
    return 0


def _sample_artifact():
    """A two-run artifact in the sweep's schema, values as it prints them."""
    def run(run_id, label, idle_dma):
        return {
            "run_id": run_id, "cell_id": 0, "label": label, "status": "ok",
            "config": {"workload": "OLTP-St", "chips": 32, "buses": 3},
            "results": {
                "energy": {"ActiveServing": 6.988799999999995e-05,
                           "ActiveIdleDma": idle_dma,
                           "LowPowerModes": 0.0011806912006650002},
                "executed_events": 4315,
            },
            "wall_seconds": 0.002,
        }
    return {"sweep": "self-test", "runs_ok": 2, "threads": 1,
            "wall_seconds": 0.01,
            "runs": [run(0, "OLTP-St/baseline", 0.00013475837099999994),
                     run(1, "OLTP-St/DMA-TA/cp10", 0.00012475837099999994)]}


def self_test():
    """Runs the command on two artifacts that differ in one energy bucket
    (and in host timing), and on an artifact against itself."""
    parent = _sample_artifact()
    head = copy.deepcopy(parent)
    head["threads"] = 4
    head["wall_seconds"] = 9.5
    head["runs"][0]["wall_seconds"] = 1.25
    # One ulp away: the smallest change the tool must still name.
    head["runs"][1]["results"]["energy"]["ActiveIdleDma"] = (
        0.00012475837099999997)
    problems = []
    with tempfile.TemporaryDirectory() as scratch:
        paths = [pathlib.Path(scratch) / name for name in ("a.json", "b.json")]
        for path, artifact in zip(paths, (parent, head)):
            path.write_text(json.dumps(artifact))
        for args, want_status, want_text in (
                ([paths[0], paths[1]], 1,
                 "run 1 (OLTP-St/DMA-TA/cp10): results.energy.ActiveIdleDma: "
                 "0.00012475837099999994 != 0.00012475837099999997"),
                ([paths[0], paths[0]], 0, "no difference")):
            out = io.StringIO()
            with redirect_stdout(out):
                status = main([str(p) for p in args])
            text = out.getvalue()
            if status != want_status or want_text not in text:
                problems.append(f"{[p.name for p in args]}: exit {status}, "
                                f"output {text!r}")
            if status == 1 and "run 0" in text:
                problems.append("a run that differs only in timing was named")
    for problem in problems:
        print("artifact_diff self-test: FAIL " + problem, file=sys.stderr)
    print("artifact_diff self-test: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
