#!/usr/bin/env python3
"""Smoke-runs the sweep CLI end to end, in one of three modes.

    python3 tests/sweep_smoke.py MODE DMASIM_SWEEP

Each mode runs a 20 ms OLTP-St sweep at CP-Limit 0.10 in a temporary
directory and checks what it wrote:

  plain         schemes ta and ta-pl2: the result JSON loads.
  instrumented  scheme ta with --metrics-out and --trace-out: the metrics
                artifact has runs, every run has metrics, at least one
                Perfetto trace is written, and every trace has events and
                dropped none.
  audited       schemes baseline and ta with --audit: the CLI exits 0
                (every audit invariant held) and the result JSON loads.

Exits 1 on the first failed check (a failed sweep raises).
"""

import json
import pathlib
import subprocess
import sys
import tempfile

SWEEP = ["--workloads", "oltp-st", "--cp-limits", "0.10",
         "--duration-ms", "20"]


def run(binary, scratch, extra):
    subprocess.run([binary] + SWEEP + extra, cwd=scratch, check=True,
                   stdout=subprocess.DEVNULL)


def plain(binary, scratch):
    run(binary, scratch, ["--schemes", "ta,ta-pl2", "--out", "sweep.json"])
    json.loads((scratch / "sweep.json").read_text())
    return []


def instrumented(binary, scratch):
    run(binary, scratch, ["--schemes", "ta", "--out", "sweep_obs.json",
                          "--metrics-out", "metrics.json",
                          "--trace-out", "trace"])
    problems = []
    metrics = json.loads((scratch / "metrics.json").read_text())
    if not metrics["runs"]:
        problems.append("metrics artifact has no runs")
    if not all(run["metrics"] for run in metrics["runs"]):
        problems.append("a run in the metrics artifact has no metrics")
    traces = sorted(scratch.glob("trace-run*.json"))
    if not traces:
        problems.append("no Perfetto traces written")
    for path in traces:
        doc = json.loads(path.read_text())
        if not doc["traceEvents"]:
            problems.append(f"{path.name}: empty traceEvents")
        if doc["metadata"]["dropped_events"] != 0:
            problems.append(f"{path.name}: dropped "
                            f"{doc['metadata']['dropped_events']} events")
    return problems


def audited(binary, scratch):
    run(binary, scratch, ["--schemes", "baseline,ta", "--audit",
                          "--out", "sweep_audited.json"])
    json.loads((scratch / "sweep_audited.json").read_text())
    return []


MODES = {"plain": plain, "instrumented": instrumented, "audited": audited}


def main():
    if len(sys.argv) != 3 or sys.argv[1] not in MODES:
        sys.exit(__doc__)
    mode, binary = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory() as scratch:
        problems = MODES[mode](binary, pathlib.Path(scratch))
    for problem in problems:
        print("FAIL " + problem)
    if problems:
        return 1
    print(f"{mode} sweep ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
