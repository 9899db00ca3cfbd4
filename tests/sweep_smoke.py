#!/usr/bin/env python3
"""Smoke-runs the sweep CLI, or the modern-memory eval, end to end.

    python3 tests/sweep_smoke.py MODE DMASIM_SWEEP
    python3 tests/sweep_smoke.py modern_memory_grid MODERN_MEMORY_EVAL BASELINE

Each sweep mode runs a 20 ms OLTP-St sweep at CP-Limit 0.10 in a
temporary directory and checks what it wrote:

  plain         schemes ta and ta-pl2: the result JSON loads.
  instrumented  scheme ta with --metrics-out and --trace-out: the metrics
                artifact has runs, every run has metrics, at least one
                Perfetto trace is written, and every trace has events and
                dropped none.
  audited       schemes baseline and ta with --audit: the CLI exits 0
                (every audit invariant held) and the result JSON loads.
  chip_models   scheme ta three times: by default, with --chip-model
                rdram and with --chip-model ddr4. The rdram artifact
                equals the default one apart from host timing, no default
                run has a chip_model key, and every ddr4 run is tagged
                (config chip_model "ddr4", scheme suffix "+ddr4").

modern_memory_grid runs `modern_memory_eval 40 0.10`: its (workload, chip
model) rows must be those of the BASELINE artifact, each with a positive
saving and alignment quorum 3.

Exits 1 if a check failed (a failed run raises).
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


def strip_timing(node):
    """Drops the artifact's only host-dependent fields (result_sink.h)."""
    if isinstance(node, dict):
        return {k: strip_timing(v) for k, v in node.items()
                if k not in ("wall_seconds", "threads")}
    if isinstance(node, list):
        return [strip_timing(v) for v in node]
    return node


def chip_models(binary, scratch):
    run(binary, scratch, ["--schemes", "ta", "--out", "sweep_plain.json"])
    run(binary, scratch, ["--schemes", "ta", "--chip-model", "rdram",
                          "--out", "sweep_rdram.json"])
    run(binary, scratch, ["--schemes", "ta", "--chip-model", "ddr4",
                          "--out", "sweep_ddr4.json"])
    problems = []
    plain = strip_timing(json.loads((scratch / "sweep_plain.json").read_text()))
    rdram = strip_timing(json.loads((scratch / "sweep_rdram.json").read_text()))
    if plain != rdram:
        problems.append("--chip-model rdram diverged from the default")
    for record in plain["runs"]:
        if "chip_model" in record["config"]:
            problems.append("a chip_model key leaked into a default artifact")
    ddr4 = json.loads((scratch / "sweep_ddr4.json").read_text())["runs"]
    if not ddr4:
        problems.append("the ddr4 sweep produced no runs")
    for record in ddr4:
        if record["config"].get("chip_model") != "ddr4":
            problems.append(f"untagged ddr4 config: {record['config']}")
        if "+ddr4" not in record["results"]["scheme"]:
            problems.append(f"ddr4 scheme without suffix: "
                            f"{record['results']['scheme']}")
    return problems


def modern_memory_grid(binary, scratch, baseline):
    subprocess.run([binary, "40", "0.10", "--out", "modern_smoke.json"],
                   cwd=scratch, check=True, stdout=subprocess.DEVNULL)
    rows = json.loads((scratch / "modern_smoke.json").read_text())["rows"]
    base = json.loads(pathlib.Path(baseline).read_text())["rows"]
    problems = []

    def grid(table):
        return sorted((row["workload"], row["chip_model"]) for row in table)

    if grid(rows) != grid(base):
        problems.append(f"row grid drifted: {grid(rows)} vs {grid(base)}")
    for row in rows:
        if not row["energy_savings"] > 0.0:
            problems.append(f"no saving: {row}")
        if row["alignment_quorum"] != 3:
            problems.append(f"alignment quorum is not 3: {row}")
    return problems


def audited(binary, scratch):
    run(binary, scratch, ["--schemes", "baseline,ta", "--audit",
                          "--out", "sweep_audited.json"])
    json.loads((scratch / "sweep_audited.json").read_text())
    return []


# Each mode with the arguments it takes after the binary.
MODES = {"plain": (plain, 0), "instrumented": (instrumented, 0),
         "audited": (audited, 0), "chip_models": (chip_models, 0),
         "modern_memory_grid": (modern_memory_grid, 1)}


def main():
    if len(sys.argv) < 3 or sys.argv[1] not in MODES:
        sys.exit(__doc__)
    mode, binary, extra = sys.argv[1], sys.argv[2], sys.argv[3:]
    check, extra_count = MODES[mode]
    if len(extra) != extra_count:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as scratch:
        problems = check(binary, pathlib.Path(scratch), *extra)
    for problem in problems:
        print("FAIL " + problem)
    if problems:
        return 1
    print(f"{mode} sweep ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
