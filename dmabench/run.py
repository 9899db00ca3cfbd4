#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 dmabench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 dmabench/run.py --self-test [--seconds S]

Run from the repository root. The first form builds the simulator library
and the dmabench program from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), runs one workload and relays its output: the last stdout
line is the result object {"correct", "attempted", "failed", "metrics"}.
With --trace 1 the span records are written next to the build.

--self-test runs every workload once untraced and once traced, plus one
untraced run on a held-out seed, and asserts that every metric named in
BENCHMARK.json is printed with its unit and that every check passes.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "dmabench"
RUN_TIMEOUT_S = 175
# Seeds 1-10 were used while tuning the benchmark; this one was not.
HELD_OUT_SEED = 9001


def log(message):
    print(f"dmabench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "dmabench"


def build():
    """Configures (once) and builds; returns the binary path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(step))
            return None
    return out / "dmabench"


def commit_id():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the measured sources, for checkouts without git."""
    digest = hashlib.sha256()
    files = sorted(p for d in ("src", "dmabench") for p in (ROOT / d).rglob("*")
                   if p.is_file())
    files.append(ROOT / "examples" / "schemes" / "hot_cold.scheme")
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_once(binary, workload, seed, seconds, trace, capture):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--repo-root", str(ROOT), "--commit", commit_id(),
           "--source-digest", source_digest()]
    if trace:
        cmd += ["--spans-out",
                str(build_dir() / f"spans-{workload}-{seed}.csv")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return None


def self_test(binary, seconds):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    # Printed by the untraced run but not part of its metrics object.
    printed_only = ["cp_degradation_pct", "fail_ratio"]
    provenance = ["cpu_count", "compiler", "build_type", "build_flags",
                  "commit", "source_digest", "seed"]
    problems = []
    cases = [(w["name"], 1, t) for w in spec["workloads"] for t in (0, 1)]
    cases += [(w["name"], HELD_OUT_SEED, 0) for w in spec["workloads"]]
    for workload, seed, trace in cases:
        label = f"{workload} seed={seed} trace={trace}"
        done = run_once(binary, workload, seed, seconds, trace, capture=True)
        if done is None or done.returncode != 0:
            problems.append(f"{label}: did not exit 0")
            continue
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2].removeprefix("detail: "))
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"{label}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] != 0:
            problems.append(f"{label}: checks failed {detail['failed_checks']}")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected[trace]:
            problems.append(f"{label}: metrics differ from BENCHMARK.json")
        for name in (printed_only if trace == 0 else []):
            if not any(line.split()[1:2] == [name] for line in lines[:-2]):
                problems.append(f"{label}: {name} not printed")
        for key in provenance:
            if key not in detail:
                problems.append(f"{label}: no {key} in detail")
        log(f"self-test {label}: attempted {result['attempted']}, "
            f"failed {result['failed']}")
    for problem in problems:
        log("FAIL " + problem)
    log("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary, args.seconds or 1)
    done = run_once(binary, args.workload, args.seed, args.seconds,
                    args.trace, capture=False)
    return 1 if done is None else done.returncode


if __name__ == "__main__":
    sys.exit(main())
