#!/usr/bin/env python3
"""Runs the repository benchmark on two checkouts in alternating pairs.

    python3 tools/bench_pairs.py --parent DIR --head DIR --workload NAME \\
        --seeds 1-10 [--seconds 15]
    python3 tools/bench_pairs.py --self-test

Pair i runs `dmabench/run.py --workload NAME --seed S --seconds N
--trace 0` once in each checkout, on the i-th seed: the parent first on
odd pairs, the head first on even ones, so slow stretches of a shared
host fall on both sides alike. Each checkout builds into its own
CARGO_TARGET_DIR (DIR/.bench_build). Checkout paths of different lengths
get a warning: the root path's length alone has moved the fleet
workload's figures.

At the end it prints, for every end-to-end metric in the head's
BENCHMARK.json, the median and quartiles of each side, the ratio of the
medians (head over parent) and the pairs the head won, lost and tied
(by the metric's `better` direction), plus the failed-check total.
Standard library only.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

SIDES = ("parent", "head")


def log(message):
    print(f"bench_pairs: {message}", file=sys.stderr, flush=True)


def parse_seeds(text):
    """'1-3,9001' -> [1, 2, 3, 9001]."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def pair_order(pair):
    """Sides in run order for 1-based pair `pair`: parent first if odd."""
    return SIDES if pair % 2 == 1 else SIDES[::-1]


def path_length_warning(parent, head):
    if len(str(parent)) == len(str(head)):
        return None
    return (f"checkout paths differ in length ({len(str(parent))} vs "
            f"{len(str(head))} characters); the root path's length alone "
            "moves the fleet figures, so use paths of equal length")


def parse_result(stdout):
    """The result object on the last line of a dmabench run's stdout."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    return {"failed": int(result["failed"]),
            "correct": bool(result["correct"]),
            "metrics": {name: float(m["value"])
                        for name, m in result["metrics"].items()}}


def quartiles(values):
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, mid, high


def summarize(spec, pairs):
    """Report lines for `pairs`, a list of {side: parsed result}."""
    lines = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [p[side]["metrics"][name] for p in pairs
                         if name in p[side]["metrics"]] for side in SIDES}
        if not values["parent"] or len(values["parent"]) != len(
                values["head"]):
            lines.append(f"{name}: missing from some runs")
            continue
        higher = metric["better"] == "higher"
        wins = losses = 0
        for old, new in zip(values["parent"], values["head"]):
            if new != old:
                if (new > old) == higher:
                    wins += 1
                else:
                    losses += 1
        ties = len(values["head"]) - wins - losses
        stats = {side: quartiles(values[side]) for side in SIDES}
        ratio = (stats["head"][1] / stats["parent"][1]
                 if stats["parent"][1] else float("nan"))
        lines.append(
            f"{name} ({metric['unit']}, {metric['better']} is better): "
            f"parent {stats['parent'][1]:.6g} "
            f"({stats['parent'][0]:.6g}-{stats['parent'][2]:.6g}) -> "
            f"head {stats['head'][1]:.6g} "
            f"({stats['head'][0]:.6g}-{stats['head'][2]:.6g}), "
            f"ratio {ratio:.4f}, head wins {wins}/{len(pairs)}, "
            f"loses {losses}, ties {ties}")
    for side in SIDES:
        failed = sum(p[side]["failed"] for p in pairs)
        incorrect = sum(not p[side]["correct"] for p in pairs)
        lines.append(f"{side}: {failed} failed checks, {incorrect} runs "
                     "not correct")
    return lines


def run_side(root, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=str(root / ".bench_build"))
    cmd = [sys.executable, "dmabench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, env=env, text=True,
                          stdout=subprocess.PIPE)
    if done.returncode != 0:
        raise RuntimeError(f"{root}: exit {done.returncode}")
    return parse_result(done.stdout)


def run_pairs(args):
    roots = {"parent": pathlib.Path(args.parent).resolve(),
             "head": pathlib.Path(args.head).resolve()}
    warning = path_length_warning(roots["parent"], roots["head"])
    if warning:
        log("WARNING: " + warning)
    spec = json.loads((roots["head"] / "BENCHMARK.json").read_text())
    pairs = []
    for pair, seed in enumerate(parse_seeds(args.seeds), start=1):
        results = {}
        for side in pair_order(pair):
            results[side] = run_side(roots[side], args.workload, seed,
                                     args.seconds)
        pairs.append(results)
        line = " ".join(
            f"{side}={results[side]['metrics'].get('sim_s_per_host_s')}"
            for side in SIDES)
        log(f"pair {pair} seed {seed} ({pair_order(pair)[0]} first): {line}")
    print(f"{args.workload}: {len(pairs)} pairs, seeds {args.seeds}, "
          f"--seconds {args.seconds}")
    for line in summarize(spec, pairs):
        print("  " + line)
    return 0


def canned(sim, setup, failed=0):
    return json.dumps({
        "correct": failed == 0, "attempted": 11, "failed": failed,
        "metrics": {"sim_s_per_host_s": {"value": sim, "unit": "s/s"},
                    "setup_s": {"value": setup, "unit": "s"}}})


def self_test():
    problems = []

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label}: got {got!r}, want {want!r}")

    expect("seeds", parse_seeds("1-3,9001"), [1, 2, 3, 9001])
    expect("odd pair order", pair_order(1), ("parent", "head"))
    expect("even pair order", pair_order(2), ("head", "parent"))
    expect("equal paths", path_length_warning("/a/pa", "/a/hd"), None)
    expect("unequal paths warn",
           path_length_warning("/a/p", "/a/hd") is not None, True)
    expect("quartiles", quartiles([1.0, 2.0, 3.0, 4.0, 5.0]),
           (2.0, 3.0, 4.0))

    spec = {"end_to_end": [
        {"name": "sim_s_per_host_s", "unit": "s/s", "better": "higher"},
        {"name": "setup_s", "unit": "s", "better": "lower"}]}
    parent = [(0.30, 0.40), (0.32, 0.41), (0.31, 0.40), (0.33, 0.42)]
    head = [(0.33, 0.40), (0.35, 0.39), (0.30, 0.44), (0.36, 0.42)]
    pairs = [{"parent": parse_result("detail: {}\n" + canned(*p)),
              "head": parse_result(canned(*h, failed=i == 3))}
             for i, (p, h) in enumerate(zip(parent, head))]
    lines = summarize(spec, pairs)
    expect("line count", len(lines), 4)
    expect("sim line", lines[0],
           "sim_s_per_host_s (s/s, higher is better): parent 0.315 "
           "(0.3075-0.3225) -> head 0.34 (0.3225-0.3525), ratio 1.0794, "
           "head wins 3/4, loses 1, ties 0")
    expect("setup line", lines[1],
           "setup_s (s, lower is better): parent 0.405 (0.4-0.4125) -> "
           "head 0.41 (0.3975-0.425), ratio 1.0123, head wins 1/4, "
           "loses 1, ties 2")
    expect("failed line", lines[3], "head: 1 failed checks, 1 runs not "
           "correct")
    for problem in problems:
        log("FAIL " + problem)
    log("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="parent checkout")
    parser.add_argument("--head", help="head checkout")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", help="e.g. 1-10 or 1-6,9001")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.parent, args.head, args.workload, args.seeds):
        parser.error("--parent, --head, --workload and --seeds are required")
    return run_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
