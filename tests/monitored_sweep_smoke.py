#!/usr/bin/env python3
"""Smoke-runs the monitored sweep against the default one.

    python3 tests/monitored_sweep_smoke.py DMASIM_SWEEP SCHEME_FILE

Runs the same 20 ms OLTP-St DMA-TA-PL sweep twice, once with --monitor and
SCHEME_FILE and once with neither, in a temporary directory. Every
monitored run must carry a "monitor" section and the "+mon" scheme
suffix, with probes > 0 and a simulated overhead fraction of at most 1%.
No default run may carry either: the monitor is opt-in. Exits 1 on the
first failed check.
"""

import json
import pathlib
import subprocess
import sys
import tempfile


def sweep(binary, out, extra):
    subprocess.run([binary, "--workloads", "oltp-st", "--schemes", "ta-pl2",
                    "--cp-limits", "0.10", "--duration-ms", "20",
                    "--out", str(out)] + extra,
                   check=True, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())["runs"]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, scheme_file = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory() as scratch:
        scratch = pathlib.Path(scratch)
        monitored = sweep(binary, scratch / "sweep_mon.json",
                          ["--monitor", "--scheme-file", scheme_file])
        default = sweep(binary, scratch / "sweep_default.json", [])

    problems = []
    if not monitored:
        problems.append("monitored sweep produced no runs")
    for run in monitored:
        results = run["results"]
        scheme = results["scheme"]
        if "monitor" not in results:
            problems.append(f"{scheme} lacks a monitor section")
            continue
        if "+mon" not in scheme:
            problems.append(f"{scheme} lacks the +mon suffix")
        if not results["monitor"]["probes"] > 0:
            problems.append(f"{scheme} ran no probes")
        if not results["monitor"]["overhead_fraction"] <= 0.01:
            problems.append(f"{scheme} overhead "
                            f"{results['monitor']['overhead_fraction']} > 1%")
    for run in default:
        results = run["results"]
        if "monitor" in results or "+mon" in results["scheme"]:
            problems.append(f"monitor leaked into default run "
                            f"{results['scheme']}")

    for problem in problems:
        print("FAIL " + problem)
    if problems:
        return 1
    print(f"validated {len(monitored)} monitored + {len(default)} default "
          f"runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
