"""Run the benchmark on several seeds and report each metric's spread.

For every end-to-end metric of every workload this prints the median of
the runs and the quartile spread ((Q3 - Q1) / median, the figure the
metric's ``bound`` in ``BENCHMARK.json`` is judged against).  Run from
the repository root::

    python3 perfbench/steady.py --runs 10 [--workload serve_churn ...]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from measure import quartile_spread  # noqa: E402


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for workload in workloads:
        results = [run_once(spec["command"], workload, seed,
                            spec["run_seconds"])
                   for seed in range(args.first_seed,
                                     args.first_seed + args.runs)]
        bad = [r for r in results if not r["correct"] or r["failed"]]
        print(f"{workload}: {len(results)} runs, {len(bad)} not correct")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            spread = quartile_spread(values)
            share = spread / metric["bound"]
            if metric["name"] != "setup_s":
                worst = max(worst, share)
            print(f"  {metric['name']:<20} median {median(values):>12.4f} "
                  f"spread {spread:6.3f}  bound {metric['bound']:.2f}  "
                  f"spread/bound {share:5.2f}  "
                  f"values {[round(v, 4) for v in values]}")
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
