"""The repository benchmark: one workload per run, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload serve_block --seed 1 \
        --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/layers.json``):

* ``sweep`` — offline Monte-Carlo cells: fault draw, batched safety
  levels, batched routing.  No sockets.
* ``serve_block`` — closed loop of 256-pair BLOCK frames against a
  2-shard server holding a Q8 and a Q14 tenant.
* ``serve_churn`` — closed loop of 128 single ROUTE frames in flight on a
  Q12 tenant, with a FAULT event every 100 ms beside it.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures a
window untraced and then one traced, each half of ``--seconds``, and
prints the per-layer metrics.  The last stdout line is the result
object; the line before it, starting with ``report``, holds the host
record, sample counts and failure reasons.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Hard ceiling on one run; the slowest phase budget is well below it.
WATCHDOG_S = 175


def host_record() -> dict:
    import numpy

    # A checkout without git metadata has no revision; src_sha1 still
    # identifies the code that was measured.
    rev = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            rev = fh.read().strip()
        ref = os.path.join(ROOT, ".git", rev[5:])
        if rev.startswith("ref: ") and os.path.exists(ref):
            with open(ref) as fh:
                rev = fh.read().strip()
    digest = hashlib.sha1()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    digest.update(fh.read())
    return {"cores": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "git_rev": rev, "src_sha1": digest.hexdigest(),
            "transport": "loopback"}


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded its {WATCHDOG_S} s watchdog")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "serve_block", "serve_churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(WATCHDOG_S)

    import workloads

    # A traced run measures two windows, untraced and traced; each gets
    # half of --seconds so that it takes as long as an untraced run.
    window = args.seconds / 2 if args.trace else args.seconds
    out = workloads.WORKLOADS[args.workload](args.seed, window,
                                             bool(args.trace))
    signal.alarm(0)
    source = out.layers if args.trace else out.e2e
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(source[m["name"]]),
                           "unit": m["unit"]} for m in wanted}
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_record(), "ops": out.tally.to_dict(),
              **out.report}
    print("report " + json.dumps(report))
    print(json.dumps({"correct": out.tally.failed == 0,
                      "attempted": out.tally.attempted,
                      "failed": out.tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
