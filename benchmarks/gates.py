"""Regression gates: check a fresh benchmark report against its floors.

Usage::

    python benchmarks/gates.py sweep BENCH_sweep_fresh.json
    python benchmarks/gates.py levels BENCH_levels_fresh.json
    python benchmarks/gates.py service-quick BENCH_service_quick.json
    python benchmarks/gates.py service BENCH_service_fresh.json

``make gates`` runs every benchmark and then every gate, exactly as CI
does.  Absolute throughput is machine-specific, so the bands compare
speedup *ratios* (which track each engine's overhead independent of
host speed) against the report committed at the repository root.
Every check runs and prints; the exit status is 1 if any failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: A fresh ratio may fall at most 3% below the committed one.
BAND = 0.97

#: gate -> (committed report at the repository root, checks).  A check is
#: ``(kind, dotted path into the fresh report, argument)``:
#:
#: ``band``     fresh >= max(floor, BAND x committed); argument: floor
#: ``band_q``   per row of a list keyed by ``n``, rows with n >= the
#:              argument's first item: row[metric] >= BAND x the committed
#:              row's; argument: (min n, metric)
#: ``zero``     fresh == 0
#: ``true``     fresh is truthy
#: ``below``    fresh < argument
#: ``at_most``  fresh <= argument (a number, or a dotted path into the
#:              fresh report)
GATES = {
    "sweep": ("BENCH_sweep.json", [
        ("band", "speedup_batched", None),
    ]),
    "levels": ("BENCH_levels_incremental.json", [
        ("band_q", "incremental", (12, "speedup_incremental")),
    ]),
    # Generous p99 ceiling: shared CI runners are slow and noisy; this
    # catches order-of-magnitude regressions (a stuck window, a
    # serialized flush), not microseconds.
    "service-quick": (None, [
        ("zero", "churn.torn_reads", None),
        ("zero", "churn.dropped", None),
        ("true", "churn.bit_identical_to_offline", None),
        ("true", "sharded.bit_identical_to_offline", None),
        ("below", "latency.steady.p99_ms", 250.0),
    ]),
    "service": ("BENCH_service.json", [
        # Micro-batching must beat one kernel call per request.
        ("band", "speedup_batched", 5.0),
        # A BLOCK frame amortizes admission/future/demux overhead away.
        ("band", "sharded.speedup_vs_batched", 2.0),
        # The kernel-to-service gap: sharded serving's share of the
        # offline single-thread kernel rate on the same blocks.
        ("band", "sharded.speedup_vs_offline", None),
        # A fault event costs one incremental re-stabilization and one
        # table seal between flushes, so epoch swaps must not blow up
        # the tail.
        ("at_most", "latency.p99_ratio", 1.5),
        ("zero", "churn.torn_reads", None),
        ("zero", "churn.dropped", None),
        ("true", "churn.bit_identical_to_offline", None),
        ("zero", "failover.lost", None),
        ("zero", "failover.duplicates", None),
        ("true", "failover.bit_identical_to_offline", None),
        # The soak reports its own ceiling (repro.analysis.failover_soak).
        ("at_most", "failover.recovery_p99_ms",
         "failover.recovery_ceiling_ms"),
    ]),
}


def _get(report: dict, path: str):
    for key in path.split("."):
        report = report[key]
    return report


def _check(kind: str, path: str, arg, fresh: dict,
           committed: Optional[dict]) -> List[Tuple[bool, str]]:
    """One check -> ``[(passed, message)]`` (one entry per gated row)."""
    value = _get(fresh, path)
    if kind == "band":
        ref = _get(committed, path)
        floor = max(arg or 0.0, ref * BAND)
        return [(value >= floor, f"{path}: {value:.2f}x fresh vs "
                 f"{ref:.2f}x committed (floor {floor:.2f}x)")]
    if kind == "band_q":
        min_n, metric = arg
        committed_by_n = {r["n"]: r for r in _get(committed, path)}
        out = []
        for row in value:
            if row["n"] < min_n:
                continue
            ref = committed_by_n[row["n"]][metric]
            floor = ref * BAND
            out.append((row[metric] >= floor, f"{path} Q{row['n']} "
                        f"{metric}: {row[metric]:.2f}x fresh vs {ref:.2f}x "
                        f"committed (floor {floor:.2f}x)"))
        return out
    if kind == "zero":
        return [(value == 0, f"{path} == 0 (got {value})")]
    if kind == "true":
        return [(bool(value), f"{path} is true (got {value})")]
    if kind == "below":
        return [(value < arg, f"{path} < {arg:g} (got {value:.2f})")]
    if kind == "at_most":
        limit = _get(fresh, arg) if isinstance(arg, str) else arg
        return [(value <= limit, f"{path} <= {limit:g} (got {value:.2f})")]
    raise ValueError(f"unknown check kind {kind!r}")


def run_gate(name: str, fresh_path: str) -> int:
    """Run one gate over a fresh report; returns the number of failures."""
    committed_name, checks = GATES[name]
    fresh = json.loads(Path(fresh_path).read_text())
    committed = (json.loads((ROOT / committed_name).read_text())
                 if committed_name else None)
    failures = 0
    for kind, path, arg in checks:
        for passed, message in _check(kind, path, arg, fresh, committed):
            failures += not passed
            print(f"{'ok  ' if passed else 'FAIL'} {name}: {message}")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("gate", choices=sorted(GATES))
    parser.add_argument("fresh", help="the fresh benchmark report (JSON)")
    args = parser.parse_args(argv)
    failures = run_gate(args.gate, args.fresh)
    print(f"{args.gate}: {'FAILED' if failures else 'OK'}"
          + (f" ({failures} check(s))" if failures else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
