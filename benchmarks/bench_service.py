"""Benchmark: the routing service vs one-kernel-call-per-request.

Thin CLI wrapper over :func:`repro.service.bench.run_service_bench` (the
CLI command ``repro bench-service`` and the CI smoke job share the same
harness).  Measures sustained routes/sec for the micro-batched service
against the naive one-call-per-request baseline, the sharded block path
(two tenants over a shard router, wire-frame-shaped blocks), open-loop
request latency p50/p95/p99 in a steady phase and under fault churn,
and a churn run whose every response is re-derived offline per epoch —
see the harness docstring for the invariants.

Writes ``BENCH_service.json`` at the repository root so the trajectory
is tracked across PRs.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_service.py [--quick] [--output PATH]

Quick mode shrinks the request counts for CI smoke runs and skips the
5x aggregation-speedup floor (the bit-identity, zero-drop, and
zero-torn-read asserts always run).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Sequence

from repro.service.bench import MAX_CHURN_P99_RATIO, MIN_BATCHED_SPEEDUP, \
    MIN_SHARDED_SPEEDUP, run_service_bench

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_service.json"


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller request counts for CI smoke runs "
                             "(skips the speedup floor assert)")
    parser.add_argument("--output", type=Path, default=OUTPUT,
                        help=f"report path (default {OUTPUT})")
    args = parser.parse_args(argv)

    report = run_service_bench(quick=args.quick)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.output}")
    latency = report["latency"]
    print(f"micro-batched service: {report['batched']['routes_per_second']:,.0f} "
          f"routes/s vs naive {report['naive']['routes_per_second']:,.0f} "
          f"({report['speedup_batched']:.1f}x, floor "
          f"{MIN_BATCHED_SPEEDUP:.0f}x in full mode)")
    print(f"sharded blocks: {report['sharded']['routes_per_second']:,.0f} "
          f"routes/s over {report['sharded']['shards']} shards "
          f"({report['sharded']['speedup_vs_batched']:.1f}x batched, floor "
          f"{MIN_SHARDED_SPEEDUP:.0f}x in full mode; "
          f"{report['sharded']['speedup_vs_offline']:.2f}x the offline "
          f"kernel's {report['sharded']['offline_routes_per_s']:,.0f})")
    print(f"open-loop latency @ {latency['offered_rps']:,.0f} rps: "
          f"steady p50/p95/p99 {latency['steady']['p50_ms']:.2f}/"
          f"{latency['steady']['p95_ms']:.2f}/"
          f"{latency['steady']['p99_ms']:.2f} ms; churn p99 "
          f"{latency['churn']['p99_ms']:.2f} ms = "
          f"{latency['p99_ratio']:.2f}x steady (ceiling "
          f"{MAX_CHURN_P99_RATIO:.1f}x in full mode)")
    print(f"churn: {report['churn']['requests']} requests across "
          f"{report['churn']['epoch_swaps']} epoch swaps — "
          f"{report['churn']['torn_reads']} torn reads, "
          f"{report['churn']['dropped']} dropped, offline cross-check "
          f"{'ok' if report['churn']['bit_identical_to_offline'] else 'FAILED'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
