"""Benchmark: incremental safety-level maintenance vs full GS recompute.

Two claims from the maintenance engine are measured and asserted:

* **Incremental deltas are cheap.**  On Q10–Q16, re-stabilizing after a
  single-fault delta with :class:`IncrementalLevelEngine.apply_delta`
  must be at least 10x faster than a cold full recompute on Q12 and up
  (the dirty wave touches a neighborhood; the cold sweep touches the
  whole cube), and every post-delta assignment must be bit-identical to
  the cold fixed point (Theorem 1: it is unique).
* **The batch level kernel wins on big cubes.**  At the benchmark's batch
  sizes (multiples of 64) :func:`compute_safety_levels_batch` runs the
  trial-packed uint64 kernel on every row for ``n >= 10``; it must beat
  the per-trial reference — one
  :func:`repro.safety.gs.compute_levels_with_rounds` call per fault set —
  on Q12 and up while staying bit-identical (levels and rounds).

Writes ``BENCH_levels_incremental.json`` at the repository root so both
trajectories are tracked across PRs.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_levels_incremental.py [--quick]

Quick mode shrinks the cube range and delta count for CI smoke runs and
skips the speedup floor asserts (the equivalence asserts always run).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Dict, Sequence

import numpy as np

from repro.core.fault_models import uniform_node_faults
from repro.core.faults import FaultSet
from repro.core.hypercube import Hypercube
from repro.safety.dynamic import _gs_message_cost
from repro.safety.gs import compute_levels_with_rounds
from repro.safety.incremental import IncrementalLevelEngine
from repro.safety.levels import compute_safety_levels_batch

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_levels_incremental.json"

DIMS_FULL = (10, 12, 14, 16)
DIMS_QUICK = (10, 12)
DELTAS_FULL = 16
DELTAS_QUICK = 6
KERNEL_BATCH_FULL = 256
KERNEL_BATCH_QUICK = 64
SEED = 951995

#: Full-run acceptance floors (Q12 and up).
MIN_DELTA_SPEEDUP = 10.0
MIN_PACKED_SPEEDUP = 1.0


def bench_incremental(n: int, num_deltas: int) -> Dict:
    """Single-fault deltas on Q``n``: engine waves vs cold recompute."""
    topo = Hypercube(n)
    rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(n,)))
    base = uniform_node_faults(topo, n, rng)
    engine = IncrementalLevelEngine(topo, base)

    healthy = [v for v in range(topo.num_nodes)
               if not base.is_node_faulty(v)]
    victims = rng.choice(len(healthy), size=num_deltas, replace=False)

    t_incr = t_full = 0.0
    msgs_incr = msgs_full = 0
    dirty_sizes = []
    for pick in victims:
        victim = healthy[int(pick)]
        start = time.perf_counter()
        stats = engine.apply_delta(add=[victim])
        t_incr += time.perf_counter() - start
        msgs_incr += stats.messages
        dirty_sizes.append(stats.dirty_total or stats.dirty_seed)

        # The baseline the engine replaces inside the trackers: a cold
        # full-cube distributed-GS stabilization on the new fault set.
        start = time.perf_counter()
        cold, _rounds, cold_msgs = _gs_message_cost(
            topo, engine.faults, start=None)
        t_full += time.perf_counter() - start
        msgs_full += cold_msgs
        assert np.array_equal(engine.levels, cold), (
            f"incremental engine diverged from cold recompute on Q{n} "
            f"after failing node {victim}"
        )

    speedup = round(t_full / t_incr, 2) if t_incr else float("inf")
    return {
        "n": n,
        "deltas": num_deltas,
        "incremental_seconds": round(t_incr, 6),
        "full_gs_seconds": round(t_full, 6),
        "speedup_incremental": speedup,
        "protocol_messages_incremental": msgs_incr,
        "protocol_messages_full_gs": msgs_full,
        "message_ratio": round(msgs_full / max(1, msgs_incr), 1),
        "mean_dirty_nodes": round(float(np.mean(dirty_sizes)), 1),
        "fallbacks": engine.fallbacks,
        "bit_identical_to_full_gs": True,
    }


def _per_trial_reference(topo: Hypercube, fault_sets) -> tuple:
    """Levels and rounds from one ``compute_levels_with_rounds`` per row."""
    levels = np.empty((len(fault_sets), topo.num_nodes), dtype=np.int64)
    rounds = np.empty(len(fault_sets), dtype=np.int64)
    for i, faults in enumerate(fault_sets):
        levels[i], rounds[i] = compute_levels_with_rounds(topo, faults)
    return levels, rounds


def bench_level_kernels(n: int, batch: int, repeats: int) -> Dict:
    """Batch level computation on Q``n``: the batch entry point (packed
    kernel on whole 64-trial words) vs the per-trial loop."""
    topo = Hypercube(n)
    rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(99, n)))
    masks = rng.random((batch, topo.num_nodes)) < 0.05
    fault_sets = [FaultSet(nodes=np.flatnonzero(row).tolist())
                  for row in masks]

    runs = {
        "reference": lambda: _per_trial_reference(topo, fault_sets),
        "packed": lambda: compute_safety_levels_batch(
            topo, masks, return_rounds=True),
    }
    timings: Dict[str, float] = {}
    results: Dict[str, tuple] = {}
    for name, run in runs.items():
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            results[name] = run()
            best = min(best, time.perf_counter() - start)
        timings[name] = best

    ref_levels, ref_rounds = results["reference"]
    got_levels, got_rounds = results["packed"]
    assert np.array_equal(got_levels, ref_levels), (
        f"packed level kernel diverged from the per-trial reference on Q{n}")
    assert np.array_equal(got_rounds, ref_rounds), (
        f"packed level kernel round counts diverged from the per-trial "
        f"reference on Q{n}")

    return {
        "n": n,
        "batch": batch,
        "reference_seconds": round(timings["reference"], 6),
        "packed_seconds": round(timings["packed"], 6),
        "speedup_packed": round(timings["reference"] / timings["packed"], 2),
        "bit_identical": True,
    }


def run_benchmark(quick: bool) -> Dict:
    dims = DIMS_QUICK if quick else DIMS_FULL
    num_deltas = DELTAS_QUICK if quick else DELTAS_FULL
    batch = KERNEL_BATCH_QUICK if quick else KERNEL_BATCH_FULL
    repeats = 2 if quick else 3

    incremental = [bench_incremental(n, num_deltas) for n in dims]
    kernels = [bench_level_kernels(n, batch, repeats) for n in dims]

    return {
        "benchmark": "levels_incremental_vs_full_gs",
        "quick": quick,
        "dims": list(dims),
        "incremental": incremental,
        "level_kernels": kernels,
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller cubes and fewer deltas for CI smoke "
                             "runs (skips the speedup floor asserts)")
    parser.add_argument("--output", type=Path, default=OUTPUT,
                        help=f"report path (default {OUTPUT})")
    args = parser.parse_args(argv)

    report = run_benchmark(args.quick)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.output}")
    for row in report["incremental"]:
        print(f"Q{row['n']}: incremental {row['speedup_incremental']:.1f}x "
              f"faster than full recompute over {row['deltas']} "
              f"single-fault deltas "
              f"(mean dirty set {row['mean_dirty_nodes']} nodes)")
    for row in report["level_kernels"]:
        print(f"Q{row['n']}: batch level kernel (packed, "
              f"{row['batch'] // 64} full words) "
              f"{row['speedup_packed']:.1f}x vs per-trial reference")
    if not args.quick:
        for row in report["incremental"]:
            if row["n"] >= 12:
                assert row["speedup_incremental"] >= MIN_DELTA_SPEEDUP, (
                    f"incremental only {row['speedup_incremental']:.1f}x "
                    f"on Q{row['n']}; the acceptance floor is "
                    f"{MIN_DELTA_SPEEDUP:.0f}x")
        for row in report["level_kernels"]:
            if row["n"] >= 12:
                assert row["speedup_packed"] >= MIN_PACKED_SPEEDUP, (
                    f"packed kernel slower than the per-trial reference "
                    f"on Q{row['n']} "
                    f"({row['speedup_packed']:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
