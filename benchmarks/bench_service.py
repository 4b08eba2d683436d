"""Benchmark: the routing service vs one-kernel-call-per-request.

Six measurements over one faulty cube, all through the real
:class:`~repro.service.RoutingService` request path:

* **Aggregation speedup.**  The same closed-loop concurrent client swarm
  is driven against a *naive* service (``max_batch=1, window_us=0`` —
  one kernel call per request, the RPC-per-route strawman) and against
  the micro-batched service.  The batched/naive routes-per-second ratio
  is the headline number.
* **Sharded block throughput.**  Two tenants on a two-shard
  :class:`~repro.service.ShardRouter`, driven with whole route *blocks*
  (the wire protocol's ``BLOCK`` op shape: one batcher entry, one
  future; blocks queued behind a tenant's running kernel call share its
  next one).  The block path is what a pipelined binary client
  exercises; its rate is reported over the per-request batched figure,
  then every tenant's full workload is re-routed as one verification
  block and must agree bit for bit with the offline kernel on every
  shard.  The same blocks are then routed offline, one
  ``route_with_table`` call each on one thread, and the sharded/offline
  ratio is reported: the service's share of the kernel's own rate.
* **Open-loop latency, steady phase.**  Requests arrive on a fixed
  schedule (a fraction of the measured batched throughput) regardless of
  completions, so queueing shows up honestly; per-request latency
  p50/p95/p99 are reported in milliseconds.
* **Open-loop latency, churn phase.**  The same arrival schedule with
  fault injections spliced in at even intervals, so the tail directly
  prices the cost of epoch publication (an incremental re-stabilization
  plus one table seal, inline between flushes).
* **Fault churn correctness.**  Request waves overlap with fault
  injections, so batches land on both sides of every epoch swap.  Every
  response is then re-derived *offline*: group responses by their epoch
  tag, recompute that epoch's Definition-1 levels from its recorded
  fault set, route through ``route_unicast_batch``, and require
  bit-identical status/condition/hops (rejected responses must have a
  level-0 endpoint at their epoch).  Dropped responses and torn-table
  reads must both be zero.
* **Failover soak.**  E23's chaos-driven soak
  (:func:`repro.analysis.failover_soak.run_failover_soak`), carried as
  the report's ``failover`` section.

Every correctness invariant above is asserted inside the run.  The
performance floors and ratio bands live in ``benchmarks/gates.py``;
check a report with ``python benchmarks/gates.py service REPORT``
(``service-quick`` for a ``--quick`` report).  Run standalone::

    PYTHONPATH=src python benchmarks/bench_service.py [--quick] [--output PATH]

The default output is ``BENCH_service.json`` at the repository root, so
the trajectory is tracked across changes.  Quick mode shrinks the
request counts for CI smoke runs.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.failover_soak import draw_workload, run_failover_soak, \
    tenants_covering_shards
from repro.core.faults import FaultSet
from repro.core.hypercube import Hypercube
from repro.routing.batch import _CONDITION_BY_CODE, _STATUS_BY_CODE, \
    route_unicast_batch, route_with_table
from repro.safety.levels import compute_safety_levels
from repro.service import RoutingService, ServiceConfig, ServiceResponse, \
    ShardRouter, TornTableError
from repro.service.service import REJECTED

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_service.json"

SEED = 7429
DIMENSION = 8
FAULTS = 20

# (requests, naive_requests, clients, latency_requests,
#  churn_requests, churn_swaps, shard_rounds)
_SCALE_FULL = (30_000, 2_000, 64, 5_000, 8_000, 6, 6)
_SCALE_QUICK = (3_000, 400, 32, 800, 1_500, 3, 2)

#: Routes per block in the sharded phase — the wire-frame batch size a
#: pipelined binary client would ship.
_BLOCK_PAIRS = 256

#: Concurrent block streams per sharded run (keeps both tenants' micro-
#: batchers busy without unbounded in-flight frames).
_BLOCK_STREAMS = 8

#: Best-of-N repeats for each open-loop latency phase.
_LATENCY_REPEATS = 3

#: Best-of-N passes for the offline kernel rate of the sharded phase.
_OFFLINE_REPEATS = 3


async def _closed_loop(
    svc: RoutingService,
    pairs: Sequence[Tuple[int, int]],
    clients: int,
) -> Tuple[float, List[ServiceResponse]]:
    """``clients`` concurrent sessions drain ``pairs``; returns (rps, resps)."""
    queue: List[Tuple[int, int]] = list(pairs)
    responses: List[ServiceResponse] = []

    async def client() -> None:
        while queue:
            src, dst = queue.pop()
            responses.append(await svc.route(src, dst))

    start = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(clients)))
    elapsed = time.perf_counter() - start
    return len(pairs) / elapsed, responses


def _latency_stats(latencies_s: Sequence[float]) -> Dict:
    lat_ms = np.asarray(latencies_s) * 1e3
    return {
        "p50_ms": round(float(np.percentile(lat_ms, 50)), 3),
        "p95_ms": round(float(np.percentile(lat_ms, 95)), 3),
        "p99_ms": round(float(np.percentile(lat_ms, 99)), 3),
        "max_ms": round(float(lat_ms.max()), 3),
    }


async def _open_loop(
    svc: RoutingService,
    pairs: Sequence[Tuple[int, int]],
    rate_rps: float,
    swaps: int = 0,
    rng: Optional[np.random.Generator] = None,
    config: Optional[ServiceConfig] = None,
) -> Dict:
    """Fixed-schedule arrivals at ``rate_rps``; per-request latency stats.

    With ``swaps > 0``, fault injections are spliced into the schedule at
    even intervals, so the latency distribution prices epoch publication
    — the churn phase of the latency report.
    """
    latencies: List[float] = []

    async def one(src: int, dst: int) -> None:
        t0 = time.perf_counter()
        await svc.route(src, dst)
        latencies.append(time.perf_counter() - t0)

    swap_at = {(k + 1) * len(pairs) // (swaps + 1) for k in range(swaps)}
    fault_tasks = []
    interval = 1.0 / rate_rps
    # The cyclic collector's pauses (tens of ms once enough task/future
    # garbage accumulates) dwarf every latency we are trying to measure
    # and land at arbitrary points in either phase.  Collect once, then
    # hold GC off for the timed window — applied identically to steady
    # and churn runs so the p99 ratio compares routing, not GC luck.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        tasks = []
        for i, (src, dst) in enumerate(pairs):
            due = start + i * interval
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if i in swap_at:
                victim = _pick_victim(svc.epochs.current.faults, config, rng)
                fault_tasks.append(asyncio.ensure_future(
                    svc.inject_faults(add=[victim])))
            tasks.append(asyncio.ensure_future(one(src, dst)))
        await asyncio.gather(*tasks, *fault_tasks)
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    report = {
        "offered_rps": round(rate_rps, 1),
        "achieved_rps": round(len(pairs) / elapsed, 1),
        "requests": len(pairs),
        **_latency_stats(latencies),
    }
    if swaps:
        report["epoch_swaps"] = swaps
    return report


async def _block_loop(
    router: ShardRouter,
    blocks: Sequence[Tuple[str, np.ndarray, np.ndarray]],
) -> Tuple[float, int]:
    """Drain ``(tenant, srcs, dsts)`` blocks over concurrent streams."""
    queue = deque(blocks)
    routed = 0

    async def stream() -> None:
        nonlocal routed
        while queue:
            tenant, srcs, dsts = queue.popleft()
            block = await router.route_block(tenant, srcs, dsts)
            routed += len(block)

    start = time.perf_counter()
    await asyncio.gather(*(stream() for _ in range(_BLOCK_STREAMS)))
    elapsed = time.perf_counter() - start
    return routed / elapsed, routed


def _offline_rps(
    topo: Hypercube,
    faults: FaultSet,
    blocks: Sequence[Tuple[str, np.ndarray, np.ndarray]],
) -> float:
    """Single-thread ``route_with_table`` over the same blocks, one call
    per block: the kernel's own rate, the ceiling the sharded figure is
    held against.  Best of :data:`_OFFLINE_REPEATS` passes."""
    levels = np.asarray(compute_safety_levels(topo, faults), dtype=np.int8)
    routed = sum(len(srcs) for _, srcs, _ in blocks)
    best = float("inf")
    for _ in range(_OFFLINE_REPEATS):
        start = time.perf_counter()
        for _, srcs, dsts in blocks:
            route_with_table(topo, levels, srcs[None, :], dsts[None, :])
        best = min(best, time.perf_counter() - start)
    return routed / best


async def _sharded_run(
    topo: Hypercube,
    faults: FaultSet,
    pairs: Sequence[Tuple[int, int]],
    rounds: int,
    batched_cfg: ServiceConfig,
) -> Dict:
    """The sharded block phase: timed throughput, then full verification."""
    srcs = np.array([p[0] for p in pairs], dtype=np.int64)
    dsts = np.array([p[1] for p in pairs], dtype=np.int64)
    shards = 2
    tenants = tenants_covering_shards(shards)
    blocks: List[Tuple[str, np.ndarray, np.ndarray]] = []
    for r in range(rounds):
        for lo in range(0, len(pairs), _BLOCK_PAIRS):
            tenant = tenants[(r + lo // _BLOCK_PAIRS) % len(tenants)]
            blocks.append((tenant, srcs[lo:lo + _BLOCK_PAIRS],
                           dsts[lo:lo + _BLOCK_PAIRS]))

    async with ShardRouter(shards=shards, max_batch=batched_cfg.max_batch,
                           window_us=batched_cfg.window_us) as router:
        for name in tenants:
            await router.add_tenant(name, DIMENSION, faults=faults)
        rps, routed = await _block_loop(router, blocks)
        # Verification pass (untimed): each tenant's full workload as one
        # block, bit-compared against the offline kernel — "bit-identical
        # across all shards" is part of this phase's acceptance.
        levels = compute_safety_levels(topo, faults)
        ref = route_unicast_batch(topo, levels, srcs, dsts)
        for name in tenants:
            block = await router.route_block(name, srcs, dsts)
            assert block.epoch == 1
            assert np.array_equal(block.status.astype(np.int64),
                                  ref.status.reshape(-1)), (
                f"tenant {name!r}: sharded block status diverged from "
                f"offline route_unicast_batch")
            assert np.array_equal(block.condition.astype(np.int64),
                                  ref.condition.reshape(-1))
            assert np.array_equal(block.hops, ref.hops.reshape(-1))
        placement = {name: router.shard_of(name) for name in tenants}

    assert routed == rounds * len(pairs), "sharded run dropped routes"
    offline_rps = _offline_rps(topo, faults, blocks)
    return {
        "shards": shards,
        "tenants": placement,
        "block_pairs": _BLOCK_PAIRS,
        "streams": _BLOCK_STREAMS,
        "requests": routed,
        "routes_per_second": round(rps, 1),
        "offline_routes_per_s": round(offline_rps, 1),
        "speedup_vs_offline": round(rps / offline_rps, 3),
        "verified_routes": len(tenants) * len(pairs),
        "bit_identical_to_offline": True,
    }


async def _churn_run(
    config: ServiceConfig,
    faults: FaultSet,
    pairs: Sequence[Tuple[int, int]],
    swaps: int,
    rng: np.random.Generator,
) -> Tuple[List[ServiceResponse], Dict[int, frozenset], int]:
    """Route ``pairs`` in waves overlapping ``swaps`` fault injections.

    Each injection fires while the wave before it is still in flight, so
    batches straddle the swap and responses carry both epoch tags.
    Returns (responses, epoch -> fault-node set, torn-read count).
    """
    torn = 0
    epoch_faults: Dict[int, frozenset] = {}
    responses: List[ServiceResponse] = []
    async with RoutingService(config, faults=faults) as svc:
        epoch_faults[1] = frozenset(svc.epochs.current.faults.nodes)
        waves = np.array_split(np.arange(len(pairs)), swaps + 1)
        for w, wave in enumerate(waves):
            tasks = [asyncio.ensure_future(svc.route(*pairs[i]))
                     for i in wave]
            if w < swaps:
                victim = _pick_victim(svc.epochs.current.faults, config, rng)
                swap = await svc.inject_faults(add=[victim])
                epoch_faults[swap.epoch] = frozenset(
                    svc.epochs.current.faults.nodes)
            for task in tasks:
                try:
                    responses.append(await task)
                except TornTableError:
                    torn += 1
    return responses, epoch_faults, torn


def _pick_victim(
    faults: FaultSet, config: ServiceConfig, rng: np.random.Generator
) -> int:
    healthy = [v for v in range(1 << config.dimension)
               if not faults.is_node_faulty(v)]
    return healthy[int(rng.integers(0, len(healthy)))]


def _cross_check(
    topo: Hypercube,
    responses: Sequence[ServiceResponse],
    epoch_faults: Dict[int, frozenset],
) -> Dict:
    """Re-derive every response offline; raises AssertionError on any drift."""
    by_epoch: Dict[int, List[ServiceResponse]] = {}
    for resp in responses:
        by_epoch.setdefault(resp.epoch, []).append(resp)

    checked = rejected = 0
    for epoch, group in sorted(by_epoch.items()):
        assert epoch in epoch_faults, (
            f"response tagged unknown epoch {epoch}")
        levels = compute_safety_levels(
            topo, FaultSet(nodes=epoch_faults[epoch]))
        routed = [r for r in group if r.status != REJECTED]
        for r in group:
            if r.status == REJECTED:
                assert levels[r.source] == 0 or levels[r.dest] == 0, (
                    f"epoch {epoch}: ({r.source},{r.dest}) rejected but "
                    f"both endpoints are healthy at that epoch")
                rejected += 1
        if routed:
            srcs = np.array([r.source for r in routed], dtype=np.int64)
            dsts = np.array([r.dest for r in routed], dtype=np.int64)
            ref = route_unicast_batch(topo, levels, srcs, dsts)
            for k, r in enumerate(routed):
                assert (r.status, r.condition, r.hops) == (
                    _STATUS_BY_CODE[int(ref.status[0, k])].value,
                    _CONDITION_BY_CODE[int(ref.condition[0, k])].value,
                    int(ref.hops[0, k]),
                ), (f"epoch {epoch}: service response for "
                    f"({r.source},{r.dest}) diverged from offline "
                    f"route_unicast_batch")
        checked += len(group)
    return {
        "responses_checked": checked,
        "rejected": rejected,
        "epochs_observed": sorted(by_epoch),
        "bit_identical_to_offline": True,
    }


async def _run(quick: bool) -> Dict:
    (total, naive_total, clients, lat_total,
     churn_total, churn_swaps, shard_rounds) = \
        _SCALE_QUICK if quick else _SCALE_FULL
    topo = Hypercube(DIMENSION)
    rng = np.random.default_rng(SEED)
    faults = FaultSet(nodes=rng.choice(
        topo.num_nodes, size=FAULTS, replace=False).tolist())
    pairs = draw_workload(topo, faults, total, rng)

    batched_cfg = ServiceConfig(dimension=DIMENSION)
    naive_cfg = ServiceConfig(dimension=DIMENSION, max_batch=1, window_us=0)

    # Naive strawman: identical machinery, one kernel call per request.
    async with RoutingService(naive_cfg, faults=faults) as svc:
        naive_rps, naive_resps = await _closed_loop(
            svc, pairs[:naive_total], clients)

    async with RoutingService(batched_cfg, faults=faults) as svc:
        batched_rps, batched_resps = await _closed_loop(svc, pairs, clients)
        batches = svc.batcher.flushes

    assert len(naive_resps) == naive_total, "naive run dropped responses"
    assert len(batched_resps) == total, "batched run dropped responses"
    _cross_check(topo, batched_resps[:2_000], {1: frozenset(faults.nodes)})

    # Sharded block phase: two tenants, two shards, frame-shaped blocks.
    sharded = await _sharded_run(topo, faults, pairs, shard_rounds,
                                 batched_cfg)
    sharded["speedup_vs_batched"] = round(
        sharded["routes_per_second"] / batched_rps, 2)

    # Open-loop latency, steady then churn, same arrival schedule.
    # Each phase is best-of-N (the repeat with the lowest p99): host
    # noise on shared runners swings a single open-loop p99 by 2-3x,
    # and min-of-repeats is the standard way to measure the system
    # rather than its neighbors.  Every churn repeat still carries the
    # full swap schedule, so the comparison stays honest.
    lat_rate = max(200.0, 0.6 * batched_rps)
    steady = churn_lat = None
    for _ in range(_LATENCY_REPEATS):
        async with RoutingService(batched_cfg, faults=faults) as svc:
            run = await _open_loop(svc, pairs[:lat_total], lat_rate)
        if steady is None or run["p99_ms"] < steady["p99_ms"]:
            steady = run
        async with RoutingService(batched_cfg, faults=faults) as svc:
            run = await _open_loop(svc, pairs[:lat_total], lat_rate,
                                   swaps=churn_swaps, rng=rng,
                                   config=batched_cfg)
        if churn_lat is None or run["p99_ms"] < churn_lat["p99_ms"]:
            churn_lat = run
    p99_ratio = round(churn_lat["p99_ms"] / max(steady["p99_ms"], 1e-9), 3)

    churn_pairs = draw_workload(topo, faults, churn_total, rng)
    churn_resps, epoch_faults, torn = await _churn_run(
        batched_cfg, faults, churn_pairs, churn_swaps, rng)
    assert torn == 0, f"{torn} torn-table reads under churn"
    assert len(churn_resps) == churn_total, (
        f"churn dropped {churn_total - len(churn_resps)} responses")
    churn_check = _cross_check(topo, churn_resps, epoch_faults)

    speedup = round(batched_rps / naive_rps, 2)
    return {
        "benchmark": "service_microbatch_vs_naive",
        "quick": quick,
        "dimension": DIMENSION,
        "faults": FAULTS,
        "clients": clients,
        "max_batch": batched_cfg.max_batch,
        "window_us": batched_cfg.window_us,
        "naive": {"requests": naive_total,
                  "routes_per_second": round(naive_rps, 1)},
        "batched": {"requests": total,
                    "routes_per_second": round(batched_rps, 1),
                    "micro_batches": batches,
                    "mean_batch_size": round(total / max(1, batches), 1)},
        "speedup_batched": speedup,
        "sharded": sharded,
        "latency": {
            "offered_rps": round(lat_rate, 1),
            "best_of": _LATENCY_REPEATS,
            "steady": steady,
            "churn": churn_lat,
            "p99_ratio": p99_ratio,
        },
        "churn": {
            "requests": churn_total,
            "epoch_swaps": churn_swaps,
            "torn_reads": torn,
            "dropped": churn_total - len(churn_resps),
            **churn_check,
        },
    }


def run_service_bench(quick: bool = False) -> Dict:
    """Run every phase; returns the ``BENCH_service.json`` payload."""
    report = asyncio.run(_run(quick))
    # Self-healing: the chaos-driven failover soak (exactly-once, both
    # detection paths, journal-exact recovery) asserts its own
    # invariants inside the run.
    report["failover"] = run_failover_soak(quick)
    return report


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller request counts for CI smoke runs")
    parser.add_argument("--output", type=Path, default=OUTPUT,
                        help=f"report path (default {OUTPUT})")
    args = parser.parse_args(argv)

    report = run_service_bench(quick=args.quick)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    latency = report["latency"]
    sharded = report["sharded"]
    print(f"micro-batched service: {report['batched']['routes_per_second']:,.0f} "
          f"routes/s vs naive {report['naive']['routes_per_second']:,.0f} "
          f"({report['speedup_batched']:.1f}x)")
    print(f"sharded blocks: {sharded['routes_per_second']:,.0f} routes/s "
          f"over {sharded['shards']} shards "
          f"({sharded['speedup_vs_batched']:.1f}x batched; "
          f"{sharded['speedup_vs_offline']:.2f}x the offline kernel's "
          f"{sharded['offline_routes_per_s']:,.0f})")
    print(f"open-loop latency @ {latency['offered_rps']:,.0f} rps: "
          f"steady p50/p95/p99 {latency['steady']['p50_ms']:.2f}/"
          f"{latency['steady']['p95_ms']:.2f}/"
          f"{latency['steady']['p99_ms']:.2f} ms; churn p99 "
          f"{latency['churn']['p99_ms']:.2f} ms = "
          f"{latency['p99_ratio']:.2f}x steady")
    print(f"churn: {report['churn']['requests']} requests across "
          f"{report['churn']['epoch_swaps']} epoch swaps — "
          f"{report['churn']['torn_reads']} torn reads, "
          f"{report['churn']['dropped']} dropped, offline cross-check "
          f"{'ok' if report['churn']['bit_identical_to_offline'] else 'FAILED'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
