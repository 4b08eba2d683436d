"""Service benchmark harness: throughput, latency, and churn correctness.

Six measurements over one faulty cube, all through the real
:class:`~repro.service.RoutingService` request path:

* **Aggregation speedup.**  The same closed-loop concurrent client swarm
  is driven against a *naive* service (``max_batch=1, window_us=0`` —
  one kernel call per request, the RPC-per-route strawman) and against
  the micro-batched service.  The batched/naive routes-per-second ratio
  is the headline number; the full run asserts it clears
  :data:`MIN_BATCHED_SPEEDUP`.
* **Sharded block throughput.**  Two tenants on a two-shard
  :class:`~repro.service.ShardRouter`, driven with whole route *blocks*
  (the wire protocol's ``BLOCK`` op shape: one batcher entry, one
  future; blocks queued behind a tenant's running kernel call share its
  next one).  The block path is what a pipelined binary client
  exercises, and the run asserts it clears :data:`MIN_SHARDED_SPEEDUP`
  over the per-request batched figure — then re-routes every tenant's
  full workload as one verification block and requires bit-identical
  agreement with the offline kernel on every shard.  The same blocks
  are then routed offline, one ``route_with_table`` call each on one
  thread, and the sharded/offline ratio is reported: the service's
  share of the kernel's own rate.
* **Open-loop latency, steady phase.**  Requests arrive on a fixed
  schedule (a fraction of the measured batched throughput) regardless of
  completions, so queueing shows up honestly; per-request latency
  p50/p95/p99 are reported in milliseconds.
* **Open-loop latency, churn phase.**  The same arrival schedule with
  fault injections spliced in at even intervals, so the tail directly
  prices the cost of epoch publication.  Warm-spare publishing keeps
  stabilization off the request path, and the run asserts the churn p99
  stays within :data:`MAX_CHURN_P99_RATIO` of the steady p99.
* **Fault churn correctness.**  Request waves overlap with fault
  injections, so batches land on both sides of every epoch swap.  Every
  response is then re-derived *offline*: group responses by their epoch
  tag, recompute that epoch's Definition-1 levels from its recorded
  fault set, route through ``route_unicast_batch``, and require
  bit-identical status/condition/hops (rejected responses must have a
  level-0 endpoint at their epoch).  Dropped responses and torn-table
  reads must both be zero.
* **Failover soak.**  Open-loop load over a three-shard
  :class:`~repro.service.ShardRouter` while a seeded chaos plan kills
  one shard at each third of the schedule — the first death *inferred*
  (``crash_shard`` + the background failure detector), the second
  *injected* (``kill_shard``).  Every accepted request must complete
  exactly once (zero losses, zero duplicates), post-failover routing
  must be bit-identical to the offline kernel on each tenant's
  journal-recovered fault state, and the full run gates the disrupted
  requests' p99 against :data:`MAX_RECOVERY_P99_MS`.

The harness lives in the package (not ``benchmarks/``) so the CLI
(``repro bench-service``), the benchmark script, and the CI smoke job
share one implementation.
"""

from __future__ import annotations

import asyncio
import gc
import time
from collections import Counter, deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..chaos.plan import ChaosPlan, NodeKill
from ..core.faults import FaultSet
from ..core.hypercube import Hypercube
from ..routing.batch import _CONDITION_BY_CODE, _STATUS_BY_CODE, \
    pack_neighbor_levels, route_unicast_batch, route_with_table
from ..safety.levels import compute_safety_levels
from .health import FailureDetector, HealthConfig
from .service import REJECTED, RoutingService, ServiceConfig, ServiceResponse
from .shard import HashRing, OverloadError, ShardRetryError, ShardRouter, \
    TenantMovedError
from .shm import TornTableError

__all__ = ["run_service_bench", "run_failover_soak", "MIN_BATCHED_SPEEDUP",
           "MIN_SHARDED_SPEEDUP", "MAX_CHURN_P99_RATIO",
           "MAX_RECOVERY_P99_MS"]

#: Full-run acceptance floor: micro-batched vs one-call-per-request.
MIN_BATCHED_SPEEDUP = 5.0

#: Acceptance floor: sharded block routing vs per-request batched —
#: the whole point of the wire's BLOCK op is that a frame of routes
#: amortizes admission/future/demux overhead away.
MIN_SHARDED_SPEEDUP = 2.0

#: Acceptance ceiling: open-loop p99 under fault churn vs steady state.
#: Warm-spare publishing keeps re-stabilization off the request path,
#: so epoch swaps must not blow up the tail.
MAX_CHURN_P99_RATIO = 1.5

#: Acceptance ceiling for the failover soak: p99 latency (ms) across the
#: *disrupted* requests — those that hit at least one retryable error
#: while a shard died under them.  Deliberately generous (it covers the
#: detector's suspect window, journal replay, and client backoff on a
#: noisy CI runner); the point of the gate is that recovery is bounded,
#: not that it is instant.
MAX_RECOVERY_P99_MS = 1_500.0

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

#: Failover soak scale: (requests, arrival rate rps, fault injections).
_SOAK_FULL = (6_000, 2_500.0, 6)
_SOAK_QUICK = (1_200, 1_500.0, 3)

#: Soak topology: three shards so two kills still leave a survivor
#: (DEAD is terminal — there is no resurrection path to lean on).
_SOAK_SHARDS = 3
_SOAK_DIM = 6
_SOAK_FAULTS = 5


def _draw_workload(
    topo: Hypercube, faults: FaultSet, count: int, rng: np.random.Generator
) -> List[Tuple[int, int]]:
    """``count`` (src, dst) pairs with distinct endpoints healthy at epoch 1."""
    healthy = np.array(
        [v for v in range(topo.num_nodes) if not faults.is_node_faulty(v)],
        dtype=np.int64)
    srcs = healthy[rng.integers(0, healthy.size, size=count)]
    dsts = healthy[rng.integers(0, healthy.size, size=count)]
    same = srcs == dsts
    while same.any():
        dsts[same] = healthy[rng.integers(0, healthy.size,
                                          size=int(same.sum()))]
        same = srcs == dsts
    return list(zip(srcs.tolist(), dsts.tolist()))


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


def _pick_shard_tenants(shards: int) -> List[str]:
    """Deterministic tenant names covering every shard of the bench ring."""
    ring = HashRing(list(range(shards)))
    tenants: List[str] = []
    covered: set = set()
    k = 0
    while len(covered) < shards:
        name = f"tenant-{k}"
        sid = ring.place(name)
        if sid not in covered:
            covered.add(sid)
            tenants.append(name)
        k += 1
    return tenants


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
    packed = pack_neighbor_levels(levels, topo.dimension)
    routed = sum(len(srcs) for _, srcs, _ in blocks)
    best = float("inf")
    for _ in range(_OFFLINE_REPEATS):
        start = time.perf_counter()
        for _, srcs, dsts in blocks:
            route_with_table(topo, levels, packed, srcs[None, :],
                             dsts[None, :])
        best = min(best, time.perf_counter() - start)
    return routed / best


async def _sharded_run(
    topo: Hypercube,
    faults: FaultSet,
    pairs: Sequence[Tuple[int, int]],
    rounds: int,
    workers: int,
    batched_cfg: ServiceConfig,
) -> Dict:
    """The sharded block phase: timed throughput, then full verification."""
    srcs = np.array([p[0] for p in pairs], dtype=np.int64)
    dsts = np.array([p[1] for p in pairs], dtype=np.int64)
    shards = 2
    tenants = _pick_shard_tenants(shards)
    blocks: List[Tuple[str, np.ndarray, np.ndarray]] = []
    for r in range(rounds):
        for lo in range(0, len(pairs), _BLOCK_PAIRS):
            tenant = tenants[(r + lo // _BLOCK_PAIRS) % len(tenants)]
            blocks.append((tenant, srcs[lo:lo + _BLOCK_PAIRS],
                           dsts[lo:lo + _BLOCK_PAIRS]))

    async with ShardRouter(shards=shards, workers=workers,
                           max_batch=batched_cfg.max_batch,
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
) -> Tuple[List[ServiceResponse], Dict[int, frozenset], int, Dict]:
    """Route ``pairs`` in waves overlapping ``swaps`` fault injections.

    Each injection fires while the wave before it is still in flight, so
    batches straddle the swap and responses carry both epoch tags.
    Returns (responses, epoch -> fault-node set, torn-read count,
    spare-ring counters).
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
        ring = {"spare_hits": svc.epochs.spare_hits,
                "spare_misses": svc.epochs.spare_misses}
    return responses, epoch_faults, torn, ring


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


async def _soak_request(
    router: ShardRouter,
    tenant: str,
    src: int,
    dst: int,
    rid: int,
    completions: Counter,
) -> Tuple[int, bool, float, int]:
    """One logical request under the retry contract the resilient client
    implements: retryable errors back off and retry, "moved" retries
    immediately, and exactly one completion is recorded per request id.
    Returns (rid, disrupted, latency_s, retries)."""
    t0 = time.perf_counter()
    retries = 0
    while True:
        try:
            await router.route(tenant, src, dst)
        except TenantMovedError:
            retries += 1
            continue
        except (ShardRetryError, OverloadError):
            retries += 1
            if retries > 200:  # a stuck failover must fail the soak loudly
                raise
            await asyncio.sleep(min(0.05, 0.002 * 2 ** min(retries, 5)))
            continue
        completions[rid] += 1
        return rid, retries > 0, time.perf_counter() - t0, retries


async def _soak(quick: bool, workers: int) -> Dict:
    """Kill-one-shard-every-k under open-loop load; exactly-once gated.

    The kill schedule is a seeded :class:`~repro.chaos.plan.ChaosPlan`
    with shard ids as the kill targets — the same declarative chaos
    vocabulary the simulator tier uses, one layer up.  The first death
    is *inferred* (``crash_shard`` + the background failure detector),
    the second *injected* (``kill_shard``), so both detection paths run
    under load in every soak.
    """
    total, rate_rps, injections = _SOAK_QUICK if quick else _SOAK_FULL
    rng = np.random.default_rng(SEED)
    topo = Hypercube(_SOAK_DIM)
    faults = FaultSet(nodes=rng.choice(
        topo.num_nodes, size=_SOAK_FAULTS, replace=False).tolist())
    tenants = _pick_shard_tenants(_SOAK_SHARDS)
    pairs = _draw_workload(topo, faults, total, rng)

    async with ShardRouter(shards=_SOAK_SHARDS, workers=workers,
                           auto_failover=True,
                           max_tenant_inflight=4_096) as router:
        for name in tenants:
            await router.add_tenant(name, _SOAK_DIM, faults=faults)
        # Two kills at the thirds of the schedule, victims fixed up
        # front from the (deterministic) initial placement.
        victims = sorted({router.shard_of(name) for name in tenants})[:2]
        plan = ChaosPlan(seed=SEED, node_kills=(
            NodeKill(node=victims[0], time=total // 3),
            NodeKill(node=victims[1], time=2 * total // 3)))
        # first kill in the plan is the inferred-death path, second the
        # injected one — both detection paths run in every soak
        kill_at = {kill.time: (kill.node, mode) for kill, mode in
                   zip(plan.node_kills, ("crash", "kill"))}
        inject_at = {(k + 1) * total // (injections + 1): k
                     for k in range(injections)}

        completions: Counter = Counter()
        detector = FailureDetector(router, HealthConfig(
            interval_s=0.004, suspect_after=2, dead_after=4))
        await detector.start()
        interval = 1.0 / rate_rps
        tasks: List[asyncio.Task] = []
        chores: List[asyncio.Task] = []
        try:
            start = time.perf_counter()
            for i, (src, dst) in enumerate(pairs):
                due = start + i * interval
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                if i in kill_at:
                    sid, mode = kill_at[i]
                    if mode == "crash":
                        # the shard goes quiet and only the detector's
                        # probes may establish its death
                        chores.append(asyncio.ensure_future(
                            router.crash_shard(sid)))
                    else:
                        chores.append(asyncio.ensure_future(
                            router.kill_shard(sid)))
                if i in inject_at:
                    # every tenant takes a fault: whichever shard dies
                    # next, its tenants have journal deltas to replay
                    for tenant in tenants:
                        chores.append(asyncio.ensure_future(
                            _soak_inject(router, tenant, topo, rng)))
                tenant = tenants[i % len(tenants)]
                tasks.append(asyncio.ensure_future(_soak_request(
                    router, tenant, src, dst, i, completions)))
            results = await asyncio.gather(*tasks, return_exceptions=True)
            await asyncio.gather(*chores)
        finally:
            await detector.stop()

        lost = [r for r in results if isinstance(r, BaseException)]
        assert not lost, (
            f"soak lost {len(lost)} requests terminally; first: {lost[0]!r}")
        counts = [completions[rid] for rid in range(total)]
        duplicates = sum(c - 1 for c in counts if c > 1)
        missing = sum(1 for c in counts if c == 0)
        assert duplicates == 0, f"{duplicates} duplicate responses"
        assert missing == 0, f"{missing} requests silently lost"

        ok = [r for r in results if not isinstance(r, BaseException)]
        steady = [r for r in ok if not r[1]]
        disrupted = [r for r in ok if r[1]]
        retries = sum(r[3] for r in ok)

        # Post-failover exactness: every tenant's routing against the
        # journal-recovered fault state is bit-identical to the offline
        # kernel, and the recovered epoch number matches the journal.
        verified = 0
        for name in tenants:
            journal = router.journal_of(name)
            recovered = journal.recovered_faults()
            check = _draw_workload(topo, recovered, 1_000, rng)
            srcs = np.array([p[0] for p in check], dtype=np.int64)
            dsts = np.array([p[1] for p in check], dtype=np.int64)
            levels = compute_safety_levels(topo, recovered)
            ref = route_unicast_batch(topo, levels, srcs, dsts)
            block = await router.route_block(name, srcs, dsts)
            assert block.epoch == journal.recovered_epoch(), (
                f"tenant {name!r}: epoch {block.epoch} after failover, "
                f"journal says {journal.recovered_epoch()}")
            assert np.array_equal(block.status.astype(np.int64),
                                  ref.status.reshape(-1)), (
                f"tenant {name!r}: post-failover routing diverged from "
                f"the offline kernel on the recovered fault set")
            assert np.array_equal(block.condition.astype(np.int64),
                                  ref.condition.reshape(-1))
            assert np.array_equal(block.hops, ref.hops.reshape(-1))
            verified += len(block)

        kills = [{
            "shard": rep.shard_id,
            "detected": rep.detected,
            "tenants_moved": len(rep.moved),
            "epochs_replayed": rep.epochs_replayed,
            "failover_ms": round(rep.failover_ms, 3),
        } for rep in router.failovers]
        shed = router.shed

    def _p99(sample: List) -> float:
        if not sample:
            return 0.0
        lat_ms = np.asarray([r[2] for r in sample]) * 1e3
        return round(float(np.percentile(lat_ms, 99)), 3)

    assert len(kills) == 2, (
        f"expected 2 failovers, saw {len(kills)}: " + "; ".join(
            f"shard {k['shard']} {k['detected']} in {k['failover_ms']} ms"
            for k in kills))
    assert {k["detected"] for k in kills} == {"inferred", "injected"}
    assert disrupted, "no request ever observed a failover window"
    assert sum(k["epochs_replayed"] for k in kills) > 0, (
        "no journal deltas were replayed; the exactness check was vacuous")
    return {
        "requests": total,
        "offered_rps": round(rate_rps, 1),
        "shards": _SOAK_SHARDS,
        "tenants": len(tenants),
        "fault_injections": injections,
        "kills": kills,
        "lost": 0,
        "duplicates": 0,
        "shed": shed,
        "disrupted": len(disrupted),
        "retries": retries,
        "probes": detector.probes,
        "steady_p99_ms": _p99(steady),
        "recovery_p99_ms": _p99(disrupted),
        "recovery_ceiling_ms": MAX_RECOVERY_P99_MS,
        "verified_routes": verified,
        "bit_identical_to_offline": True,
    }


async def _soak_inject(
    router: ShardRouter, tenant: str, topo: Hypercube,
    rng: np.random.Generator
) -> None:
    """Inject one fresh fault into a tenant, riding out failover windows."""
    journal = router.journal_of(tenant)
    healthy = [v for v in range(topo.num_nodes)
               if not journal.recovered_faults().is_node_faulty(v)]
    victim = healthy[int(rng.integers(0, len(healthy)))]
    for attempt in range(200):
        try:
            await router.inject_faults(tenant, add=[victim])
            return
        except (ShardRetryError, TenantMovedError, OverloadError):
            await asyncio.sleep(0.005)
    raise RuntimeError(f"fault injection for {tenant!r} never landed")


def run_failover_soak(quick: bool = False, workers: int = 0) -> Dict:
    """Run the chaos-driven failover soak; returns its report section.

    Correctness gates (exactly-one response per accepted request, zero
    losses, zero duplicates, post-failover bit-identity with the offline
    kernel, both detection paths exercised) are asserted inside the run
    itself — a violation raises, it is never just a number in a report.
    """
    return asyncio.run(_soak(quick, workers))


async def _run(quick: bool, workers: int) -> Dict:
    (total, naive_total, clients, lat_total,
     churn_total, churn_swaps, shard_rounds) = \
        _SCALE_QUICK if quick else _SCALE_FULL
    topo = Hypercube(DIMENSION)
    rng = np.random.default_rng(SEED)
    faults = FaultSet(nodes=rng.choice(
        topo.num_nodes, size=FAULTS, replace=False).tolist())
    pairs = _draw_workload(topo, faults, total, rng)

    batched_cfg = ServiceConfig(dimension=DIMENSION, workers=workers)
    naive_cfg = ServiceConfig(dimension=DIMENSION, max_batch=1,
                              window_us=0, workers=workers)

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
                                 workers, batched_cfg)
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

    churn_pairs = _draw_workload(topo, faults, churn_total, rng)
    churn_resps, epoch_faults, torn, ring = await _churn_run(
        batched_cfg, faults, churn_pairs, churn_swaps, rng)
    assert torn == 0, f"{torn} torn-table reads under churn"
    assert len(churn_resps) == churn_total, (
        f"churn dropped {churn_total - len(churn_resps)} responses")
    churn_check = _cross_check(topo, churn_resps, epoch_faults)

    # Self-healing: the chaos-driven failover soak (exactly-once,
    # both detection paths, journal-exact recovery) with its own gates
    # asserted inside the run.
    failover = await _soak(quick, workers)

    speedup = round(batched_rps / naive_rps, 2)
    return {
        "benchmark": "service_microbatch_vs_naive",
        "quick": quick,
        "dimension": DIMENSION,
        "faults": FAULTS,
        "workers": workers,
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
            "churn": {**churn_lat, **ring},
            "p99_ratio": p99_ratio,
        },
        "churn": {
            "requests": churn_total,
            "epoch_swaps": churn_swaps,
            "torn_reads": torn,
            "dropped": churn_total - len(churn_resps),
            **churn_check,
        },
        "failover": failover,
    }


def run_service_bench(
    quick: bool = False,
    workers: int = 0,
    enforce_floors: Optional[bool] = None,
) -> Dict:
    """Run the full harness; returns the ``BENCH_service.json`` payload.

    ``enforce_floors`` defaults to ``not quick``: full runs assert the
    :data:`MIN_BATCHED_SPEEDUP` / :data:`MIN_SHARDED_SPEEDUP` ratios and
    the :data:`MAX_CHURN_P99_RATIO` tail ceiling, quick (CI smoke) runs
    only the correctness invariants — which are always asserted
    regardless.
    """
    report = asyncio.run(_run(quick, workers))
    if enforce_floors is None:
        enforce_floors = not quick
    if enforce_floors:
        assert report["speedup_batched"] >= MIN_BATCHED_SPEEDUP, (
            f"micro-batching only {report['speedup_batched']:.2f}x over "
            f"one-call-per-request; the acceptance floor is "
            f"{MIN_BATCHED_SPEEDUP:.0f}x")
        sharded = report["sharded"]["speedup_vs_batched"]
        assert sharded >= MIN_SHARDED_SPEEDUP, (
            f"sharded block routing only {sharded:.2f}x over per-request "
            f"batched; the acceptance floor is {MIN_SHARDED_SPEEDUP:.1f}x")
        ratio = report["latency"]["p99_ratio"]
        assert ratio <= MAX_CHURN_P99_RATIO, (
            f"churn p99 is {ratio:.2f}x the steady p99; warm-spare "
            f"publishing must keep it within {MAX_CHURN_P99_RATIO:.1f}x")
        recovery = report["failover"]["recovery_p99_ms"]
        assert recovery <= MAX_RECOVERY_P99_MS, (
            f"failover recovery p99 is {recovery:.0f} ms; the soak's "
            f"ceiling is {MAX_RECOVERY_P99_MS:.0f} ms")
    return report
