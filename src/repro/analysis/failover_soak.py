"""Chaos-driven shard failover soak (E23): exactly-once under shard death.

Open-loop load over a three-shard :class:`~repro.service.ShardRouter`
while a seeded chaos plan kills one shard at each third of the schedule
— the first death *inferred* (``crash_shard`` + the background failure
detector), the second *injected* (``kill_shard``).  Every accepted
request must complete exactly once (zero losses, zero duplicates),
post-failover routing must be bit-identical to the offline kernel on
each tenant's journal-recovered fault state, and the disrupted requests'
p99 is reported against :data:`MAX_RECOVERY_P99_MS`.

``repro failover`` renders the report as E23; ``benchmarks/bench_service.py``
carries it as the ``failover`` section of ``BENCH_service.json``, whose
gate holds ``recovery_p99_ms`` to the ``recovery_ceiling_ms`` reported
here.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from typing import Dict, List, Tuple

import numpy as np

from ..chaos.plan import ChaosPlan, NodeKill
from ..core.faults import FaultSet
from ..core.hypercube import Hypercube
from ..routing.batch import route_unicast_batch
from ..safety.levels import compute_safety_levels
from ..service.health import FailureDetector, HealthConfig
from ..service.shard import HashRing, OverloadError, ShardRetryError, \
    ShardRouter, TenantMovedError

__all__ = ["run_failover_soak", "tenants_covering_shards", "draw_workload",
           "MAX_RECOVERY_P99_MS"]

#: Ceiling for the soak: p99 latency (ms) across the *disrupted*
#: requests — those that hit at least one retryable error while a shard
#: died under them.  Deliberately generous (it covers the detector's
#: suspect window, journal replay, and client backoff on a noisy CI
#: runner); the point of the gate is that recovery is bounded, not that
#: it is instant.
MAX_RECOVERY_P99_MS = 1_500.0

SEED = 7429

#: Soak scale: (requests, arrival rate rps, fault injections).
_SOAK_FULL = (6_000, 2_500.0, 6)
_SOAK_QUICK = (1_200, 1_500.0, 3)

#: Soak topology: three shards so two kills still leave a survivor
#: (DEAD is terminal — there is no resurrection path to lean on).
_SOAK_SHARDS = 3
_SOAK_DIM = 6
_SOAK_FAULTS = 5


def draw_workload(
    topo: Hypercube, faults: FaultSet, count: int, rng: np.random.Generator
) -> List[Tuple[int, int]]:
    """``count`` (src, dst) pairs with distinct endpoints healthy under
    ``faults``."""
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


def tenants_covering_shards(shards: int) -> List[str]:
    """Deterministic tenant names ``tenant-k``, one placed on each shard
    of a ``shards``-shard :class:`~repro.service.HashRing`."""
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


async def _soak(quick: bool) -> Dict:
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
    tenants = tenants_covering_shards(_SOAK_SHARDS)
    pairs = draw_workload(topo, faults, total, rng)

    async with ShardRouter(shards=_SOAK_SHARDS, auto_failover=True,
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
            check = draw_workload(topo, recovered, 1_000, rng)
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


def run_failover_soak(quick: bool = False) -> Dict:
    """Run the chaos-driven failover soak; returns its report section.

    Correctness gates (exactly-one response per accepted request, zero
    losses, zero duplicates, post-failover bit-identity with the offline
    kernel, both detection paths exercised) are asserted inside the run
    itself — a violation raises, it is never just a number in a report.
    """
    return asyncio.run(_soak(quick))
