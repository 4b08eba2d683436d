"""Smoke test: self-healing failover end-to-end over real sockets.

The CI ``failover-smoke`` job's driver.  Boots a three-shard
:class:`~repro.service.ShardRouter` (auto-failover on) behind the TCP
front-end with a background :class:`~repro.service.FailureDetector`,
then checks the whole self-healing story through actual connections:

1. **Injected death, transparent to the client** — a
   :class:`~repro.service.ResilientClient` streams routes while
   ``kill_shard`` takes its tenant's shard down mid-stream; every
   request still answers (the kill shows up only in the retry
   counters), and post-failover responses are bit-identical to the
   offline kernel against the journal-recovered fault state.
2. **Inferred death** — a second shard merely *crashes* (stops
   answering heartbeats); the detector's alive → suspect → dead machine
   confirms it and fires the same failover, again invisible to the
   streaming client.
3. **Journal-exact recovery** — faults injected before each death are
   present (at the right epoch number) after it.

Run standalone::

    PYTHONPATH=src python benchmarks/failover_smoke.py [--port 7570]
"""

from __future__ import annotations

import argparse
import asyncio
from typing import Sequence

import numpy as np

from repro.analysis.failover_soak import tenants_covering_shards
from repro.core import FaultSet, Hypercube
from repro.routing.batch import route_unicast_batch
from repro.safety.levels import compute_safety_levels
from repro.service import FailureDetector, HealthConfig, ResilientClient, \
    RetryPolicy, ShardHealth, ShardRouter
from repro.service.server import serve_forever

DIMENSION = 6
FAULT_NODES = [0, 9, 33]
ROUTES = 400
SEED = 7570

POLICY = RetryPolicy(max_attempts=60, base_delay_s=0.005,
                     max_delay_s=0.05, jitter=0.25)


def _workload(count: int, faults: FaultSet, seed: int):
    rng = np.random.default_rng(seed)
    healthy = np.array([v for v in range(1 << DIMENSION)
                        if not faults.is_node_faulty(v)], dtype=np.int64)
    srcs = healthy[rng.integers(0, healthy.size, size=count)]
    dsts = healthy[rng.integers(0, healthy.size, size=count)]
    same = srcs == dsts
    while same.any():
        dsts[same] = healthy[rng.integers(0, healthy.size,
                                          size=int(same.sum()))]
        same = srcs == dsts
    return srcs, dsts


async def _stream_through_death(port: int, router: ShardRouter,
                                tenant: str, kill) -> ResilientClient:
    """Stream single routes while ``kill`` takes the tenant's shard down;
    every request must answer, and the final epoch must match the
    tenant's journal."""
    async with await ResilientClient.connect(
            "127.0.0.1", port, tenant=tenant, policy=POLICY, seed=SEED) as c:
        answered = 0
        kill_task = None
        for i in range(60):
            if i == 20:
                # concurrent, not awaited: requests overlap the window
                kill_task = asyncio.ensure_future(kill())
            reply = await asyncio.wait_for(c.route(1, 2), timeout=30)
            assert reply.epoch >= 1, reply
            answered += 1
        await kill_task
        journal = router.journal_of(tenant)
        epoch, faults = await c.epoch()
        assert epoch == journal.recovered_epoch(), (
            f"epoch {epoch} after failover, journal says "
            f"{journal.recovered_epoch()}")
        assert answered == 60, f"only {answered}/60 requests answered"
        return c


async def _check_bit_identity(port: int, router: ShardRouter,
                              tenant: str) -> int:
    topo = Hypercube(DIMENSION)
    journal = router.journal_of(tenant)
    recovered = journal.recovered_faults()
    srcs, dsts = _workload(ROUTES, recovered, SEED)
    levels = compute_safety_levels(topo, recovered)
    ref = route_unicast_batch(topo, levels, srcs, dsts)
    async with await ResilientClient.connect(
            "127.0.0.1", port, tenant=tenant, policy=POLICY) as c:
        block = await c.route_block(srcs, dsts)
    assert block.epoch == journal.recovered_epoch(), block.epoch
    assert np.array_equal(block.status.astype(np.int64),
                          ref.status.reshape(-1)), (
        f"tenant {tenant!r}: post-failover wire block diverged from the "
        f"offline kernel on the journal-recovered fault set")
    assert np.array_equal(block.hops, ref.hops.reshape(-1))
    return len(srcs)


async def run_smoke(port: int) -> None:
    faults = FaultSet(nodes=FAULT_NODES)
    tenants = tenants_covering_shards(3)

    async with ShardRouter(shards=3, window_us=200,
                           auto_failover=True) as router:
        for name in tenants:
            await router.add_tenant(name, DIMENSION, faults=faults)
        detector = FailureDetector(router, HealthConfig(
            interval_s=0.01, suspect_after=2, dead_after=4))
        ready = asyncio.Event()
        server = asyncio.ensure_future(
            serve_forever(router, port=port, ready=ready))
        await ready.wait()
        print(f"failover-smoke: {len(tenants)} tenants over 3 shards "
              f"on 127.0.0.1:{port}, detector at "
              f"{detector.config.interval_s * 1e3:.0f} ms probes")
        try:
            async with detector:
                # a journal delta per tenant, so recovery must replay
                for name in tenants:
                    await router.inject_faults(name, add=[13])

                # 1. injected death under a streaming client
                victim_a = tenants[0]
                sid_a = router.shard_of(victim_a)
                c = await _stream_through_death(
                    port, router, victim_a,
                    kill=lambda: router.kill_shard(sid_a))
                rep = router.failovers[-1]
                assert rep.detected == "injected" and victim_a in rep.moved
                print(f"  injected: shard {sid_a} killed mid-stream — "
                      f"60/60 answered, {c.retries} retries, "
                      f"failover {rep.failover_ms:.1f} ms")

                # 2. inferred death: the shard only goes quiet
                victim_b = next(t for t in tenants
                                if router.shard_of(t) != router.shard_of(
                                    victim_a))
                sid_b = router.shard_of(victim_b)
                c = await _stream_through_death(
                    port, router, victim_b,
                    kill=lambda: router.crash_shard(sid_b))
                rep = router.failovers[-1]
                assert rep.detected == "inferred" and victim_b in rep.moved
                assert detector.health(sid_b) is ShardHealth.DEAD
                print(f"  inferred: shard {sid_b} crashed mid-stream — "
                      f"probes confirmed death, 60/60 answered, "
                      f"{c.retries} retries, failover "
                      f"{rep.failover_ms:.1f} ms")

                # 3. journal-exact recovery, bit-identical routing
                for name in (victim_a, victim_b):
                    n = await _check_bit_identity(port, router, name)
                    print(f"  exact:    tenant {name!r} BLOCK of {n} "
                          f"routes bit-identical to offline at epoch "
                          f"{router.journal_of(name).recovered_epoch()}")
        finally:
            server.cancel()
            try:
                await server
            except asyncio.CancelledError:
                pass
    print("failover-smoke: PASS")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=7570)
    args = parser.parse_args(argv)
    asyncio.run(run_smoke(args.port))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
