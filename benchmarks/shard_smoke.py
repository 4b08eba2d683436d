"""Smoke test: sharded serving end-to-end over real sockets.

The CI ``shard-smoke`` job's driver.  Boots a two-shard, two-tenant
:class:`~repro.service.ShardRouter` behind the TCP front-end, then
checks the full production story through actual connections:

1. **Binary wire path** — a pipelined :class:`WireClient` binds each
   tenant, ships its workload as one ``BLOCK`` frame, and every response
   row must be bit-identical to the offline ``route_unicast_batch``.
2. **Old-protocol compat** — a plain line-protocol client (``tenant
   <name>``, ``<src> <dst>``, ``fault add``) works on the same port,
   auto-detected from the first byte.
3. **Graceful degradation** — killing one shard turns its tenant's
   requests into structured ``E_SHARD_DOWN`` errors on live connections
   (binary and line), while the surviving tenant keeps routing with
   correct responses.

Run standalone::

    PYTHONPATH=src python benchmarks/shard_smoke.py [--port 7519]
"""

from __future__ import annotations

import argparse
import asyncio
import json
from typing import Sequence

import numpy as np

from repro.analysis.failover_soak import tenants_covering_shards
from repro.core import FaultSet, Hypercube
from repro.routing.batch import route_unicast_batch
from repro.safety.levels import compute_safety_levels
from repro.service import ShardRouter, WireClient, WireError
from repro.service import wire
from repro.service.server import serve_forever

DIMENSION = 6
FAULT_NODES = [0, 9, 33, 50]
ROUTES = 500
SEED = 7519


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


async def _check_binary_tenant(port: int, tenant: str, srcs, dsts,
                               faults: FaultSet) -> None:
    topo = Hypercube(DIMENSION)
    levels = compute_safety_levels(topo, faults)
    ref = route_unicast_batch(topo, levels, srcs, dsts)
    async with await WireClient.connect("127.0.0.1", port) as client:
        epoch, n = await client.set_tenant(tenant)
        assert (epoch, n) == (1, DIMENSION), (tenant, epoch, n)
        block = await client.route_block(srcs, dsts)
        assert block.epoch == 1
        assert np.array_equal(block.status.astype(np.int64),
                              ref.status.reshape(-1)), (
            f"tenant {tenant!r}: wire block status diverged from offline")
        assert np.array_equal(block.hops, ref.hops.reshape(-1))
    print(f"  binary: tenant {tenant!r} BLOCK of {len(srcs)} routes "
          f"bit-identical to offline")


async def _check_line_protocol(port: int, tenant: str) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        async def ask(line: str) -> dict:
            writer.write(line.encode() + b"\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.readline(), timeout=10)
            assert raw, f"line session died on {line!r}"
            return json.loads(raw)

        bound = await ask(f"tenant {tenant}")
        assert bound["tenant"] == tenant and bound["epoch"] == 1, bound
        routed = await ask("1 2")
        assert routed["source"] == 1 and "error" not in routed, routed
        swap = await ask("fault add 13")
        assert swap["epoch"] == 2 and swap["spare"] in (True, False), swap
        epoch = await ask("epoch")
        assert epoch["epoch"] == 2, epoch
        bad = await ask("not a route")
        assert "error" in bad and bad["input"] == "not a route", bad
        again = await ask("1 2")
        assert "error" not in again, again
        writer.write(b"quit\n")
        await writer.drain()
    finally:
        writer.close()
        await writer.wait_closed()
    print(f"  line:   tenant {tenant!r} bind/route/fault/epoch ok; "
          f"malformed input answered without killing the session")


async def _check_degradation(port: int, router: ShardRouter,
                             dead: str, live: str, faults: FaultSet) -> None:
    async with await WireClient.connect("127.0.0.1", port) as client:
        await client.set_tenant(dead)
        victim_sid = router.shard_of(dead)
        downed = await router.kill_shard(victim_sid)
        assert dead in downed, (dead, downed)
        try:
            await client.route(1, 2)
            raise AssertionError("route on a dead shard did not error")
        except WireError as exc:
            assert exc.code == wire.E_SHARD_DOWN, exc
        # the same connection re-binds to the survivor and keeps working
        await client.set_tenant(live)
        resp = await client.route(1, 2)
        assert resp.epoch >= 1, resp
    assert router.live_shards() == [s for s in sorted(router.shards)
                                    if s != victim_sid]
    print(f"  chaos:  shard {victim_sid} killed — tenant {dead!r} fails "
          f"with E_SHARD_DOWN, tenant {live!r} still routes")


async def run_smoke(port: int) -> None:
    faults = FaultSet(nodes=FAULT_NODES)
    tenants = tenants_covering_shards(2)
    srcs, dsts = _workload(ROUTES, faults, SEED)

    async with ShardRouter(shards=2, window_us=200) as router:
        for name in tenants:
            await router.add_tenant(name, DIMENSION, faults=faults)
        ready = asyncio.Event()
        server = asyncio.ensure_future(
            serve_forever(router, port=port, ready=ready))
        await ready.wait()
        print(f"shard-smoke: 2 tenants {tenants} over 2 shards "
              f"on 127.0.0.1:{port}")
        try:
            for name in tenants:
                await _check_binary_tenant(port, name, srcs, dsts, faults)
            # line protocol mutates tenant 0's fault set; run it after
            # the bit-identity checks so epoch 1 stays comparable above
            await _check_line_protocol(port, tenants[0])
            await _check_degradation(port, router, dead=tenants[0],
                                     live=tenants[1], faults=faults)
        finally:
            server.cancel()
            try:
                await server
            except asyncio.CancelledError:
                pass
    print("shard-smoke: PASS")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=7519)
    args = parser.parse_args(argv)
    asyncio.run(run_smoke(args.port))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
