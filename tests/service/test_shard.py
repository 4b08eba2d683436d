"""ShardRouter: placement, multi-tenant isolation, and failure domains."""

import asyncio
import glob
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import FaultSet, Hypercube
from repro.routing.batch import route_unicast_batch
from repro.safety.levels import compute_safety_levels
from repro.service import ShardDownError, ShardRouter, UnknownTenantError
from repro.service.shard import HashRing
from repro.service.service import REJECTED_CODE


def _workload(count, dimension, faults, seed=0):
    rng = np.random.default_rng(seed)
    healthy = [v for v in range(1 << dimension)
               if not faults.is_node_faulty(v)]
    picks = rng.choice(healthy, size=(count, 2))
    mask = picks[:, 0] == picks[:, 1]
    picks[mask, 1] = healthy[0] if healthy[0] != picks[0, 0] else healthy[1]
    return picks[:, 0].astype(np.int64), picks[:, 1].astype(np.int64)


def _offline(dimension, faults, srcs, dsts):
    topo = Hypercube(dimension)
    levels = compute_safety_levels(topo, faults)
    return route_unicast_batch(topo, levels, srcs, dsts)


class TestHashRing:
    def test_placement_is_deterministic_across_instances(self):
        a = HashRing([0, 1, 2])
        b = HashRing([0, 1, 2])
        names = [f"tenant-{k}" for k in range(50)]
        assert [a.place(v) for v in names] == [b.place(v) for v in names]

    def test_every_shard_receives_tenants(self):
        ring = HashRing([0, 1, 2, 3])
        placed = {ring.place(f"tenant-{k}") for k in range(200)}
        assert placed == {0, 1, 2, 3}

    def test_growing_the_pool_moves_few_keys(self):
        names = [f"tenant-{k}" for k in range(400)]
        small = HashRing([0, 1, 2, 3])
        big = HashRing([0, 1, 2, 3, 4])
        moved = sum(small.place(v) != big.place(v) for v in names)
        # consistent hashing: roughly 1/5 of keys move, never most of them
        assert moved < len(names) // 2

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            HashRing([])


class TestMultiTenant:
    def test_two_tenants_route_independently_bit_identical(self):
        blue_faults = FaultSet(nodes=[0, 7, 21])
        green_faults = FaultSet(nodes=[3, 12])

        async def run():
            async with ShardRouter(shards=2, window_us=200) as router:
                await router.add_tenant("blue", dimension=5,
                                        faults=blue_faults)
                await router.add_tenant("green", dimension=6,
                                        faults=green_faults)
                b_s, b_d = _workload(120, 5, blue_faults, seed=3)
                g_s, g_d = _workload(120, 6, green_faults, seed=4)
                blue, green = await asyncio.gather(
                    router.route_block("blue", b_s, b_d),
                    router.route_block("green", g_s, g_d))
                return (b_s, b_d, blue), (g_s, g_d, green)

        (b_s, b_d, blue), (g_s, g_d, green) = asyncio.run(run())
        for (srcs, dsts, reply), (dim, faults) in (
                ((b_s, b_d, blue), (5, blue_faults)),
                ((g_s, g_d, green), (6, green_faults))):
            ref = _offline(dim, faults, srcs, dsts)
            assert np.array_equal(reply.status.astype(np.int64),
                                  ref.status.reshape(-1))
            assert np.array_equal(reply.hops, ref.hops.reshape(-1))

    def test_tenant_faults_stay_isolated(self):
        async def run():
            async with ShardRouter(shards=2, window_us=100) as router:
                await router.add_tenant("blue", dimension=5)
                await router.add_tenant("green", dimension=5)
                swap = await router.inject_faults("blue", add=[9])
                blue = await router.route("blue", 1, 9)
                green = await router.route("green", 1, 9)
                return swap, blue, green

        swap, blue, green = asyncio.run(run())
        assert swap.epoch == 2
        assert blue.epoch == 2 and blue.status == "rejected"
        assert green.epoch == 1 and green.status != "rejected"

    def test_placement_is_stable_and_exposed(self):
        async def run():
            async with ShardRouter(shards=3, window_us=100) as router:
                sid = await router.add_tenant("blue", dimension=4)
                assert router.shard_of("blue") == sid
                assert router.tenants() == {"blue": sid}
                return sid

        async def again():
            async with ShardRouter(shards=3, window_us=100) as router:
                return await router.add_tenant("blue", dimension=4)

        assert asyncio.run(run()) == asyncio.run(again())

    def test_duplicate_and_unknown_tenants_rejected(self):
        async def run():
            async with ShardRouter(shards=2, window_us=100) as router:
                await router.add_tenant("blue", dimension=4)
                with pytest.raises(ValueError, match="already registered"):
                    await router.add_tenant("blue", dimension=4)
                with pytest.raises(UnknownTenantError):
                    await router.route("ghost", 0, 1)

        asyncio.run(run())


class TestFailureDomains:
    def test_kill_shard_downs_its_tenants_only(self):
        async def run():
            async with ShardRouter(shards=2, window_us=100) as router:
                # register until both shards hold at least one tenant
                k = 0
                while len({s for s in router.tenants().values()}) < 2:
                    await router.add_tenant(f"tenant-{k}", dimension=5)
                    k += 1
                by_shard = {}
                for name, sid in router.tenants().items():
                    by_shard.setdefault(sid, []).append(name)
                victim_sid = min(by_shard)
                downed = await router.kill_shard(victim_sid)
                assert downed == sorted(by_shard[victim_sid])
                assert router.live_shards() == [
                    s for s in sorted(router.shards) if s != victim_sid]
                for name in downed:
                    with pytest.raises(ShardDownError):
                        await router.route(name, 0, 1)
                survivor = by_shard[max(by_shard)][0]
                resp = await router.route(survivor, 0, 1)
                assert resp.epoch == 1
                # idempotent: a second kill reports the same tenants
                assert await router.kill_shard(victim_sid) == downed

        asyncio.run(run())

    def test_kill_shard_aborts_queued_requests(self):
        async def run():
            async with ShardRouter(shards=1, window_us=50_000,
                                   max_batch=4096) as router:
                await router.add_tenant("blue", dimension=5)
                # a long window parks these in the batcher queue
                calls = [asyncio.ensure_future(router.route("blue", 1, v))
                         for v in (2, 3, 4, 5)]
                await asyncio.sleep(0.01)
                await router.kill_shard(0)
                results = await asyncio.gather(*calls,
                                               return_exceptions=True)
                assert all(isinstance(r, ShardDownError) for r in results)
                with pytest.raises(ShardDownError):
                    await router.route("blue", 1, 2)

        asyncio.run(run())

    def test_kill_and_failover_leave_no_shared_memory(self):
        """Epoch tables are in-process arrays: a fault event, a kill and
        a failover create no shared-memory segment, and the service
        package does not load the shared-memory module."""
        before = set(glob.glob("/dev/shm/repro_svc_*"))

        async def run():
            async with ShardRouter(shards=2, window_us=100,
                                   auto_failover=True) as router:
                sid = await router.add_tenant(
                    "blue", dimension=5, name_token="shardtest_blue")
                await router.add_tenant(
                    "green", dimension=5, name_token="shardtest_green")
                await router.inject_faults("blue", add=[3])
                await router.kill_shard(sid)
                assert router.shard_of("blue") != sid
                resp = await router.route("blue", 1, 2)
                assert resp.epoch == 2 and resp.delivered
                assert (await router.route("green", 1, 2)).delivered

        asyncio.run(run())
        assert set(glob.glob("/dev/shm/repro_svc_*")) <= before
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.service; "
             "print('multiprocessing.shared_memory' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True)
        assert loaded.stdout.strip() == "False"

    def test_dead_shard_leaves_the_ring_so_new_tenants_avoid_it(self):
        """Regression: kill_shard used to leave the dead shard's vnodes
        in the hash ring, so add_tenant could still place a new tenant
        onto a corpse.  Death handling must pull the vnodes."""
        async def run():
            async with ShardRouter(shards=2, window_us=100) as router:
                sid = await router.add_tenant("blue", dimension=4)
                assert sid in router._ring
                await router.kill_shard(sid)
                assert sid not in router._ring
                survivor = next(s for s in router.shards if s != sid)
                # every new tenant — including names that used to place
                # on the dead shard — now lands on the survivor
                for k in range(25):
                    name = f"probe-{k}"
                    assert router._ring.place(name) == survivor
                placed = await router.add_tenant("probe-0", dimension=4)
                assert placed == survivor
                resp = await router.route("probe-0", 0, 1)
                assert resp.epoch == 1

        asyncio.run(run())

    def test_all_shards_dead_refuses_new_tenants_loudly(self):
        async def run():
            async with ShardRouter(shards=1, window_us=100) as router:
                await router.add_tenant("blue", dimension=4)
                await router.kill_shard(0)
                with pytest.raises(ShardDownError, match="no live shards"):
                    await router.add_tenant("green", dimension=4)

        asyncio.run(run())
