"""End-to-end routing service tests: identity, epochs, batching, cleanup.

The load-bearing claim is **bit-identity**: a response from the service —
through the batcher, the shared-memory table, and either backend — equals
the offline ``route_unicast_batch`` outcome for (epoch fault set, src,
dst), for every epoch a churn run touches.  Around it: batching window
and lane semantics (one kernel call in flight per batcher, queued work
coalesced behind it), rejection of bad endpoints, ``repro stats``
aggregation of the service telemetry, and segment hygiene at shutdown.
"""

import asyncio
import os
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core import FaultSet, Hypercube
from repro.routing.batch import (
    _CONDITION_BY_CODE,
    _STATUS_BY_CODE,
    route_unicast_batch,
)
from repro.safety.levels import compute_safety_levels
from repro.service import RoutingService, ServiceConfig
from repro.service import service as service_mod
from repro.service.bench import _cross_check
from repro.service.shm import segment_exists

N = 5
FAULTS = FaultSet(nodes=[0, 7, 21])


def _workload(count, seed=0, dimension=N, faults=FAULTS):
    rng = np.random.default_rng(seed)
    healthy = [v for v in range(1 << dimension)
               if not faults.is_node_faulty(v)]
    return [tuple(rng.choice(healthy, size=2, replace=False).tolist())
            for _ in range(count)]


def _offline(topo, faults, pairs):
    levels = compute_safety_levels(topo, faults)
    srcs = np.array([s for s, _ in pairs], dtype=np.int64)
    dsts = np.array([d for _, d in pairs], dtype=np.int64)
    return levels, route_unicast_batch(topo, levels, srcs, dsts)


class TestBitIdentity:
    def test_responses_match_offline_batch_router(self):
        pairs = _workload(300)

        async def run():
            config = ServiceConfig(dimension=N, window_us=200)
            async with RoutingService(config, faults=FAULTS) as svc:
                return await svc.route_many(pairs)

        responses = asyncio.run(run())
        topo = Hypercube(N)
        _levels, ref = _offline(topo, FAULTS, pairs)
        assert len(responses) == len(pairs)
        for k, resp in enumerate(responses):
            assert resp.epoch == 1
            assert (resp.source, resp.dest) == pairs[k]
            assert resp.status == _STATUS_BY_CODE[int(ref.status[0, k])].value
            assert resp.condition == \
                _CONDITION_BY_CODE[int(ref.condition[0, k])].value
            assert resp.hops == int(ref.hops[0, k])
            assert resp.hamming == int(ref.hamming[0, k])

    def test_worker_pool_backend_matches_offline(self):
        pairs = _workload(120, seed=3)

        async def run():
            config = ServiceConfig(dimension=N, window_us=200, workers=1)
            async with RoutingService(config, faults=FAULTS) as svc:
                return await svc.route_many(pairs)

        responses = asyncio.run(run())
        _levels, ref = _offline(Hypercube(N), FAULTS, pairs)
        for k, resp in enumerate(responses):
            assert resp.status == _STATUS_BY_CODE[int(ref.status[0, k])].value
            assert resp.hops == int(ref.hops[0, k])


class TestEpochChurn:
    def test_every_epoch_bit_identical_and_nothing_dropped(self):
        pairs = _workload(400, seed=7)
        epoch_faults = {}

        async def run():
            config = ServiceConfig(dimension=N, window_us=150)
            async with RoutingService(config, faults=FAULTS) as svc:
                epoch_faults[1] = frozenset(svc.epochs.current.faults.nodes)
                responses = []
                waves = np.array_split(np.arange(len(pairs)), 4)
                for w, wave in enumerate(waves):
                    tasks = [asyncio.ensure_future(svc.route(*pairs[i]))
                             for i in wave]
                    if w < 3:
                        victim = sorted(
                            v for v in range(1 << N)
                            if v not in epoch_faults[w + 1])[w]
                        swap = await svc.inject_faults(add=[victim])
                        epoch_faults[swap.epoch] = frozenset(
                            svc.epochs.current.faults.nodes)
                    responses.extend(await asyncio.gather(*tasks))
                return responses

        responses = asyncio.run(run())
        assert len(responses) == len(pairs)  # zero dropped
        check = _cross_check(Hypercube(N), responses, epoch_faults)
        assert check["bit_identical_to_offline"]
        assert check["responses_checked"] == len(pairs)
        # the run actually straddled swaps: multiple epochs answered
        assert len(check["epochs_observed"]) >= 2

    def test_request_with_newly_faulty_endpoint_is_rejected(self):
        async def run():
            config = ServiceConfig(dimension=N, window_us=100)
            async with RoutingService(config, faults=FAULTS) as svc:
                before = await svc.route(1, 9)
                await svc.inject_faults(add=[9])
                after = await svc.route(1, 9)
                return before, after

        before, after = asyncio.run(run())
        assert before.epoch == 1 and before.status != "rejected"
        assert after.epoch == 2 and after.status == "rejected"
        assert after.hamming == bin(1 ^ 9).count("1")

    def test_out_of_range_endpoints_rejected_not_fatal(self):
        async def run():
            config = ServiceConfig(dimension=N, window_us=100)
            async with RoutingService(config, faults=FAULTS) as svc:
                good = asyncio.ensure_future(svc.route(1, 2))
                bad = asyncio.ensure_future(svc.route(5, 1 << N))
                return await asyncio.gather(good, bad)

        good, bad = asyncio.run(run())
        # a garbage request in the window must not poison its batch
        assert good.status != "rejected"
        assert bad.status == "rejected"


class TestBatchingSemantics:
    def test_concurrent_requests_aggregate_into_one_flush(self):
        async def run():
            config = ServiceConfig(dimension=N, window_us=20_000)
            async with RoutingService(config, faults=FAULTS) as svc:
                await svc.route_many(_workload(50, seed=1))
                return svc.batcher.flushes

        assert asyncio.run(run()) == 1

    def test_max_batch_splits_oversized_windows(self):
        async def run():
            config = ServiceConfig(dimension=N, max_batch=16,
                                   window_us=20_000)
            async with RoutingService(config, faults=FAULTS) as svc:
                await svc.route_many(_workload(64, seed=2))
                return svc.batcher.flushes

        assert asyncio.run(run()) == 64 // 16

    def test_naive_config_is_one_flush_per_request(self):
        async def run():
            config = ServiceConfig(dimension=N, max_batch=1, window_us=0)
            async with RoutingService(config, faults=FAULTS) as svc:
                await svc.route_many(_workload(20, seed=4))
                return svc.batcher.flushes

        assert asyncio.run(run()) == 20

    def test_closed_service_refuses_new_requests(self):
        async def run():
            config = ServiceConfig(dimension=N)
            svc = RoutingService(config, faults=FAULTS)
            async with svc:
                await svc.route(1, 2)
            with pytest.raises(RuntimeError, match="closed"):
                await svc.route(1, 2)

        asyncio.run(run())


class _GatedKernel:
    """Stands in for ``route_task``: records each kernel call's rows and
    overlap, and holds calls until :attr:`release` is set, so a test can
    queue work behind a busy lane."""

    def __init__(self, hold: bool = False, delay_s: float = 0.0) -> None:
        self.rows = []
        self.epochs = []
        self.active = 0
        self.max_active = 0
        self.entered = threading.Event()
        self.release = threading.Event()
        if not hold:
            self.release.set()
        self.delay_s = delay_s
        self._lock = threading.Lock()
        self._route = service_mod.route_task

    def __call__(self, segment, epoch, n, srcs, dsts, tie_break):
        with self._lock:
            self.active += 1
            self.max_active = max(self.max_active, self.active)
            self.rows.append(len(srcs))
            self.epochs.append(epoch)
        self.entered.set()
        try:
            assert self.release.wait(timeout=10), "kernel never released"
            time.sleep(self.delay_s)
            return self._route(segment, epoch, n, srcs, dsts, tie_break)
        finally:
            with self._lock:
                self.active -= 1


@pytest.fixture
def kernel(monkeypatch):
    """A held :class:`_GatedKernel` patched in where the service calls it."""
    gated = _GatedKernel(hold=True)
    monkeypatch.setattr(service_mod, "route_task", gated)
    yield gated
    gated.release.set()


async def _until(flag: threading.Event) -> None:
    for _ in range(5_000):
        if flag.is_set():
            return
        await asyncio.sleep(0.001)
    raise AssertionError("timed out waiting on the kernel")


async def _submit_spaced(svc, blocks):
    """Submit blocks a few windows apart, each as its own task."""
    tasks = []
    for srcs, dsts in blocks:
        tasks.append(asyncio.ensure_future(svc.route_block(srcs, dsts)))
        await asyncio.sleep(0.002)
    return tasks


def _blocks(count, rows, seed):
    pairs = _workload(count * rows, seed=seed)
    srcs = np.array([s for s, _ in pairs], dtype=np.int64)
    dsts = np.array([d for _, d in pairs], dtype=np.int64)
    return [(srcs[k * rows:(k + 1) * rows], dsts[k * rows:(k + 1) * rows])
            for k in range(count)]


def _assert_offline(block, srcs, dsts, faults):
    _levels, ref = _offline(Hypercube(N), faults, list(zip(srcs, dsts)))
    assert np.array_equal(block.status.astype(np.int64),
                          ref.status.reshape(-1))
    assert np.array_equal(block.condition.astype(np.int64),
                          ref.condition.reshape(-1))
    assert np.array_equal(block.hops, ref.hops.reshape(-1))
    assert np.array_equal(block.hamming, ref.hamming.reshape(-1))


class TestLane:
    def test_blocks_queued_behind_a_flush_share_one_later_call(self, kernel):
        first, *queued = _blocks(4, 8, seed=11)

        async def run():
            async with RoutingService(ServiceConfig(dimension=N),
                                      faults=FAULTS) as svc:
                head = asyncio.ensure_future(svc.route_block(*first))
                await _until(kernel.entered)
                tail = await _submit_spaced(svc, queued)
                assert kernel.rows == [8]  # all three queue behind head
                kernel.release.set()
                return await head, await asyncio.gather(*tail), \
                    svc.batcher.flushes

        head, tail, flushes = asyncio.run(run())
        assert kernel.rows == [8, 24]
        assert flushes == 2
        assert len(head) == 8 and [len(b) for b in tail] == [8, 8, 8]

    def test_flushes_of_one_batcher_never_overlap(self, monkeypatch):
        gated = _GatedKernel(delay_s=0.002)
        monkeypatch.setattr(service_mod, "route_task", gated)
        blocks = _blocks(12, 8, seed=12)
        singles = _workload(40, seed=13)

        async def run():
            config = ServiceConfig(dimension=N, max_batch=16, window_us=0)
            async with RoutingService(config, faults=FAULTS) as svc:
                await asyncio.gather(
                    *(svc.route_block(*b) for b in blocks),
                    svc.route_many(singles))
                return svc.batcher.flushes

        flushes = asyncio.run(run())
        assert gated.max_active == 1
        assert flushes == len(gated.rows) > 1
        assert sum(gated.rows) == 12 * 8 + 40
        assert max(gated.rows) <= 16 + 8  # greedy rows, blocks never split

    def test_block_on_idle_batcher_skips_the_window(self):
        (srcs, dsts), = _blocks(1, 8, seed=14)

        async def run():
            config = ServiceConfig(dimension=N, window_us=60_000)
            async with RoutingService(config, faults=FAULTS) as svc:
                await svc.route(1, 2)  # warm: the table is attached
                start = time.perf_counter()
                block = await svc.route_block(srcs, dsts)
                return block, time.perf_counter() - start

        block, elapsed = asyncio.run(run())
        assert elapsed < 0.03, f"block waited {elapsed * 1e3:.1f} ms"
        _assert_offline(block, srcs, dsts, FAULTS)

    def test_coalesced_blocks_share_one_epoch_and_match_offline(self,
                                                                 kernel):
        first, *queued = _blocks(5, 6, seed=15)
        used = {int(v) for b in (first, *queued) for v in (*b[0], *b[1])}
        victim = next(v for v in range(1 << N)
                      if v not in used and not FAULTS.is_node_faulty(v))
        after = FaultSet(nodes=sorted(FAULTS.nodes | {victim}))

        async def run():
            async with RoutingService(ServiceConfig(dimension=N),
                                      faults=FAULTS) as svc:
                head = asyncio.ensure_future(svc.route_block(*first))
                await _until(kernel.entered)
                # the epoch moves on while the lane is busy: the held
                # flush keeps epoch 1, the coalesced one pins epoch 2
                await svc.inject_faults(add=[victim])
                tail = await _submit_spaced(svc, queued)
                kernel.release.set()
                return await head, await asyncio.gather(*tail)

        head, tail = asyncio.run(run())
        assert kernel.rows == [6, 24]
        assert kernel.epochs == [1, 2]
        assert head.epoch == 1
        _assert_offline(head, *first, FAULTS)
        assert {b.epoch for b in tail} == {2}
        for block, (srcs, dsts) in zip(tail, queued):
            assert np.array_equal(block.sources, srcs)
            _assert_offline(block, srcs, dsts, after)

    def test_drain_resolves_everything_queued_behind_the_lane(self, kernel):
        first, *queued = _blocks(3, 8, seed=16)
        singles = _workload(5, seed=17)

        async def run():
            svc = RoutingService(ServiceConfig(dimension=N), faults=FAULTS)
            async with svc:
                head = asyncio.ensure_future(svc.route_block(*first))
                await _until(kernel.entered)
                tail = await _submit_spaced(svc, queued)
                tail += [asyncio.ensure_future(svc.route(s, d))
                         for s, d in singles]
                await asyncio.sleep(0.02)
                closing = asyncio.ensure_future(svc.batcher.drain())
                await asyncio.sleep(0.02)
                assert not closing.done()  # the collector waits on the lane
                kernel.release.set()
                await closing
                assert all(t.done() for t in tail)
                return await head, await asyncio.gather(*tail)

        head, tail = asyncio.run(run())
        assert kernel.rows == [8, 8 + 8 + 5]
        assert len(head) == 8
        assert [len(b) for b in tail[:2]] == [8, 8]
        assert [(r.source, r.dest) for r in tail[2:]] == singles

    def test_abort_fails_the_queue_and_lets_the_lane_finish(self, kernel):
        first, *queued = _blocks(3, 8, seed=18)

        async def run():
            svc = RoutingService(ServiceConfig(dimension=N), faults=FAULTS)
            async with svc:
                head = asyncio.ensure_future(svc.route_block(*first))
                await _until(kernel.entered)
                tail = await _submit_spaced(svc, queued)
                tail.append(asyncio.ensure_future(svc.route(1, 2)))
                await asyncio.sleep(0.02)
                svc.batcher.abort(RuntimeError("shard killed"))
                results = await asyncio.gather(*tail,
                                               return_exceptions=True)
                assert not head.done()  # the held flush still owns it
                kernel.release.set()
                return await head, results

        head, results = asyncio.run(run())
        assert kernel.rows == [8]
        assert len(head) == 8
        assert len(results) == 3
        assert all(isinstance(r, RuntimeError) and "shard killed" in str(r)
                   for r in results)


class TestTelemetry:
    def test_repro_stats_aggregates_service_counters(self, tmp_path):
        out = tmp_path / "svc.jsonl"
        pairs = _workload(60, seed=5)

        async def run():
            config = ServiceConfig(dimension=N, window_us=200)
            async with RoutingService(config, faults=FAULTS) as svc:
                await svc.route_many(pairs[:30])
                await svc.inject_faults(add=[30])
                await svc.route_many(pairs[30:])

        with obs.observed(out) as (registry, _rec):
            asyncio.run(run())
            counters = registry.counter_values()
        obs.metrics().reset()

        assert counters["service.requests"] == 60
        assert counters["service.batches"] >= 2
        assert counters["service.epoch_swaps"] == 1
        assert counters["service.torn_reads"] == 0

        stats = obs.summarize_run(out)
        assert stats.service_requests == 60
        assert stats.service_batches == counters["service.batches"]
        assert stats.epoch_swaps == 1
        rendered = obs.render_stats(stats)
        assert "service:" in rendered
        assert "micro-batches" in rendered


class TestShutdownHygiene:
    def test_close_unlinks_every_segment(self):
        names = []

        async def run():
            config = ServiceConfig(dimension=N, window_us=100)
            async with RoutingService(config, faults=FAULTS) as svc:
                await svc.route(1, 2)
                await svc.inject_faults(add=[12])
                await svc.route(1, 2)
                names.extend(svc.epochs.live_segments().values())
                assert all(segment_exists(v) for v in names)

        asyncio.run(run())
        assert names
        assert not any(segment_exists(v) for v in names)

    def test_no_stray_service_segments_after_pool_run(self):
        token = f"pooltest{os.getpid()}"

        async def run():
            config = ServiceConfig(dimension=N, window_us=100, workers=1)
            async with RoutingService(config, faults=FAULTS,
                                      name_token=token) as svc:
                await svc.route_many(_workload(40, seed=6))
                await svc.inject_faults(add=[18])
                await svc.route_many(_workload(40, seed=8))

        asyncio.run(run())
        stray = [p for p in os.listdir("/dev/shm")
                 if p.startswith(f"repro_svc_{token}")]
        assert stray == []
