"""End-to-end routing service tests: identity, epochs, batching, cleanup.

The load-bearing claim is **bit-identity**: a response from the service —
through the batcher, the epoch's read-only table, and the kernel — equals
the offline ``route_unicast_batch`` outcome for (epoch fault set, src,
dst), for every epoch a churn run touches.  Around it: batching window
and lane semantics (one kernel call in flight per batcher, queued work
coalesced behind it), rejection of bad endpoints, ``repro stats``
and aggregation of the service telemetry.
"""

import asyncio
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
from repro.service import EpochManager, RoutingService, ServiceConfig
from repro.service import service as service_mod
from repro.service.service import REJECTED

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
        by_epoch = {}
        for resp in responses:
            by_epoch.setdefault(resp.epoch, []).append(resp)
        # every response re-derived offline from its own epoch's faults
        for epoch, group in by_epoch.items():
            routed = [r for r in group if r.status != REJECTED]
            levels, ref = _offline(Hypercube(N),
                                   FaultSet(nodes=epoch_faults[epoch]),
                                   [(r.source, r.dest) for r in routed])
            for r in group:
                if r.status == REJECTED:
                    assert levels[r.source] == 0 or levels[r.dest] == 0
            for k, r in enumerate(routed):
                assert (r.status, r.condition, r.hops) == (
                    _STATUS_BY_CODE[int(ref.status[0, k])].value,
                    _CONDITION_BY_CODE[int(ref.condition[0, k])].value,
                    int(ref.hops[0, k]))
        # the run actually straddled swaps: multiple epochs answered
        assert len(by_epoch) >= 2

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

    def test_endpoint_outside_int64_fails_alone(self):
        async def run():
            config = ServiceConfig(dimension=N, window_us=2000)
            async with RoutingService(config, faults=FAULTS) as svc:
                calls = [asyncio.ensure_future(svc.route(s, d))
                         for s, d in ((1, 2), (1 << 63, 1), (3, 4),
                                      (2, -(1 << 63) - 1))]
                return (await asyncio.gather(*calls, return_exceptions=True),
                        svc.batcher.flushes)

        (first, high, second, low), flushes = asyncio.run(run())
        # the int64 rows of a batch cannot hold these two: each is refused
        # before it joins the window, and its neighbours are answered
        assert isinstance(high, ValueError) and isinstance(low, ValueError)
        assert first.status != "rejected" and second.status != "rejected"
        assert flushes == 1

    def test_block_endpoint_outside_int64_fails_alone(self):
        async def run():
            config = ServiceConfig(dimension=N, window_us=2000)
            async with RoutingService(config, faults=FAULTS) as svc:
                calls = [asyncio.ensure_future(svc.route(1, 2)),
                         asyncio.ensure_future(
                             svc.route_block([1 << 63, 1], [1, 2])),
                         asyncio.ensure_future(
                             svc.route_block([3], [-(1 << 63) - 1])),
                         asyncio.ensure_future(svc.route(3, 4))]
                return (await asyncio.gather(*calls, return_exceptions=True),
                        svc.batcher.flushes)

        (first, high, low, second), flushes = asyncio.run(run())
        # a block is checked as a single is: refused alone at intake,
        # with the ValueError the wire maps to E_BAD_REQUEST
        assert isinstance(high, ValueError) and isinstance(low, ValueError)
        assert first.status != "rejected" and second.status != "rejected"
        assert flushes == 1


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


class _Kernel:
    """Stands in for ``route_task``: records each kernel call's rows,
    epoch, overlap and thread, and runs ``during(k)`` inside call ``k``.

    The service calls the kernel inline on the event loop's thread, so
    ``during`` must not block: it queues work behind the busy lane by
    creating tasks, which run (and enqueue) once the call returns.
    """

    def __init__(self) -> None:
        self.rows = []
        self.epochs = []
        self.threads = []
        self.active = 0
        self.max_active = 0
        self.during = None
        self._route = service_mod.route_task

    def __call__(self, table, epoch, n, srcs, dsts, tie_break):
        call = len(self.rows)
        self.active += 1
        self.max_active = max(self.max_active, self.active)
        self.rows.append(len(srcs))
        self.epochs.append(epoch)
        self.threads.append(threading.get_ident())
        try:
            if self.during is not None:
                self.during(call)
            return self._route(table, epoch, n, srcs, dsts, tie_break)
        finally:
            self.active -= 1


@pytest.fixture
def kernel(monkeypatch):
    """A :class:`_Kernel` patched in where the service calls it."""
    stand_in = _Kernel()
    monkeypatch.setattr(service_mod, "route_task", stand_in)
    return stand_in


def _queue(svc, blocks=(), singles=()):
    """Tasks submitting ``blocks`` then ``singles``, in that order; made
    inside a kernel call, they enqueue behind it once it returns."""
    return ([asyncio.ensure_future(svc.route_block(s, d))
             for s, d in blocks]
            + [asyncio.ensure_future(svc.route(s, d)) for s, d in singles])


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


def _assert_offline_single(resp, src, dst, faults):
    _levels, ref = _offline(Hypercube(N), faults, [(src, dst)])
    assert (resp.source, resp.dest) == (src, dst)
    assert resp.status == _STATUS_BY_CODE[int(ref.status[0, 0])].value
    assert resp.condition == \
        _CONDITION_BY_CODE[int(ref.condition[0, 0])].value
    assert (resp.hops, resp.hamming) == (int(ref.hops[0, 0]),
                                         int(ref.hamming[0, 0]))


class TestLane:
    def test_blocks_queued_behind_a_flush_share_one_later_call(self, kernel):
        first, *queued = _blocks(4, 8, seed=11)

        async def run():
            async with RoutingService(ServiceConfig(dimension=N),
                                      faults=FAULTS) as svc:
                tail = []

                def during(call):
                    if call == 0:
                        tail.extend(_queue(svc, queued))
                        asyncio.get_running_loop().call_soon(queued_all)

                def queued_all():
                    # runs once all three are queued, before the lane
                    # takes them
                    assert kernel.rows == [8]

                kernel.during = during
                head = await svc.route_block(*first)
                return head, await asyncio.gather(*tail), \
                    svc.batcher.flushes

        head, tail, flushes = asyncio.run(run())
        assert kernel.rows == [8, 24]
        assert flushes == 2
        assert len(head) == 8 and [len(b) for b in tail] == [8, 8, 8]

    def test_flushes_of_one_batcher_never_overlap(self, kernel):
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
        assert kernel.max_active == 1
        assert flushes == len(kernel.rows) > 1
        assert sum(kernel.rows) == 12 * 8 + 40
        assert max(kernel.rows) <= 16  # one call routes <= max_batch rows

    def test_block_on_idle_batcher_skips_the_window(self):
        (srcs, dsts), = _blocks(1, 8, seed=14)

        async def run():
            config = ServiceConfig(dimension=N, window_us=60_000)
            async with RoutingService(config, faults=FAULTS) as svc:
                await svc.route(1, 2)  # warm: the first kernel call is done
                start = time.perf_counter()
                block = await svc.route_block(srcs, dsts)
                return block, time.perf_counter() - start

        block, elapsed = asyncio.run(run())
        assert elapsed < 0.03, f"block waited {elapsed * 1e3:.1f} ms"
        _assert_offline(block, srcs, dsts, FAULTS)

    def test_one_row_block_waits_in_the_window(self, kernel):
        async def run():
            config = ServiceConfig(dimension=N, window_us=20_000)
            async with RoutingService(config, faults=FAULTS) as svc:
                block = asyncio.ensure_future(svc.route_block([1], [2]))
                await asyncio.sleep(0.002)
                single = await svc.route(3, 4)
                return await block, single

        block, single = asyncio.run(run())
        # a one-row block is a single in all but its answer's shape: it
        # waits in the window, and the single joins its kernel call
        assert kernel.rows == [2]
        assert len(block) == 1 and block.epoch == single.epoch == 1
        _assert_offline(block, [1], [2], FAULTS)
        _assert_offline_single(single, 3, 4, FAULTS)

    # The entries queued behind a 6-row head block, by width; 0 is a
    # single submitted through route().
    @pytest.mark.parametrize("widths", [
        (6, 6, 6, 6),
        (0, 1, 6, 0, 1, 9, 0, 2),
    ], ids=["blocks", "singles-one-row-and-wide"])
    def test_coalesced_blocks_share_one_epoch_and_match_offline(self,
                                                                 kernel,
                                                                 widths):
        sizes = [6] + [max(w, 1) for w in widths]
        pairs = _workload(sum(sizes), seed=15)
        bounds = np.cumsum([0] + sizes)
        srcs = np.array([s for s, _ in pairs], dtype=np.int64)
        dsts = np.array([d for _, d in pairs], dtype=np.int64)
        first, *queued = [(srcs[lo:hi], dsts[lo:hi])
                          for lo, hi in zip(bounds, bounds[1:])]
        used = set(srcs.tolist()) | set(dsts.tolist())
        victim = next(v for v in range(1 << N)
                      if v not in used and not FAULTS.is_node_faulty(v))
        after = FaultSet(nodes=sorted(FAULTS.nodes | {victim}))

        async def run():
            async with RoutingService(ServiceConfig(dimension=N),
                                      faults=FAULTS) as svc:
                tail = []

                def during(call):
                    if call == 0:
                        # the epoch moves on while the lane is busy: the
                        # running flush keeps epoch 1, the coalesced one
                        # takes epoch 2
                        svc.epochs.apply_fault_event(add=[victim])
                        tail.extend(
                            asyncio.ensure_future(
                                svc.route(int(s[0]), int(d[0])) if not w
                                else svc.route_block(s, d))
                            for w, (s, d) in zip(widths, queued))

                kernel.during = during
                head = await svc.route_block(*first)
                return head, await asyncio.gather(*tail)

        head, tail = asyncio.run(run())
        assert kernel.rows == [6, sum(sizes[1:])]
        assert kernel.epochs == [1, 2]
        assert head.epoch == 1
        _assert_offline(head, *first, FAULTS)
        assert {b.epoch for b in tail} == {2}
        for w, answer, (srcs, dsts) in zip(widths, tail, queued):
            if not w:
                _assert_offline_single(answer, int(srcs[0]), int(dsts[0]),
                                       after)
                continue
            assert np.array_equal(answer.sources, srcs)
            assert np.array_equal(answer.dests, dsts)
            _assert_offline(answer, srcs, dsts, after)

    def test_drain_resolves_everything_queued_behind_the_lane(self, kernel):
        first, *queued = _blocks(3, 8, seed=16)
        singles = _workload(5, seed=17)

        async def run():
            svc = RoutingService(ServiceConfig(dimension=N), faults=FAULTS)
            async with svc:
                tail, closing = [], []

                def during(call):
                    if call == 0:
                        tail.extend(_queue(svc, queued, singles))
                        closing.append(asyncio.ensure_future(
                            svc.batcher.drain()))
                    else:
                        # the drain waits on the collector and its lane
                        assert not closing[0].done()

                kernel.during = during
                head = await svc.route_block(*first)
                await closing[0]
                assert all(t.done() for t in tail)
                return head, await asyncio.gather(*tail)

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
                tail, head = [], []

                def during(call):
                    if call == 0:
                        tail.extend(_queue(svc, queued, [(1, 2)]))
                        asyncio.get_running_loop().call_soon(abort)

                def abort():
                    # the three are queued; the flush that just ran owns
                    # the head, whose task has not resumed yet
                    svc.batcher.abort(RuntimeError("shard killed"))
                    assert not head[0].done()

                kernel.during = during
                head.append(asyncio.ensure_future(svc.route_block(*first)))
                block = await head[0]
                return block, await asyncio.gather(*tail,
                                                   return_exceptions=True)

        head, results = asyncio.run(run())
        assert kernel.rows == [8]
        assert len(head) == 8
        assert len(results) == 3
        assert all(isinstance(r, RuntimeError) and "shard killed" in str(r)
                   for r in results)

    def test_kernel_calls_and_fault_events_run_on_the_loop_thread(
            self, kernel, monkeypatch):
        events = []
        apply = EpochManager.apply_fault_event

        def recording(manager, *args, **kwargs):
            events.append(threading.get_ident())
            return apply(manager, *args, **kwargs)

        monkeypatch.setattr(EpochManager, "apply_fault_event", recording)
        (srcs, dsts), = _blocks(1, 8, seed=19)

        async def run():
            async with RoutingService(ServiceConfig(dimension=N),
                                      faults=FAULTS) as svc:
                await svc.route_block(srcs, dsts)
                await svc.inject_faults(add=[30])
                await svc.route(1, 2)
            return threading.get_ident()

        loop_thread = asyncio.run(run())
        assert kernel.threads == [loop_thread] * 2
        assert events == [loop_thread]

    def test_a_block_past_max_batch_routes_in_slices_on_one_epoch(
            self, kernel):
        (srcs, dsts), = _blocks(1, 40, seed=20)
        victim = 30  # healthy at epoch 1, faulty from epoch 2
        # a row of a later slice uses it: routed on epoch 2 it would be
        # refused, and the offline check below would fail
        assert victim in srcs[16:]

        async def run():
            config = ServiceConfig(dimension=N, max_batch=16)
            async with RoutingService(config, faults=FAULTS) as svc:
                swaps = []

                def during(call):
                    if call == 0:
                        swaps.append(asyncio.ensure_future(
                            svc.inject_faults(add=[victim])))

                kernel.during = during
                block = await svc.route_block(srcs, dsts)
                return block, swaps[0]

        block, swap = asyncio.run(run())
        assert kernel.rows == [16, 16, 8]
        # the fault event landed between slices; the block kept its epoch
        assert swap.done() and swap.result().epoch == 2
        assert kernel.epochs == [1, 1, 1] and block.epoch == 1
        _assert_offline(block, srcs, dsts, FAULTS)


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

