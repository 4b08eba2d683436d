"""Self-healing tier: failure detection, exact failover, admission.

Shard death comes in two flavors — injected (``kill_shard``: the router
is told) and inferred (``crash_shard``: the shard just stops answering
and only the :class:`FailureDetector`'s suspect window can rule).  Both
must converge to the same exact recovery: tenants re-placed on
survivors with journal-replayed epochs that are bit-identical to the
offline kernel.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.core import FaultSet
from repro.obs import observed, read_events, summarize_run
from repro.obs.events import validate_stream
from repro.obs.runstats import render_stats
from repro.service import (
    EpochManager,
    FailureDetector,
    HashRing,
    HealthConfig,
    OverloadError,
    ShardDownError,
    ShardHealth,
    ShardRetryError,
    ShardRouter,
    TenantMovedError,
)

from .test_shard import _offline, _workload


class TestHealthConfig:
    def test_rejects_nonsense_thresholds(self):
        with pytest.raises(ValueError, match="interval_s"):
            HealthConfig(interval_s=0.0)
        with pytest.raises(ValueError, match="suspect_after"):
            HealthConfig(suspect_after=0)
        with pytest.raises(ValueError, match="dead_after"):
            HealthConfig(suspect_after=3, dead_after=2)


class TestFailureDetector:
    def test_alive_suspect_dead_progression(self):
        async def run():
            async with ShardRouter(shards=2, window_us=100,
                                   auto_failover=True) as router:
                sid = await router.add_tenant("blue", dimension=4)
                det = FailureDetector(
                    router, HealthConfig(suspect_after=2, dead_after=4))
                assert det.health(sid) is ShardHealth.ALIVE
                await router.crash_shard(sid)
                # the router still believes the shard is alive: death
                # must be inferred, not read off router state
                assert router.shards[sid].alive

                assert await det.probe_round() == []
                assert det.health(sid) is ShardHealth.ALIVE   # 1 miss
                assert await det.probe_round() == []
                assert det.health(sid) is ShardHealth.SUSPECT  # 2 misses
                assert await det.probe_round() == []
                assert det.health(sid) is ShardHealth.SUSPECT  # 3 misses
                assert await det.probe_round() == [sid]
                assert det.health(sid) is ShardHealth.DEAD     # 4: confirmed
                assert det.deaths == 1
                # the default death callback already ran the failover
                assert router.failovers[-1].detected == "inferred"
                assert not router.shards[sid].alive
                return det

        det = asyncio.run(run())
        assert det.missed == 4

    def test_suspect_recovers_to_alive_on_answered_probe(self):
        async def run():
            async with ShardRouter(shards=1, window_us=100) as router:
                sid = await router.add_tenant("blue", dimension=4)
                det = FailureDetector(
                    router, HealthConfig(suspect_after=2, dead_after=4))
                # a transient blip: flip the heartbeat seam only, so no
                # services are torn down and the shard can come back
                router.shards[sid].responsive = False
                await det.probe_round()
                await det.probe_round()
                assert det.health(sid) is ShardHealth.SUSPECT
                assert det.misses(sid) == 2
                router.shards[sid].responsive = True
                await det.probe_round()
                assert det.health(sid) is ShardHealth.ALIVE
                assert det.misses(sid) == 0
                assert det.deaths == 0
                # the tenant never noticed
                resp = await router.route("blue", 0, 1)
                assert resp.status != "error"

        asyncio.run(run())

    def test_dead_shards_stop_being_probed(self):
        async def run():
            async with ShardRouter(shards=2, window_us=100,
                                   auto_failover=True) as router:
                sid = await router.add_tenant("blue", dimension=4)
                det = FailureDetector(
                    router, HealthConfig(suspect_after=1, dead_after=1))
                await router.crash_shard(sid)
                assert await det.probe_round() == [sid]
                probes_at_death = det.probes
                await det.probe_round()
                # only the survivor was probed in the second round
                return det.probes - probes_at_death

        assert asyncio.run(run()) == 1

    def test_death_callback_override(self):
        async def run():
            confirmed = []

            async def on_death(sid):
                confirmed.append(sid)

            async with ShardRouter(shards=2, window_us=100) as router:
                sid = await router.add_tenant("blue", dimension=4)
                det = FailureDetector(
                    router, HealthConfig(suspect_after=1, dead_after=2),
                    on_death=on_death)
                await router.crash_shard(sid)
                await det.probe_round()
                assert confirmed == []
                await det.probe_round()
                assert confirmed == [sid]
                # override means *no* default failover ran
                assert router.failovers == []

        asyncio.run(run())

    def test_background_loop_confirms_a_crash(self):
        async def run():
            async with ShardRouter(shards=2, window_us=100,
                                   auto_failover=True) as router:
                sid = await router.add_tenant("blue", dimension=4)
                cfg = HealthConfig(interval_s=0.005,
                                   suspect_after=1, dead_after=2)
                async with FailureDetector(router, cfg) as det:
                    await router.crash_shard(sid)
                    for _ in range(200):
                        if det.health(sid) is ShardHealth.DEAD:
                            break
                        await asyncio.sleep(0.005)
                    assert det.health(sid) is ShardHealth.DEAD
                # failover already happened: the tenant routes again
                resp = await router.route("blue", 0, 1)
                assert resp.epoch == 1

        asyncio.run(run())


class TestFailover:
    def test_inferred_death_recovers_exact_epoch_and_routes(self):
        faults = FaultSet(nodes=[3, 12])

        async def run():
            async with ShardRouter(shards=2, window_us=200,
                                   auto_failover=True) as router:
                sid = await router.add_tenant("blue", dimension=5,
                                              faults=faults)
                await router.inject_faults("blue", add=[9, 17])
                await router.inject_faults("blue", add=[22], remove=[9])
                journal = router.journal_of("blue")
                assert journal.recovered_epoch() == 3

                await router.crash_shard(sid)
                det = FailureDetector(
                    router, HealthConfig(suspect_after=1, dead_after=2))
                await det.probe_round()
                await det.probe_round()
                report = router.failovers[-1]
                assert report.detected == "inferred"
                assert report.moved["blue"] != sid
                assert report.epochs_replayed == 2
                assert report.failover_ms > 0

                recovered = journal.recovered_faults()
                assert set(recovered.nodes) == {3, 12, 17, 22}
                srcs, dsts = _workload(150, 5, recovered, seed=7)
                block = await router.route_block("blue", srcs, dsts)
                one = await router.route("blue", int(srcs[0]), int(dsts[0]))
                return recovered, srcs, dsts, block, one

        recovered, srcs, dsts, block, one = asyncio.run(run())
        assert one.epoch == 3
        # post-failover routing is bit-identical to the offline kernel
        # against the journal-recovered fault set
        ref = _offline(5, recovered, srcs, dsts)
        assert np.array_equal(block.status.astype(np.int64),
                              ref.status.reshape(-1))
        assert np.array_equal(block.hops, ref.hops.reshape(-1))

    def test_injected_kill_with_auto_failover_moves_tenants(self):
        async def run():
            async with ShardRouter(shards=3, window_us=100,
                                   auto_failover=True) as router:
                k = 0
                while len(set(router.tenants().values())) < 2:
                    await router.add_tenant(f"tenant-{k}", dimension=4)
                    k += 1
                by_shard = {}
                for name, sid in router.tenants().items():
                    by_shard.setdefault(sid, []).append(name)
                victim = min(by_shard)
                downed = await router.kill_shard(victim)
                report = router.failovers[-1]
                assert report.detected == "injected"
                assert sorted(report.moved) == downed
                # every downed tenant routes again, on a surviving shard
                for name in downed:
                    assert router.shard_of(name) != victim
                    resp = await router.route(name, 0, 1)
                    assert resp.epoch == 1
                # idempotent: a second kill does not fail over again
                await router.kill_shard(victim)
                assert len(router.failovers) == 1

        asyncio.run(run())

    @pytest.mark.parametrize("kill_first", [True, False],
                             ids=["kill-first", "failover-first"])
    def test_racing_kill_and_failover_run_once(self, kill_first):
        faults = FaultSet(nodes=[3, 12])

        async def run():
            async with ShardRouter(shards=3, window_us=100,
                                   auto_failover=True) as router:
                k = 0
                while len(set(router.tenants().values())) < 2 \
                        or len(router.tenants()) < 6:
                    await router.add_tenant(f"tenant-{k}", dimension=5,
                                            faults=faults)
                    k += 1
                victim = router.shard_of("tenant-0")
                on_victim = sorted(name for name, sid
                                   in router.tenants().items()
                                   if sid == victim)
                for name in on_victim:
                    await router.inject_faults(name, add=[17])
                calls = [router.kill_shard(victim),
                         router.fail_over_shard(victim)]
                if not kill_first:
                    calls.reverse()
                results = await asyncio.gather(*calls)
                downed, report = results if kill_first else results[::-1]
                assert len(router.failovers) == 1
                assert report is router.failovers[0]
                # a later confirmation of the same death gets that report
                assert await router.fail_over_shard(victim) is report
                assert downed == on_victim == report.tenants
                assert sorted(report.moved) == on_victim
                assert report.epochs_replayed == len(on_victim)
                srcs, dsts = _workload(120, 5, FaultSet(nodes=[3, 12, 17]),
                                       seed=11)
                blocks = {}
                for name in on_victim:
                    journal = router.journal_of(name)
                    assert journal.generation == 1   # moved exactly once
                    assert router.shard_of(name) == report.moved[name]
                    assert router.shard_of(name) != victim
                    blocks[name] = (journal.recovered_epoch(),
                                    journal.recovered_faults(),
                                    await router.route_block(name, srcs,
                                                             dsts))
                return srcs, dsts, blocks

        srcs, dsts, blocks = asyncio.run(run())
        for name, (epoch, recovered, block) in blocks.items():
            assert epoch == 2 and block.epoch == epoch
            ref = _offline(5, recovered, srcs, dsts)
            assert np.array_equal(block.status.astype(np.int64),
                                  ref.status.reshape(-1)), name
            assert np.array_equal(block.condition.astype(np.int64),
                                  ref.condition.reshape(-1)), name
            assert np.array_equal(block.hops, ref.hops.reshape(-1)), name

    def test_no_survivors_strands_tenants_loudly(self):
        async def run():
            async with ShardRouter(shards=1, window_us=100,
                                   auto_failover=True) as router:
                await router.add_tenant("blue", dimension=4)
                await router.kill_shard(0)
                report = router.failovers[-1]
                assert report.tenants == ["blue"]
                assert report.moved == {}
                # nothing to move to: the error is retryable only in
                # name — there is no live shard, so it stays down
                with pytest.raises((ShardDownError, ShardRetryError)):
                    await router.route("blue", 0, 1)

        asyncio.run(run())

    def test_queued_requests_resolve_retryable_never_terminal(self):
        async def run():
            async with ShardRouter(shards=2, window_us=50_000,
                                   max_batch=4096,
                                   auto_failover=True) as router:
                sid = await router.add_tenant("blue", dimension=5)
                calls = [asyncio.ensure_future(router.route("blue", 1, v))
                         for v in (2, 3, 4, 5)]
                await asyncio.sleep(0.01)
                await router.kill_shard(sid)
                results = await asyncio.gather(*calls,
                                               return_exceptions=True)
                # callers caught in the window hear "retry" (failover in
                # flight) or "moved" (already re-placed) depending on
                # when their abort propagates — never a terminal error
                assert all(isinstance(r, (ShardRetryError, TenantMovedError))
                           for r in results)
                # and a post-failover retry is served
                resp = await router.route("blue", 1, 2)
                assert resp.epoch == 1

        asyncio.run(run())

    def test_translate_down_reports_moved_after_recovery(self):
        async def run():
            async with ShardRouter(shards=2, window_us=100,
                                   auto_failover=True) as router:
                sid = await router.add_tenant("blue", dimension=4)
                await router.kill_shard(sid)
                # a straggler abort from the dead shard, surfacing after
                # the tenant is already live elsewhere, becomes "moved"
                stale = ShardRetryError("late abort from the dead shard")
                translated = router._translate_down("blue", stale)
                assert isinstance(translated, TenantMovedError)

        asyncio.run(run())

    def test_crashed_shard_answers_retryable_until_confirmed(self):
        async def run():
            async with ShardRouter(shards=2, window_us=100) as router:
                sid = await router.add_tenant("blue", dimension=4)
                await router.crash_shard(sid)
                with pytest.raises(ShardRetryError,
                                   match="stopped responding"):
                    await router.route("blue", 0, 1)

        asyncio.run(run())

    def test_kill_without_failover_stays_terminal(self):
        async def run():
            async with ShardRouter(shards=2, window_us=100) as router:
                sid = await router.add_tenant("blue", dimension=4)
                await router.kill_shard(sid)
                with pytest.raises(ShardDownError):
                    await router.route("blue", 0, 1)
                assert router.failovers == []

        asyncio.run(run())


class TestReplayOnTheLoop:
    """Failover replays a journal inline on the event loop's thread,
    yielding after each delta so other tenants keep being served."""

    FAULTS = FaultSet(nodes=[3, 12])
    #: Twelve journaled deltas: node 9 added, removed, added, ...
    DELTAS = [((9,), ()) if k % 2 == 0 else ((), (9,)) for k in range(12)]

    @staticmethod
    def _record_events(monkeypatch, on_event):
        apply = EpochManager.apply_fault_event

        def recording(manager, *args, **kwargs):
            swap = apply(manager, *args, **kwargs)
            on_event(threading.get_ident())
            return swap

        monkeypatch.setattr(EpochManager, "apply_fault_event", recording)

    def test_replay_runs_on_the_loop_thread(self, monkeypatch):
        threads = []
        self._record_events(monkeypatch, threads.append)

        async def run():
            async with ShardRouter(shards=2, window_us=100,
                                   auto_failover=True) as router:
                sid = await router.add_tenant("blue", dimension=5,
                                              faults=self.FAULTS)
                for add, remove in self.DELTAS[:3]:
                    await router.inject_faults("blue", add=add,
                                               remove=remove)
                await router.kill_shard(sid)
                assert router.failovers[-1].epochs_replayed == 3
            return threading.get_ident()

        loop_thread = asyncio.run(run())
        # three fault events, then their three-delta replay
        assert threads == [loop_thread] * 6

    def test_other_tenants_are_served_during_a_replay(self, monkeypatch):
        ring = HashRing([0, 1])
        other = next(name for name in (f"other-{k}" for k in range(100))
                     if ring.place(name) != ring.place("blue"))
        srcs, dsts = _workload(64, 5, self.FAULTS, seed=5)

        async def run():
            async with ShardRouter(shards=2, window_us=100,
                                   auto_failover=True) as router:
                sid = await router.add_tenant("blue", dimension=5,
                                              faults=self.FAULTS)
                assert await router.add_tenant(
                    other, dimension=5, faults=self.FAULTS) != sid
                for add, remove in self.DELTAS:
                    await router.inject_faults("blue", add=add,
                                               remove=remove)
                replayed, answered, routed = [], [], []

                def on_event(_thread):
                    replayed.append(1)
                    if len(replayed) == 1:  # the replay's first delta
                        task = asyncio.ensure_future(
                            router.route_block(other, srcs, dsts))
                        task.add_done_callback(
                            lambda _task: answered.append(len(replayed)))
                        routed.append(task)

                self._record_events(monkeypatch, on_event)
                await router.kill_shard(sid)
                return router.failovers[-1], await routed[0], answered

        report, block, answered = asyncio.run(run())
        assert report.epochs_replayed == len(self.DELTAS)
        # the other tenant's block was answered after the replay's first
        # delta and before its last
        assert len(answered) == 1 and 1 <= answered[0] < len(self.DELTAS)
        assert block.epoch == 1
        ref = _offline(5, self.FAULTS, srcs, dsts)
        assert np.array_equal(block.status.astype(np.int64),
                              ref.status.reshape(-1))
        assert np.array_equal(block.hops, ref.hops.reshape(-1))

    def test_target_killed_mid_replay_does_not_strand_tenant(
            self, monkeypatch):
        """The shard a replaying tenant would land on dies between two
        deltas: the tenant is placed on a shard that is still alive."""
        home = HashRing(range(3)).place("blue")
        target = HashRing([s for s in range(3) if s != home]).place("blue")

        async def run():
            async with ShardRouter(shards=3, window_us=100,
                                   auto_failover=True) as router:
                assert await router.add_tenant(
                    "blue", dimension=5, faults=self.FAULTS) == home
                for add, remove in self.DELTAS:
                    await router.inject_faults("blue", add=add,
                                               remove=remove)
                replayed, kills = [], []

                def on_event(_thread):
                    replayed.append(1)
                    if len(replayed) == 1:  # the replay's first delta
                        kills.append(asyncio.ensure_future(
                            router.kill_shard(target, failover=False)))

                self._record_events(monkeypatch, on_event)
                await router.kill_shard(home)
                assert await kills[0] == []  # target held no tenant
                resp = await router.route("blue", 1, 2)
                return (router.failovers[-1], router.shard_of("blue"),
                        router.shards[target].alive, resp)

        report, placed, target_alive, resp = asyncio.run(run())
        assert not target_alive
        assert placed not in (home, target)
        assert report.moved == {"blue": placed}
        assert report.epochs_replayed == len(self.DELTAS)
        assert resp.epoch == 1 + len(self.DELTAS)


class TestAdmissionControl:
    def test_over_budget_requests_are_shed(self):
        async def run():
            async with ShardRouter(shards=1, window_us=50_000,
                                   max_batch=4096,
                                   max_tenant_inflight=3) as router:
                await router.add_tenant("blue", dimension=5)
                assert router.admission_limit("blue") == 3
                # the long window parks these inside the batcher, pinning
                # the in-flight count at the budget
                parked = [asyncio.ensure_future(router.route("blue", 1, v))
                          for v in (2, 3, 4)]
                await asyncio.sleep(0.01)
                with pytest.raises(OverloadError, match="admission budget"):
                    await router.route("blue", 1, 5)
                with pytest.raises(OverloadError):
                    srcs = np.array([1, 1], dtype=np.int64)
                    dsts = np.array([2, 3], dtype=np.int64)
                    await router.route_block("blue", srcs, dsts)
                assert router.shed == 2
                results = await asyncio.gather(*parked)
                assert all(r.status != "error" for r in results)
                # budget released: the same request is admitted again
                resp = await router.route("blue", 1, 5)
                assert resp.epoch == 1

        asyncio.run(run())

    def test_priority_scales_the_budget(self):
        async def run():
            async with ShardRouter(shards=1, window_us=100,
                                   max_tenant_inflight=4) as router:
                await router.add_tenant("blue", dimension=4)
                await router.add_tenant("gold", dimension=4, priority=3)
                assert router.admission_limit("blue") == 4
                assert router.admission_limit("gold") == 16
                router.set_priority("blue", 1)
                assert router.admission_limit("blue") == 8
                with pytest.raises(ValueError):
                    router.set_priority("blue", -1)

        asyncio.run(run())

    def test_admission_disabled_by_default(self):
        async def run():
            async with ShardRouter(shards=1, window_us=100) as router:
                await router.add_tenant("blue", dimension=4)
                assert router.admission_limit("blue") is None
                for v in range(1, 9):
                    await router.route("blue", 0, v)
                assert router.shed == 0

        asyncio.run(run())


class TestFailoverTelemetry:
    def test_failover_event_validates_and_folds_into_stats(self, tmp_path):
        path = tmp_path / "run.jsonl"

        async def run():
            async with ShardRouter(shards=2, window_us=100,
                                   auto_failover=True) as router:
                sid = await router.add_tenant("blue", dimension=4)
                await router.inject_faults("blue", add=[5])
                await router.kill_shard(sid)

        with observed(path, tool="test"):
            asyncio.run(run())

        records = list(read_events(path))
        validate_stream(records)  # schema-checks shard_failover too
        events = [r for r in records if r["type"] == "shard_failover"]
        assert len(events) == 1
        ev = events[0]
        assert ev["detected"] == "injected"
        assert ev["tenants"] == 1 and ev["moved"] == 1
        assert ev["epochs_replayed"] == 1
        assert ev["failover_ms"] > 0

        stats = summarize_run(path)
        assert stats.count("shard_failover") == 1
        assert stats.sum("shard_failover", "moved") == 1
        assert stats.tally("shard_failover", "detected") == {"injected": 1}
        rendered = render_stats(stats)
        assert "failover: 1 shard deaths" in rendered
        assert "tenants_moved=1" in rendered

    def test_shed_and_down_counters(self, tmp_path):
        async def run():
            async with ShardRouter(shards=1, window_us=50_000,
                                   max_batch=4096,
                                   max_tenant_inflight=1) as router:
                await router.add_tenant("blue", dimension=4)
                parked = asyncio.ensure_future(router.route("blue", 0, 1))
                await asyncio.sleep(0.01)
                with pytest.raises(OverloadError):
                    await router.route("blue", 0, 2)
                await parked
                await router.kill_shard(0)

        with observed() as (reg, _rec):
            asyncio.run(run())
            counters = reg.counter_values()
        assert counters["service.shed_requests"] == 1
        assert counters["service.shard_down"] == 1
        assert counters.get("service.failover_count", 0) == 0
