"""End-to-end instrumentation: hooks, observed(), stats round-trip,
and the disabled-path overhead guard."""

import time

import pytest

from repro.analysis.rounds import rounds_vs_faults
from repro.core import FaultSet, Hypercube, uniform_node_faults
from repro.obs import (
    STANDARD_COUNTERS,
    active_recorder,
    metrics,
    observed,
    read_events,
    summarize_run,
)
from repro.obs.instruments import record_route_attempt
from repro.obs.runstats import render_stats
from repro.routing import route_unicast
from repro.routing.safety_unicast import _route_unicast
from repro.safety import SafetyLevels


@pytest.fixture
def sl(q4):
    return SafetyLevels.compute(q4, FaultSet(nodes=[0b0110, 0b1001]))


class TestDisabledDefaults:
    def test_ambient_state_is_off(self):
        assert not metrics().enabled
        assert active_recorder() is None

    def test_hooks_are_noops_when_disabled(self, sl):
        metrics().reset()  # an earlier run's counts stay until the next
        route_unicast(sl, 0b0000, 0b1111)
        assert metrics().snapshot()["counters"] == {}

    def test_observed_restores_disabled_state(self, tmp_path):
        with observed(tmp_path / "run.jsonl"):
            assert metrics().enabled
            assert active_recorder() is not None
        assert not metrics().enabled
        assert active_recorder() is None


class TestRouteInstrumentation:
    def test_counters_account_for_every_attempt(self, sl, q4, rng):
        pairs = []
        alive = sl.faults.nonfaulty_nodes(q4)
        for s in alive:
            for d in alive:
                if s != d:
                    pairs.append((s, d))
        with observed() as (reg, _rec):
            for s, d in pairs:
                route_unicast(sl, s, d)
            counters = reg.counter_values()
        assert counters["route.attempts"] == len(pairs)
        outcome_total = sum(counters.get(k, 0) for k in (
            "route.delivered", "route.aborted_at_source",
            "route.stuck", "route.hop_limit"))
        assert outcome_total == len(pairs)
        condition_total = sum(
            v for k, v in counters.items() if k.startswith("route.condition."))
        assert condition_total == len(pairs)

    def test_route_attempt_events_mirror_results(self, sl, tmp_path):
        path = tmp_path / "run.jsonl"
        with observed(path):
            result = route_unicast(sl, 0b0000, 0b1111)
        events = [r for r in read_events(path) if r["type"] == "route_attempt"]
        assert len(events) == 1
        assert events[0]["status"] == result.status.value
        assert events[0]["condition"] == result.condition.value
        assert events[0]["hops"] == result.hops
        assert events[0]["hamming"] == result.hamming

    def test_instrumentation_does_not_change_routes(self, sl, q4, rng):
        faults = uniform_node_faults(q4, 3, rng)
        levels = SafetyLevels.compute(q4, faults)
        alive = faults.nonfaulty_nodes(q4)
        bare = [_route_unicast(levels, alive[0], d) for d in alive[1:]]
        with observed():
            hooked = [route_unicast(levels, alive[0], d) for d in alive[1:]]
        assert [r.path for r in bare] == [r.path for r in hooked]


class TestStatsRoundTrip:
    """emit -> summarize_run -> the numbers the live experiment reported."""

    def test_gs_and_sweep_aggregates_match_live_summaries(self, tmp_path):
        path = tmp_path / "run.jsonl"
        fault_counts = [1, 3, 5]
        trials = 40
        with observed(path, tool="test"):
            points = rounds_vs_faults(5, fault_counts, trials, seed=11)

        stats = summarize_run(path)
        # Every kernel trial is in the stream's merged rounds histogram.
        assert stats.gs_trials == trials * len(fault_counts)
        live_mean = (sum(p.gs.mean * p.gs.count for p in points)
                     / sum(p.gs.count for p in points))
        assert stats.gs_rounds_mean == pytest.approx(live_mean, abs=1e-12)
        assert stats.gs_rounds_max == max(int(p.gs.maximum) for p in points)
        # Sweep throughput telemetry covers the same trials.
        assert stats.sweep_trials == trials * len(fault_counts)
        assert stats.event_counts["sweep"] == len(fault_counts)
        assert stats.sum("sweep", "elapsed_s") > 0
        assert stats.sweep_trials_per_s > 0

    def test_snapshot_preregisters_standard_counters(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with observed(path):
            rounds_vs_faults(4, [2], 10, seed=3)
        stats = summarize_run(path)
        counters = stats.metrics_snapshot["counters"]
        for name in STANDARD_COUNTERS:
            assert name in counters
        # No routing happened, so the per-condition counters are zeros.
        assert counters["route.condition.C1"] == 0
        assert counters["gs.trials"] == 10

    def test_render_stats_carries_headlines(self, sl, tmp_path):
        path = tmp_path / "run.jsonl"
        with observed(path):
            route_unicast(sl, 0b0000, 0b1111)
            rounds_vs_faults(4, [2], 8, seed=5)
        text = render_stats(summarize_run(path))
        assert "routing: 1 attempts" in text
        assert "gs kernel: 8 trials" in text
        assert "trials/s" in text

    def test_condition_rates_sum_to_one(self, sl, q4, tmp_path):
        path = tmp_path / "run.jsonl"
        alive = sl.faults.nonfaulty_nodes(q4)
        with observed(path):
            for d in alive[1:]:
                route_unicast(sl, alive[0], d)
        stats = summarize_run(path)
        total = sum(stats.condition_rate(c)
                    for c in ("C1", "C2", "C3", "none"))
        assert total == pytest.approx(1.0)


class TestOverheadGuard:
    def test_disabled_hook_costs_stay_within_noise(self, sl, q4):
        """With observability off, the instrumented entry point must track
        the bare implementation: the hook is two global reads + a branch."""
        assert not metrics().enabled and active_recorder() is None
        alive = sl.faults.nonfaulty_nodes(q4)
        pairs = [(alive[0], d) for d in alive[1:]] * 20

        def clock(fn):
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                for s, d in pairs:
                    fn(sl, s, d)
                best = min(best, time.perf_counter() - t0)
            return best

        clock(route_unicast)  # warm both paths before measuring
        clock(_route_unicast)
        bare = clock(_route_unicast)
        hooked = clock(route_unicast)
        # Generous bound: the guard catches accidental always-on work
        # (snapshotting, event building), not scheduler jitter.
        assert hooked <= bare * 1.5 + 1e-3

    def test_disabled_hook_reads_nothing_from_the_result(self):
        class Exploding:
            def __getattr__(self, name):  # pragma: no cover - must not run
                raise AssertionError("hook touched the result while disabled")

        record_route_attempt(Exploding())
