"""Tests for dynamic safety-level maintenance (Section 2.2 policies)."""

import numpy as np
import pytest

from repro.core import FaultSet, Hypercube, uniform_node_faults
from repro.core.fault_models import FaultEvent, FaultSchedule
from repro.safety import compute_safety_levels, run_gs
from repro.safety.dynamic import DynamicLevelTracker
from repro.safety.levels import relax_levels


def _relax(topo, faults, start=None):
    """``(levels, rounds, messages)`` of the whole-cube loop on
    ``faults``, warm from a copy of ``start`` or cold from all-``n``."""
    if start is None:
        levels = np.full(topo.num_nodes, topo.dimension, dtype=np.int64)
    else:
        levels = np.array(start, dtype=np.int64)
    rounds, messages = relax_levels(levels, faults.node_mask(topo.num_nodes))
    return levels, rounds, messages


class TestIncrementalRecompute:
    """The whole-cube loop that the incremental engine's waves are
    checked against, checked here against the simulator."""

    def test_cold_start_matches_batch(self, q5, rng):
        for _ in range(5):
            faults = uniform_node_faults(q5, 8, rng)
            levels, _r, _m = _relax(q5, faults)
            assert np.array_equal(levels, compute_safety_levels(q5, faults))

    def test_message_count_matches_distributed_protocol(self, q4, rng):
        """The analytic on-change accounting equals the simulator's."""
        for _ in range(10):
            faults = uniform_node_faults(q4, int(rng.integers(0, 9)), rng)
            _levels, rounds, messages = _relax(q4, faults)
            gs = run_gs(q4, faults, policy="on-change")
            assert messages == gs.messages_sent
            assert rounds == gs.stabilization_round

    def test_warm_start_after_failure_only(self, q5, rng):
        base = uniform_node_faults(q5, 4, rng)
        prev, _r, _m = _relax(q5, base)
        extra_node = next(v for v in q5.iter_nodes()
                          if v not in base.nodes)
        grown = base.with_nodes([extra_node])
        warm, _r2, warm_msgs = _relax(q5, grown, prev)
        cold, _r3, cold_msgs = _relax(q5, grown)
        assert np.array_equal(warm, cold)
        assert warm_msgs <= cold_msgs  # warm start can only be cheaper

    def test_recovery_restart_is_correct(self, q4, rng):
        faults = uniform_node_faults(q4, 5, rng)
        prev, _r, _m = _relax(q4, faults)
        recovered = FaultSet(nodes=sorted(faults.nodes)[1:])
        levels, _r2, _m2 = _relax(q4, recovered)
        assert np.array_equal(levels,
                              compute_safety_levels(q4, recovered))
        # Warm from the old assignment, the recovered node re-entering
        # at n, reaches the same fixed point.
        start = prev.copy()
        start[sorted(faults.nodes)[0]] = q4.dimension
        warm, _r3, _m3 = _relax(q4, recovered, start)
        assert np.array_equal(warm, levels)


class TestTracker:
    @staticmethod
    def _schedule():
        return FaultSchedule(base=FaultSet(), events=[
            FaultEvent(time=2, node=5, fails=True),
            FaultEvent(time=4, node=9, fails=True),
            FaultEvent(time=7, node=5, fails=False),
        ])

    def test_state_change_policy_is_never_stale(self, q4):
        tracker = DynamicLevelTracker(q4, self._schedule(),
                                      policy="state-change")
        run = tracker.run()
        assert run.stale_ticks == 0
        # Recomputes exactly at event ticks (plus the bootstrap).
        assert run.recomputations == 4

    def test_periodic_policy_goes_stale_between_refreshes(self, q4):
        tracker = DynamicLevelTracker(q4, self._schedule(),
                                      policy="periodic", period=5)
        run = tracker.run()
        assert run.stale_ticks > 0
        assert run.recomputations < 4

    def test_periodic_every_tick_is_current(self, q4):
        tracker = DynamicLevelTracker(q4, self._schedule(),
                                      policy="periodic", period=1)
        run = tracker.run()
        assert run.stale_ticks == 0

    def test_periodic_refresh_pays_the_full_exchange(self, q4):
        """Periodic exchanges are wasted when status stays stable (§2.2):
        every due tick costs each healthy node a message per healthy
        neighbor per round, quiet ticks included."""
        schedule = self._schedule()
        periodic = DynamicLevelTracker(q4, schedule, policy="periodic",
                                       period=1).run()
        on_change = DynamicLevelTracker(q4, schedule,
                                        policy="state-change").run()
        assert periodic.total_messages > on_change.total_messages
        for tick in periodic.ticks[1:]:
            faulty = len(schedule.at(tick.time).nodes)
            # Q4 minus isolated faulty nodes: no two faults are adjacent
            links = 4 * 16 - 2 * 4 * faulty
            assert tick.gs_rounds >= 1
            assert tick.gs_messages == tick.gs_rounds * links
        quiet = [t for t in periodic.ticks[1:] if not t.fault_events]
        assert quiet and all(t.gs_messages > 0 for t in quiet)

    def test_quiet_schedule_costs_nothing_extra(self, q4):
        tracker = DynamicLevelTracker(
            q4, FaultSchedule(base=FaultSet()), policy="state-change")
        run = tracker.run()
        assert run.total_messages == 0
        assert len(run.ticks) == 1  # bootstrap only

    def test_rejects_bad_parameters(self, q4):
        with pytest.raises(ValueError):
            DynamicLevelTracker(q4, self._schedule(), policy="psychic")
        with pytest.raises(ValueError):
            DynamicLevelTracker(q4, self._schedule(), policy="periodic",
                                period=0)
