"""The incremental safety-level maintenance engine.

The engine claims that after any sequence of fault add/remove deltas it
holds exactly the Definition-1 fixed point a cold recompute would
produce (Theorem 1: the fixed point is unique), and that its frontier
waves charge the same rounds and messages as the warm-started
synchronous sweep accounting in :func:`~repro.safety.dynamic._gs_message_cost`.
These tests pin both claims, the fallback heuristic, the delta
validation, and the view/tracker integration on top.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FaultSet, Hypercube, uniform_node_faults
from repro.obs import instruments as obs
from repro.safety import compute_safety_levels
from repro.safety.dynamic import IncrementalLevelView, _gs_message_cost
from repro.safety.incremental import IncrementalLevelEngine


def _isolating_faults(topo):
    """All neighbors of node 0 faulty: node 0 is a disconnected healthy
    island whose level still follows Definition 1 (it sees n faulty
    neighbors, so its level pins at 0 < safe... actually at 0 faulty
    neighbors' levels = 0, giving level 0's staircase at t=0)."""
    return FaultSet(nodes=[1 << d for d in range(topo.dimension)])


class TestDeltaCorrectness:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 8), st.data())
    def test_delta_sequence_matches_cold_recompute(self, n, data):
        """Property: after arbitrary add/remove sequences the engine's
        levels equal a cold full GS on the current fault set."""
        topo = Hypercube(n)
        num_nodes = topo.num_nodes
        engine = IncrementalLevelEngine(topo)
        faulty = set()
        steps = data.draw(st.integers(1, 5))
        for _ in range(steps):
            add = data.draw(st.sets(
                st.integers(0, num_nodes - 1), max_size=max(2, n)))
            removable = sorted(faulty - add)
            remove = set(data.draw(st.lists(
                st.sampled_from(removable), unique=True,
                max_size=len(removable))) if removable else [])
            engine.apply_delta(add=add, remove=remove)
            faulty = (faulty | add) - remove
            cold = compute_safety_levels(topo, FaultSet(nodes=faulty))
            assert np.array_equal(engine.levels, cold)
        assert engine.faults.nodes == frozenset(faulty)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 6), st.data())
    def test_accounting_matches_warm_full_sweep(self, n, data):
        """Each delta's rounds/messages equal the warm-started
        synchronous sweep accounting from the pre-delta assignment."""
        topo = Hypercube(n)
        engine = IncrementalLevelEngine(topo)
        for _ in range(data.draw(st.integers(1, 4))):
            prev = engine.levels.copy()
            add = data.draw(st.sets(
                st.integers(0, topo.num_nodes - 1), max_size=3))
            faulty = sorted(set(engine.faults.nodes) | add)
            remove = (set(data.draw(st.lists(
                st.sampled_from(faulty), unique=True, max_size=2)))
                if faulty else set()) - add
            stats = engine.apply_delta(add=add, remove=remove)
            # Reproduce the engine's start state, then full warm sweeps.
            start = prev
            start[sorted(add)] = 0
            if remove:
                start[sorted(remove)] = n
            ref_levels, ref_rounds, ref_msgs = _gs_message_cost(
                topo, engine.faults, start=start)
            assert np.array_equal(engine.levels, ref_levels)
            assert stats.rounds == ref_rounds
            assert stats.messages == ref_msgs

    def test_disconnected_safe_set(self, q4):
        """Isolating faults (node 0 cut off) converge and match cold."""
        engine = IncrementalLevelEngine(q4)
        engine.apply_delta(add=_isolating_faults(q4).nodes)
        cold = compute_safety_levels(q4, _isolating_faults(q4))
        assert np.array_equal(engine.levels, cold)
        # Heal one neighbor: the island reconnects; still exact.
        engine.apply_delta(remove=[1])
        healed = FaultSet(nodes=sorted(_isolating_faults(q4).nodes - {1}))
        assert np.array_equal(engine.levels,
                              compute_safety_levels(q4, healed))

    def test_boot_matches_cold_compute(self, q5, rng):
        faults = uniform_node_faults(q5, 7, rng)
        engine = IncrementalLevelEngine(q5, faults)
        assert np.array_equal(engine.levels,
                              compute_safety_levels(q5, faults))
        ref_levels, ref_rounds, ref_msgs = _gs_message_cost(
            q5, faults, start=None)
        assert engine.gs_rounds == ref_rounds
        assert engine.gs_messages == ref_msgs

    def test_levels_view_is_read_only(self, q3):
        engine = IncrementalLevelEngine(q3)
        with pytest.raises(ValueError):
            engine.levels[0] = 3


class TestDeltaMechanics:
    def test_noop_delta_is_free(self, q4):
        engine = IncrementalLevelEngine(q4, FaultSet(nodes=[3]))
        before = (engine.gs_rounds, engine.gs_messages)
        stats = engine.apply_delta()
        assert stats.changed == 0 and stats.messages == 0
        stats = engine.apply_delta(add=[3])  # already faulty: filtered
        assert stats.dirty_seed == 0 and stats.messages == 0
        stats = engine.apply_delta(remove=[5])  # already healthy
        assert stats.dirty_seed == 0
        assert (engine.gs_rounds, engine.gs_messages) == before

    def test_validation_errors(self, q4):
        engine = IncrementalLevelEngine(q4)
        with pytest.raises(ValueError):
            engine.apply_delta(add=[q4.num_nodes])
        with pytest.raises(ValueError):
            engine.apply_delta(add=[-1])
        with pytest.raises(ValueError):
            engine.apply_delta(add=[2], remove=[2])

    def test_large_delta_takes_fallback(self, q4):
        """A delta dirtying more than a quarter of the cube falls back
        to whole-array warm sweeps — counted, and still exact."""
        engine = IncrementalLevelEngine(q4)
        big = list(range(0, q4.num_nodes, 2))
        stats = engine.apply_delta(add=big)
        assert stats.fallback
        assert engine.fallbacks == 1
        assert np.array_equal(
            engine.levels,
            compute_safety_levels(q4, FaultSet(nodes=big)))

    def test_single_fault_avoids_fallback(self, q5):
        engine = IncrementalLevelEngine(q5)
        stats = engine.apply_delta(add=[11])
        assert not stats.fallback
        assert engine.fallbacks == 0
        assert stats.dirty_seed <= q5.dimension  # healthy neighbors only

    def test_set_faults_applies_node_diff_and_keeps_links(self, q4):
        engine = IncrementalLevelEngine(q4, FaultSet(nodes=[1, 2]))
        target = FaultSet(nodes=[2, 9], links=[(0, 4)])
        engine.set_faults(target)
        assert engine.faults.nodes == frozenset({2, 9})
        assert engine.faults.links == target.links
        # Definition 1 ignores link faults; levels follow the node set.
        assert np.array_equal(engine.levels,
                              compute_safety_levels(q4, FaultSet(nodes=[2, 9])))
        assert engine.updates == 1  # one diff delta (boot not counted)

    def test_update_counters_accumulate(self, q4):
        engine = IncrementalLevelEngine(q4)
        r0, m0 = engine.gs_rounds, engine.gs_messages
        s1 = engine.apply_delta(add=[5])
        s2 = engine.apply_delta(add=[9], remove=[5])
        assert engine.gs_rounds == r0 + s1.rounds + s2.rounds
        assert engine.gs_messages == m0 + s1.messages + s2.messages
        assert engine.updates == 2  # boot traffic is separate from deltas


class TestObservability:
    def test_counters_and_events(self, q4, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.observed(path) as (registry, _recorder):
            engine = IncrementalLevelEngine(q4)
            engine.apply_delta(add=[1])
            engine.apply_delta(add=list(range(0, q4.num_nodes, 2)))
            counters = registry.counter_values()
        assert counters["safety.incremental_updates"] >= 2
        assert counters["safety.incremental_fallbacks"] == 1
        assert counters["safety.incremental_messages"] > 0
        from repro.obs import read_events
        events = [e for e in read_events(path)
                  if e["type"] == "incremental_update"]
        assert len(events) >= 2
        assert events[0]["added"] == 1 and events[0]["fallback"] is False


class TestViewIntegration:
    def test_refresh_recovery_uses_incremental_engine(self, q4, rng):
        """The old refresh() recovery path silently recomputed from
        scratch; it now rides the engine and must stay exact."""
        base = uniform_node_faults(q4, 5, rng)
        view = IncrementalLevelView(q4, base)
        recovered = FaultSet(nodes=sorted(base.nodes)[1:])
        sl = view.refresh(recovered, had_recovery=True)
        assert np.array_equal(sl.levels,
                              compute_safety_levels(q4, recovered))
        grown = recovered.with_nodes([sorted(base.nodes)[0]])
        sl = view.refresh(grown)
        assert np.array_equal(sl.levels,
                              compute_safety_levels(q4, grown))
        assert view.refreshes == 2
        assert view.engine.updates == 2  # two diff deltas

    def test_view_charges_delta_traffic_only(self, q4):
        """The view's cost counters reflect delta waves, not boot."""
        view = IncrementalLevelView(q4, FaultSet(nodes=[6]))
        assert view.gs_messages == 0  # boot is not charged
        view.refresh(FaultSet(nodes=[6, 12]))
        ref_start = compute_safety_levels(q4, FaultSet(nodes=[6]))
        ref_start[12] = 0
        _lv, ref_rounds, ref_msgs = _gs_message_cost(
            q4, FaultSet(nodes=[6, 12]), start=ref_start)
        assert view.gs_rounds == ref_rounds
        assert view.gs_messages == ref_msgs
