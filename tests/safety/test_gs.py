"""Tests for the distributed GS protocol and its vectorized twin."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FaultSet, Hypercube, uniform_node_faults
from repro.instances import fig1_instance
from repro.safety import (
    compute_levels_with_rounds,
    compute_safety_levels,
    run_gs,
    stabilization_rounds_fast,
)
from repro.safety.levels import levels_from_rows


class TestDistributedGs:
    def test_matches_vectorized_on_fig1(self):
        topo, faults = fig1_instance()
        gs = run_gs(topo, faults)
        assert np.array_equal(gs.levels, compute_safety_levels(topo, faults))

    def test_fig1_stabilizes_in_two_rounds(self):
        """Paper: 'the safety level of each node remains stable after two
        rounds' for the Fig. 1 instance."""
        topo, faults = fig1_instance()
        assert run_gs(topo, faults).stabilization_round == 2

    def test_fault_free_run_is_quiet(self, q4):
        gs = run_gs(q4, FaultSet.empty())
        assert gs.stabilization_round == 0
        assert (gs.levels == 4).all()

    def test_rejects_link_faults(self, q4):
        with pytest.raises(ValueError):
            run_gs(q4, FaultSet(links=[(0, 1)]))

    def test_every_round_policy_same_levels_more_messages(self):
        topo, faults = fig1_instance()
        lean = run_gs(topo, faults, policy="on-change")
        chatty = run_gs(topo, faults, policy="every-round")
        assert np.array_equal(lean.levels, chatty.levels)
        assert chatty.messages_sent > lean.messages_sent
        # Periodic GS: every healthy node talks to every healthy neighbor
        # every round.
        healthy_links2 = sum(
            1
            for a in topo.iter_nodes() if not faults.is_node_faulty(a)
            for b in topo.neighbors(a) if not faults.is_node_faulty(b)
        )
        assert chatty.messages_sent == healthy_links2 * (topo.dimension - 1)

    def test_corollary_bound(self, q5, rng):
        """D = n - 1 rounds always suffice (Property 1 corollary)."""
        for _ in range(15):
            faults = uniform_node_faults(q5, int(rng.integers(0, 20)), rng)
            gs = run_gs(q5, faults)
            assert gs.stabilization_round <= q5.dimension - 1


class TestVectorizedRounds:
    def test_rounds_match_distributed(self, q4, rng):
        for _ in range(20):
            faults = uniform_node_faults(q4, int(rng.integers(0, 9)), rng)
            levels, rounds = compute_levels_with_rounds(q4, faults)
            gs = run_gs(q4, faults)
            assert np.array_equal(levels, gs.levels)
            assert rounds == gs.stabilization_round

    def test_fast_helper(self):
        topo, faults = fig1_instance()
        assert stabilization_rounds_fast(topo, faults) == 2


class TestProperty1:
    """A k-safe (k != n) node reaches its stable status at round k."""

    @staticmethod
    def _adoption_rounds(topo, faults):
        """Round in which each node last changed its level (0 = never),
        sweeping the Definition-1 row rule one synchronous round at a
        time."""
        n = topo.dimension
        table = topo.neighbor_table()
        faulty = faults.node_mask(topo.num_nodes)
        levels = np.full(topo.num_nodes, n, dtype=np.int64)
        levels[faulty] = 0
        adopted = np.zeros(topo.num_nodes, dtype=np.int64)
        for round_no in range(1, n + 2):
            new = levels_from_rows(levels[table])
            new[faulty] = 0
            changed = new != levels
            if not changed.any():
                break
            adopted[changed] = round_no
            levels = new
        assert np.array_equal(levels, compute_safety_levels(topo, faults))
        return levels, adopted

    def test_unsafe_nodes_stabilize_by_their_level(self, q5, rng):
        for _ in range(10):
            faults = uniform_node_faults(q5, int(rng.integers(2, 16)), rng)
            levels, adopted = self._adoption_rounds(q5, faults)
            for v in q5.iter_nodes():
                k = levels[v]
                if 0 < k < q5.dimension:
                    assert adopted[v] <= k, (
                        f"node {v} with level {k} last changed at round "
                        f"{adopted[v]}"
                    )


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    count=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
def test_distributed_equals_vectorized_random(n, count, seed):
    topo = Hypercube(n)
    count = min(count, topo.num_nodes)
    faults = uniform_node_faults(topo, count, np.random.default_rng(seed))
    gs = run_gs(topo, faults)
    assert np.array_equal(gs.levels, compute_safety_levels(topo, faults))
