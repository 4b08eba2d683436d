"""Batched safety-level kernel: equivalence with the per-trial path."""

import tracemalloc

import numpy as np
import pytest

from repro.core import FaultSet, Hypercube
from repro.core.fault_models import uniform_node_fault_masks
from repro.safety import (
    compute_safety_levels,
    compute_safety_levels_batch,
    stabilization_rounds_batch,
)
from repro.safety.gs import compute_levels_with_rounds
from repro.safety.levels import LevelsWorkspace
from repro.analysis.montecarlo import iter_trial_rngs


def _random_masks(n, batch, rng):
    """A (batch+2, 2**n) mask matrix with random fault counts per row,
    plus the two edge rows: fault-free and all-faulty."""
    num_nodes = 1 << n
    rows = []
    for _ in range(batch):
        f = int(rng.integers(0, num_nodes + 1))
        mask = np.zeros(num_nodes, dtype=bool)
        mask[rng.choice(num_nodes, size=f, replace=False)] = True
        rows.append(mask)
    rows.append(np.zeros(num_nodes, dtype=bool))
    rows.append(np.ones(num_nodes, dtype=bool))
    return np.array(rows)


class TestBatchedKernelEquivalence:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_levels_and_rounds_match_per_trial(self, n):
        topo = Hypercube(n)
        rng = np.random.default_rng(1000 + n)
        masks = _random_masks(n, 40, rng)
        levels, rounds = compute_safety_levels_batch(
            topo, masks, return_rounds=True
        )
        for i in range(masks.shape[0]):
            faults = FaultSet(nodes=np.flatnonzero(masks[i]).tolist())
            ref_levels, ref_rounds = compute_levels_with_rounds(topo, faults)
            assert np.array_equal(levels[i], np.asarray(ref_levels)), i
            assert rounds[i] == ref_rounds, i

    def test_zero_fault_row_is_all_safe_in_zero_rounds(self):
        topo = Hypercube(6)
        masks = np.zeros((1, topo.num_nodes), dtype=bool)
        levels, rounds = compute_safety_levels_batch(
            topo, masks, return_rounds=True
        )
        assert (levels == 6).all()
        assert rounds[0] == 0

    def test_all_faulty_row_is_all_zero(self):
        topo = Hypercube(5)
        masks = np.ones((1, topo.num_nodes), dtype=bool)
        levels = compute_safety_levels_batch(topo, masks)
        assert (levels == 0).all()

    def test_matches_single_trial_entry_point(self, q5):
        rng = np.random.default_rng(7)
        masks = _random_masks(5, 10, rng)
        levels = compute_safety_levels_batch(q5, masks)
        for i in range(masks.shape[0]):
            faults = FaultSet(nodes=np.flatnonzero(masks[i]).tolist())
            assert np.array_equal(
                levels[i], compute_safety_levels(q5, faults)
            ), i

    def test_stabilization_rounds_batch_matches(self, q5):
        rng = np.random.default_rng(13)
        masks = _random_masks(5, 15, rng)
        rounds = stabilization_rounds_batch(q5, masks)
        for i in range(masks.shape[0]):
            faults = FaultSet(nodes=np.flatnonzero(masks[i]).tolist())
            assert rounds[i] == compute_levels_with_rounds(q5, faults)[1], i

    def test_workspace_reuse_changes_nothing(self):
        topo = Hypercube(7)
        rng = np.random.default_rng(21)
        masks = _random_masks(7, 25, rng)
        ws = LevelsWorkspace()
        first = compute_safety_levels_batch(topo, masks, ws)
        # Same workspace, different batch sizes in between.
        compute_safety_levels_batch(topo, masks[:3], ws)
        again = compute_safety_levels_batch(topo, masks, ws)
        assert np.array_equal(first, again)
        assert np.array_equal(
            first, compute_safety_levels_batch(topo, masks)
        )

    def test_rejects_bad_shapes(self, q4):
        with pytest.raises(ValueError):
            compute_safety_levels_batch(q4, np.zeros(16, dtype=bool))
        with pytest.raises(ValueError):
            compute_safety_levels_batch(q4, np.zeros((2, 8), dtype=bool))

    def test_empty_batch(self, q4):
        levels, rounds = compute_safety_levels_batch(
            q4, np.zeros((0, 16), dtype=bool), return_rounds=True
        )
        assert levels.shape == (0, 16)
        assert rounds.shape == (0,)


#: perfbench's ``sweep`` cells: (n, fault density, trials per call).
SWEEP_CELLS = ((8, 0.02, 32), (8, 0.10, 32), (12, 0.02, 16), (12, 0.10, 16))


def _cell_masks(n, density, batch, seed):
    topo = Hypercube(n)
    count = round(density * topo.num_nodes)
    return topo, uniform_node_fault_masks(topo, count,
                                          iter_trial_rngs(seed, batch))


class TestSteadyStateScratch:
    """With a warm workspace the SWAR kernel sweeps in its scratch: a
    call allocates its result and little else, and never hands out the
    scratch itself."""

    @pytest.mark.parametrize("n,density,batch", SWEEP_CELLS)
    def test_warm_call_peaks_near_its_result(self, n, density, batch):
        # tracemalloc sees numpy's data buffers, so the peak counts every
        # temporary the call makes.
        topo, masks = _cell_masks(n, density, batch, seed=n)
        ws = LevelsWorkspace()
        compute_safety_levels_batch(topo, masks, ws)
        tracemalloc.start()
        try:
            levels = compute_safety_levels_batch(topo, masks, ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * levels.nbytes, peak / levels.nbytes

    @pytest.mark.parametrize("n,density,batch", SWEEP_CELLS[1::2])
    def test_results_survive_the_next_call(self, n, density, batch):
        topo, first_masks = _cell_masks(n, density, batch, seed=1)
        _, second_masks = _cell_masks(n, density / 2, batch, seed=2)
        ws = LevelsWorkspace()
        levels, rounds = compute_safety_levels_batch(
            topo, first_masks, ws, return_rounds=True)
        kept = levels.copy(), rounds.copy()
        compute_safety_levels_batch(topo, second_masks, ws,
                                    return_rounds=True)
        assert np.array_equal(levels, kept[0])
        assert np.array_equal(rounds, kept[1])
        for i, row in enumerate(first_masks):
            faults = FaultSet(nodes=np.flatnonzero(row).tolist())
            assert np.array_equal(levels[i],
                                  compute_safety_levels(topo, faults)), i
            ref_levels, ref_rounds = compute_levels_with_rounds(topo, faults)
            assert np.array_equal(levels[i], ref_levels), i
            assert rounds[i] == ref_rounds, i


class TestMaskGenerator:
    @pytest.mark.parametrize("count", [0, 1, 5, 40])
    def test_rows_match_per_trial_draws(self, count):
        from repro.core.fault_models import uniform_node_faults

        topo = Hypercube(8)
        masks = uniform_node_fault_masks(
            topo, count, iter_trial_rngs(123, 20)
        )
        assert masks.shape == (20, topo.num_nodes)
        for i, rng in enumerate(iter_trial_rngs(123, 20)):
            ref = uniform_node_faults(topo, count, rng)
            assert np.array_equal(
                masks[i], ref.node_mask(topo.num_nodes)
            ), (count, i)

    def test_too_many_faults_rejected(self, q4):
        with pytest.raises(ValueError):
            uniform_node_fault_masks(q4, 17, iter_trial_rngs(0, 2))
