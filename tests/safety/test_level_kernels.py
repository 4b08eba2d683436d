"""The two batch level kernels and the shape rule that picks between them.

Three claims under test:

* the SWAR kernel (``n <= 9``) and the packed-bitset tier compute the
  same Definition-1 fixed point and the same per-trial stabilization
  rounds, bit for bit, and the packed tier matches the per-trial
  reference :func:`repro.safety.gs.compute_levels_with_rounds` on the
  cubes only it serves (Q10+) and across its 64-trial word boundaries;
* :func:`compute_safety_levels_batch` runs SWAR for ``n <= 9`` and the
  packed tier above, and each kernel rejects inputs outside its envelope;
* telemetry records the kernel actually run.
"""

import numpy as np
import pytest

from repro.core import FaultSet, Hypercube
from repro.obs import instruments as obs
from repro.safety.gs import compute_levels_with_rounds
from repro.safety.levels import (
    LevelsWorkspace,
    _batch_block_swar,
    compute_safety_levels_batch,
)
from repro.safety.packed import batch_block_packed


def _random_masks(n, batch, seed, p=0.2):
    rng = np.random.default_rng(seed)
    return rng.random((batch, 1 << n)) < p


def _per_trial_reference(n, masks):
    """Levels and rounds from one ``compute_levels_with_rounds`` per row —
    the gather + row-sort formulation of Definition 1, one trial at a
    time."""
    topo = Hypercube(n)
    levels = np.empty(masks.shape, dtype=np.int64)
    rounds = np.empty(masks.shape[0], dtype=np.int64)
    for i, row in enumerate(masks):
        faults = FaultSet(nodes=np.flatnonzero(row).tolist())
        levels[i], rounds[i] = compute_levels_with_rounds(topo, faults)
    return levels, rounds


class TestPackedEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 9])
    def test_matches_swar_small_cubes(self, n):
        masks = _random_masks(n, 70, seed=n)
        ref, ref_rounds = _batch_block_swar(n, masks, LevelsWorkspace())
        got, got_rounds = batch_block_packed(n, masks)
        assert np.array_equal(got, ref)
        assert np.array_equal(got_rounds, ref_rounds)

    @pytest.mark.parametrize("n", [10, 12])
    def test_matches_sorted_large_cubes(self, n):
        masks = _random_masks(n, 17, seed=n, p=0.15)
        ref, ref_rounds = _per_trial_reference(n, masks)
        got, got_rounds = batch_block_packed(n, masks)
        assert np.array_equal(got, ref)
        assert np.array_equal(got_rounds, ref_rounds)

    def test_lane_boundaries(self):
        """Batches straddling the 64-trial word boundary round-trip."""
        n = 4
        for batch in (1, 63, 64, 65, 128, 129):
            masks = _random_masks(n, batch, seed=batch)
            ref, ref_rounds = _per_trial_reference(n, masks)
            got, got_rounds = batch_block_packed(n, masks)
            assert np.array_equal(got, ref), batch
            assert np.array_equal(got_rounds, ref_rounds), batch

    def test_all_faulty_and_fault_free(self):
        n = 5
        masks = np.zeros((2, 1 << n), dtype=bool)
        masks[1] = True
        levels, rounds = batch_block_packed(n, masks)
        assert (levels[0] == n).all()
        assert (levels[1] == 0).all()
        assert rounds[0] == 0 and rounds[1] == 0


class TestDispatch:
    def test_swar_rejected_outside_envelope(self):
        with pytest.raises(ValueError, match="SWAR"):
            LevelsWorkspace().swar_tables(10)
        # the batch entry point never asks it to: Q10 runs packed
        masks = _random_masks(10, 3, seed=10)
        ref, _ = _per_trial_reference(10, masks)
        assert np.array_equal(
            compute_safety_levels_batch(Hypercube(10), masks), ref)

    def test_packed_requires_full_cube(self):
        with pytest.raises(ValueError, match="packed"):
            batch_block_packed(5, np.zeros((2, 30), dtype=bool))

    def test_telemetry_records_dispatched_kernel(self):
        with obs.observed() as (registry, _rec):
            for n in (9, 10):
                compute_safety_levels_batch(
                    Hypercube(n), _random_masks(n, 5, seed=2))
            counters = registry.counter_values()
        obs.metrics().reset()
        assert counters["gs.kernel.swar"] == 1
        assert counters["gs.kernel.packed"] == 1
