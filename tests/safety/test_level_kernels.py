"""The two batch level kernels and the shape rule that picks between them.

Claims under test:

* the SWAR kernel (``n <= 14``) and the packed-bitset tier compute the
  same Definition-1 fixed point and the same per-trial stabilization
  rounds, bit for bit — exhaustively on Q4 — and the packed tier matches
  the per-trial reference :func:`repro.safety.gs.compute_levels_with_rounds`
  on Q10+ and across its 64-trial word boundaries;
* the SWAR field layout fits one uint64 with no carry between fields for
  every ``n <= 14``;
* :func:`compute_safety_levels_batch` runs SWAR for ``n <= 9``, packed on
  whole 64-row words plus SWAR on the leftover rows for ``10 <= n <= 14``,
  and packed for ``n >= 15``, matching the per-trial reference on all
  three; each kernel rejects inputs outside its envelope;
* telemetry records each kernel actually run, with its own trial count.
"""

import numpy as np
import pytest

from repro.core import FaultSet, Hypercube
from repro.obs import instruments as obs
from repro.obs import read_events
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


class TestExhaustiveQ4:
    """Every one of the 65,536 fault sets of Q4."""

    @pytest.fixture(scope="class")
    def all_masks(self):
        codes = np.arange(1 << 16)[:, None]
        return ((codes >> np.arange(16)) & 1).astype(bool)

    def test_swar_equals_packed_on_every_fault_set(self, all_masks):
        ref, ref_rounds = _batch_block_swar(4, all_masks, LevelsWorkspace())
        got, got_rounds = batch_block_packed(4, all_masks)
        assert np.array_equal(got, ref)
        assert np.array_equal(got_rounds, ref_rounds)
        # Property 1 corollary: at most n - 1 change-bearing sweeps, and
        # some fault set needs all of them.
        assert ref_rounds.max() == 3

    def test_sample_matches_per_trial_reference(self, all_masks):
        rows = np.random.default_rng(4).choice(len(all_masks), 300,
                                               replace=False)
        got, got_rounds = _batch_block_swar(4, all_masks[rows],
                                            LevelsWorkspace())
        ref, ref_rounds = _per_trial_reference(4, all_masks[rows])
        assert np.array_equal(got, ref)
        assert np.array_equal(got_rounds, ref_rounds)


class TestSwarFieldLayout:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_fields_fit_one_word_without_carries(self, n):
        vlut, tlut, bias, over = LevelsWorkspace().swar_tables(n)
        # Field t spans from its low bit (set in a level-0 neighbor's
        # contribution) up to its overflow bit.
        lows = [b for b in range(64) if int(vlut[0]) >> b & 1]
        tops = [b for b in range(64) if over >> b & 1]
        assert len(lows) == len(tops) == n - 1
        assert all(top <= 62 for top in tops)
        for t, (low, top) in enumerate(zip(lows, tops), start=1):
            assert low <= top
            width = top - low + 1
            if t < n - 1:
                assert top < lows[t]  # disjoint, packed upward
            bias_t = bias >> low & ((1 << width) - 1)
            # bias_t = 2**(w_t - 1) - (t + 1) needs no negative value ...
            assert 1 << (width - 1) >= t + 1
            # ... so the field overflows exactly when c_t >= t + 1 ...
            assert bias_t + t < 1 << (width - 1) <= bias_t + t + 1
            # ... and c_t <= n never carries out of the field.
            assert n + bias_t < 1 << width
            assert tlut[top + 1] == t
            for level in range(n + 1):
                assert (int(vlut[level]) >> low & 1) == (t > level)
        assert bias & ~sum(((1 << (top - low + 1)) - 1) << low
                           for low, top in zip(lows, tops)) == 0
        assert tlut[64] == n


class TestDispatch:
    def test_swar_rejected_outside_envelope(self):
        with pytest.raises(ValueError, match="SWAR"):
            LevelsWorkspace().swar_tables(15)
        # the batch entry point never asks it to: Q15 runs packed
        masks = _random_masks(15, 3, seed=15)
        ref, ref_rounds = _per_trial_reference(15, masks)
        got, got_rounds = compute_safety_levels_batch(
            Hypercube(15), masks, return_rounds=True)
        assert np.array_equal(got, ref)
        assert np.array_equal(got_rounds, ref_rounds)

    @pytest.mark.parametrize("n", [10, 12, 14])
    def test_split_blocks_match_per_trial_reference(self, n):
        """All-SWAR (B < 64), all-packed (B = 64) and split batches.
        Rows are independent, so each batch is a prefix of one matrix
        whose rows mix light and heavy fault densities."""
        rng = np.random.default_rng(100 + n)
        density = rng.choice([0.02, 0.1, 0.3], size=129)[:, None]
        masks = rng.random((129, 1 << n)) < density
        ref, ref_rounds = _per_trial_reference(n, masks)
        topo = Hypercube(n)
        for batch in (1, 16, 63, 64, 65, 129):
            got, got_rounds = compute_safety_levels_batch(
                topo, masks[:batch], return_rounds=True)
            assert np.array_equal(got, ref[:batch]), batch
            assert np.array_equal(got_rounds, ref_rounds[:batch]), batch

    def test_packed_requires_full_cube(self):
        with pytest.raises(ValueError, match="packed"):
            batch_block_packed(5, np.zeros((2, 30), dtype=bool))

    def test_telemetry_records_dispatched_kernel(self):
        with obs.observed() as (registry, _rec):
            for n in (14, 15):
                compute_safety_levels_batch(
                    Hypercube(n), _random_masks(n, 5, seed=2))
            counters = registry.counter_values()
        assert counters["gs.kernel.swar"] == 1
        assert counters["gs.kernel.packed"] == 1

    def test_telemetry_counts_both_kernels_of_a_split_call(self, tmp_path):
        run = tmp_path / "run.jsonl"
        with obs.observed(run) as (registry, _rec):
            compute_safety_levels_batch(
                Hypercube(12), _random_masks(12, 70, seed=3, p=0.1))
            counters = registry.counter_values()
        assert counters["gs.kernel.swar"] == 1
        assert counters["gs.kernel.packed"] == 1
        assert counters["gs.trials"] == 70
        events = [e for e in read_events(run) if e["type"] == "gs_batch"]
        assert sorted((e["kernel"], e["batch"]) for e in events) == [
            ("packed", 64), ("swar", 6)]
        assert sum(sum(e["rounds_hist"].values()) for e in events) == 70
