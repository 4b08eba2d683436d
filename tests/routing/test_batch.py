"""Tests for the batched routing kernel (repro.routing.batch).

The load-bearing property: every route of a batch is *bit-identical* to
the scalar Section 3.2 walk — same status, same admitting condition, same
hop count, same node path — on any fault set, including disconnected
cubes, under both deterministic tie-breaks — whether the walk gathers
neighbor levels per step (``route_unicast_batch``) or reads them from the
service's precomputed packed words (``route_with_table``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Hypercube, uniform_node_faults
from repro.instances import fig1_instance, fig3_instance
from repro.routing import (
    RouteStatus,
    SourceCondition,
    check_feasibility,
    route_unicast,
)
from repro.routing.batch import (
    BatchRouteResult,
    _route_batch_scalar,
    check_feasibility_batch,
    pack_neighbor_levels,
    route_unicast_batch,
    route_with_table,
)
from repro.safety import SafetyLevels
from repro.safety.levels import compute_safety_levels_batch


def _instance(n, num_faults, seed):
    """A seeded (SafetyLevels, batch levels row, alive list) triple."""
    topo = Hypercube(n)
    rng = np.random.default_rng(seed)
    faults = uniform_node_faults(topo, num_faults, rng)
    sl = SafetyLevels.compute(topo, faults)
    masks = faults.node_mask(topo.num_nodes)[None, :]
    levels = compute_safety_levels_batch(topo, masks)
    alive = faults.nonfaulty_nodes(topo)
    return topo, sl, levels, alive


def _assert_pairs_equal(topo, sl, levels, pairs, tie_break):
    srcs = np.array([p[0] for p in pairs])
    dsts = np.array([p[1] for p in pairs])
    batch = route_unicast_batch(topo, levels, srcs, dsts,
                                tie_break=tie_break, return_paths=True)
    for k, (s, d) in enumerate(pairs):
        assert batch.result(0, k) == route_unicast(sl, s, d,
                                                   tie_break=tie_break)


class TestScalarEquivalence:
    @pytest.mark.parametrize("tie_break", ["lowest-dim", "highest-dim"])
    @pytest.mark.parametrize("n,num_faults,seed", [
        (3, 0, 1), (3, 2, 2), (3, 4, 3),      # n=3: down to tiny components
        (4, 3, 4), (4, 8, 5),                 # heavy damage, disconnections
        (5, 4, 6), (5, 12, 7),
        (6, 6, 8), (6, 20, 9),
        (7, 7, 10),
        (8, 8, 11), (8, 60, 12),              # deeply disconnected 8-cube
    ])
    def test_matches_route_unicast(self, n, num_faults, seed, tie_break):
        """Status/condition/hops/path equality on random fault sets.

        Exhaustive over all alive pairs for small cubes, a seeded sample
        for the big ones; the heavy-fault instances routinely disconnect
        the cube, exercising the ABORTED_AT_SOURCE branch.
        """
        topo, sl, levels, alive = _instance(n, num_faults, seed)
        if len(alive) < 2:
            pytest.skip("degenerate instance: fewer than two alive nodes")
        if n <= 5:
            pairs = [(s, d) for s in alive for d in alive]
        else:
            rng = np.random.default_rng(seed + 1000)
            pairs = [(alive[int(i)], alive[int(j)])
                     for i, j in rng.integers(len(alive), size=(400, 2))]
        _assert_pairs_equal(topo, sl, levels, pairs, tie_break)

    def test_multi_trial_batch_rows_are_independent(self):
        """Stacked level rows route against their own trial's faults."""
        topo = Hypercube(5)
        rng = np.random.default_rng(42)
        trials = [uniform_node_faults(topo, f, rng) for f in (2, 6, 11)]
        masks = np.stack([f.node_mask(topo.num_nodes) for f in trials])
        levels = compute_safety_levels_batch(topo, masks)
        srcs, dsts = [], []
        for faults in trials:
            alive = faults.nonfaulty_nodes(topo)
            picks = rng.integers(len(alive), size=(16, 2))
            srcs.append([alive[int(i)] for i, _ in picks])
            dsts.append([alive[int(j)] for _, j in picks])
        batch = route_unicast_batch(topo, levels, np.array(srcs),
                                    np.array(dsts), return_paths=True)
        for t, faults in enumerate(trials):
            sl = SafetyLevels.compute(topo, faults)
            for p in range(16):
                assert batch.result(t, p) == route_unicast(
                    sl, srcs[t][p], dsts[t][p])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 6), st.data())
    def test_property_random_instances(self, n, data):
        """Hypothesis sweep: any fault count from 0 to near-total."""
        topo = Hypercube(n)
        num_faults = data.draw(
            st.integers(0, topo.num_nodes - 2), label="faults")
        seed = data.draw(st.integers(0, 2**31), label="seed")
        topo, sl, levels, alive = _instance(n, num_faults, seed)
        if len(alive) < 2:
            return
        rng = np.random.default_rng(seed ^ 0xBEEF)
        pairs = [(alive[int(i)], alive[int(j)])
                 for i, j in rng.integers(len(alive), size=(50, 2))]
        _assert_pairs_equal(topo, sl, levels, pairs, "lowest-dim")

    def test_scalar_kernel_bit_identical(self):
        """The scalar reference kernel (run for the random tie-break)
        agrees with the vectorized walk on every array field."""
        topo, sl, levels, alive = _instance(6, 9, 77)
        rng = np.random.default_rng(78)
        srcs = np.array([alive[int(i)]
                         for i in rng.integers(len(alive), size=300)])
        dsts = np.array([alive[int(j)]
                         for j in rng.integers(len(alive), size=300)])
        vec = route_unicast_batch(topo, levels, srcs, dsts,
                                  return_paths=True)
        sca = _route_batch_scalar(topo, levels, srcs[None, :],
                                  dsts[None, :], "lowest-dim", None, True)
        assert vec.kernel == "vectorized"
        for name, arr in zip(("hamming", "status", "condition", "first_dim",
                              "hops", "paths"), sca):
            assert (getattr(vec, name) == arr).all(), name


class TestPaperInstances:
    def test_fig1_exact_paths(self):
        """The paper's two Fig. 1 walkthroughs, routed through the batch."""
        topo, faults = fig1_instance()
        sl = SafetyLevels.compute(topo, faults)
        s1, d1 = topo.parse_node("1110"), topo.parse_node("0001")
        s2, d2 = topo.parse_node("0001"), topo.parse_node("1100")
        batch = route_unicast_batch(topo, sl, [s1, s2], [d1, d2],
                                    return_paths=True)
        r1, r2 = batch.result(0, 0), batch.result(0, 1)
        assert r1.condition is SourceCondition.C1 and r1.optimal
        assert [topo.format_node(v) for v in r1.path] == \
            ["1110", "1111", "1101", "0101", "0001"]
        assert r2.condition is SourceCondition.C2 and r2.optimal
        assert [topo.format_node(v) for v in r2.path] == \
            ["0001", "0000", "1000", "1100"]

    def test_fig3_disconnected_cube(self):
        """Cross-partition pairs abort; the marooned node reaches no one."""
        topo, faults = fig3_instance()
        sl = SafetyLevels.compute(topo, faults)
        cross = (topo.parse_node("0111"), topo.parse_node("1110"))
        intra = (topo.parse_node("0101"), topo.parse_node("0000"))
        batch = route_unicast_batch(topo, sl,
                                    [cross[0], intra[0]],
                                    [cross[1], intra[1]],
                                    return_paths=True)
        assert batch.result(0, 0).status is RouteStatus.ABORTED_AT_SOURCE
        assert batch.result(0, 0).path == []
        assert batch.result(0, 1).optimal
        assert bool(batch.aborted[0, 0]) and bool(batch.delivered[0, 1])


class TestFeasibilityBatch:
    @pytest.mark.parametrize("tie_break", ["lowest-dim", "highest-dim"])
    def test_matches_scalar_check(self, tie_break):
        topo, sl, levels, alive = _instance(5, 8, 21)
        pairs = [(s, d) for s in alive for d in alive]
        feas = check_feasibility_batch(
            topo, levels, [p[0] for p in pairs], [p[1] for p in pairs],
            tie_break=tie_break)
        for k, (s, d) in enumerate(pairs):
            ref = check_feasibility(sl, s, d, tie_break=tie_break)
            assert feas.condition_of(0, k) is ref.condition
            expected_dim = -1 if ref.first_dim is None else ref.first_dim
            assert int(feas.first_dim[0, k]) == expected_dim
            assert bool(feas.feasible[0, k]) == ref.feasible

    def test_random_policy_rejected(self):
        topo, _sl, levels, alive = _instance(4, 2, 5)
        with pytest.raises(ValueError, match="random"):
            check_feasibility_batch(topo, levels, alive[0], alive[1],
                                    tie_break="random")


class TestKernelDispatch:
    def test_random_tie_break_always_scalar(self):
        topo, _sl, levels, alive = _instance(4, 2, 3)
        for tie_break, kernel in (("lowest-dim", "vectorized"),
                                  ("highest-dim", "vectorized"),
                                  ("random", "scalar")):
            batch = route_unicast_batch(topo, levels, alive[0], alive[-1],
                                        tie_break=tie_break)
            assert batch.kernel == kernel

    def test_random_batch_draws_in_row_major_order(self):
        """The scalar fallback consumes the shared generator pair by pair
        exactly like an explicit loop over route_unicast."""
        topo, sl, levels, alive = _instance(5, 6, 33)
        rng = np.random.default_rng(34)
        picks = rng.integers(len(alive), size=(40, 2))
        srcs = [alive[int(i)] for i, _ in picks]
        dsts = [alive[int(j)] for _, j in picks]
        g1 = np.random.default_rng(99)
        batch = route_unicast_batch(topo, levels, srcs, dsts,
                                    tie_break="random", rng=g1,
                                    return_paths=True)
        assert batch.kernel == "scalar"
        g2 = np.random.default_rng(99)
        for k, (s, d) in enumerate(zip(srcs, dsts)):
            assert batch.result(0, k) == route_unicast(
                sl, s, d, tie_break="random", rng=g2)
        assert g1.bit_generator.state == g2.bit_generator.state


class TestInputHandling:
    def test_accepts_safety_levels_and_broadcasts(self):
        topo, sl, levels, alive = _instance(4, 3, 9)
        # one destination shared by a source vector, SafetyLevels input
        batch = route_unicast_batch(topo, sl, alive, alive[0])
        assert batch.trials == 1 and batch.pairs == len(alive)
        ref = route_unicast_batch(topo, levels, np.array(alive),
                                  np.full(len(alive), alive[0]))
        assert (batch.status == ref.status).all()
        assert (batch.hops == ref.hops).all()

    def test_faulty_endpoints_rejected(self):
        topo, sl, levels, alive = _instance(4, 3, 9)
        faulty = sorted(sl.faults.nodes)[0]
        with pytest.raises(ValueError, match="source .* is faulty"):
            route_unicast_batch(topo, levels, faulty, alive[0])
        with pytest.raises(ValueError, match="destination .* is faulty"):
            route_unicast_batch(topo, levels, alive[0], faulty)

    def test_shape_mismatch_rejected(self):
        topo, _sl, levels, alive = _instance(4, 0, 1)
        with pytest.raises(ValueError, match="disagree"):
            route_unicast_batch(topo, levels, alive[:3], alive[:2])
        with pytest.raises(ValueError, match="outside"):
            route_unicast_batch(topo, levels, [topo.num_nodes], [0])

    def test_paths_require_opt_in(self):
        topo, _sl, levels, alive = _instance(4, 2, 3)
        batch = route_unicast_batch(topo, levels, alive[0], alive[1])
        assert batch.paths is None
        if bool(batch.delivered[0, 0]):
            with pytest.raises(ValueError, match="return_paths"):
                batch.path_of(0, 0)

    def test_hop_bound(self):
        """No route ever exceeds the Theorem 3 bound of n + 2 hops."""
        topo, _sl, levels, alive = _instance(6, 10, 55)
        batch = route_unicast_batch(
            topo, levels,
            [s for s in alive for d in alive[:20]],
            [d for s in alive for d in alive[:20]])
        assert int(batch.hops.max()) <= topo.dimension + 2


class TestObservability:
    def test_routing_batch_event_round_trip(self, tmp_path):
        """One kernel call -> one routing_batch event; repro stats folds
        it back into the same per-status/per-condition totals."""
        from repro.obs import observed, summarize_run

        topo, sl, levels, alive = _instance(5, 7, 61)
        rng = np.random.default_rng(62)
        picks = rng.integers(len(alive), size=(64, 2))
        srcs = [alive[int(i)] for i, _ in picks]
        dsts = [alive[int(j)] for _, j in picks]
        out = tmp_path / "run.jsonl"
        with observed(out) as (registry, _recorder):
            batch = route_unicast_batch(topo, levels, srcs, dsts)
            counters = registry.snapshot()["counters"]
        assert counters["routing.batch_calls"] == 1
        assert counters["routing.batch_routes"] == 64
        assert counters["route.attempts"] == 64
        stats = summarize_run(out)
        assert stats.routing_batches == 1
        assert stats.routing_batch_routes == 64
        assert stats.routing_kernels == {"vectorized": 1}
        assert stats.route_status == batch.status_counts()
        assert stats.route_conditions == batch.condition_counts()
        assert stats.route_hops_sum == int(batch.hops.sum())

    def test_silent_when_unobserved(self):
        """No metrics, no recorder -> the hook must not blow up (and the
        result must be a plain BatchRouteResult)."""
        topo, _sl, levels, alive = _instance(3, 1, 2)
        batch = route_unicast_batch(topo, levels, alive[0], alive[1])
        assert isinstance(batch, BatchRouteResult)


class TestPackedKernel:
    """The routing service's walk: ``route_with_table`` over one epoch's
    :func:`pack_neighbor_levels` words must be bit-identical to
    ``route_unicast_batch`` under both deterministic tie-breaks, and so
    must its second backend, ``packed=None`` (gather through the neighbor
    table — the only option past n = 15)."""

    FIELDS = ("hamming", "status", "condition", "first_dim", "hops",
              "paths")

    @pytest.mark.parametrize("tie_break", ["lowest-dim", "highest-dim"])
    @pytest.mark.parametrize("n,num_faults,seed", [
        (3, 2, 11), (4, 8, 12), (6, 9, 13), (6, 30, 14), (15, 14, 15),
    ])
    def test_bit_identical_to_vectorized(self, n, num_faults, seed,
                                         tie_break):
        topo, _sl, levels, alive = _instance(n, num_faults, seed)
        rng = np.random.default_rng(seed + 1)
        srcs = np.array([alive[int(i)]
                         for i in rng.integers(len(alive), size=200)])
        dsts = np.array([alive[int(j)]
                         for j in rng.integers(len(alive), size=200)])
        ref = route_unicast_batch(topo, levels, srcs, dsts,
                                  tie_break=tie_break, return_paths=True)
        got = route_with_table(topo, levels[0],
                               pack_neighbor_levels(levels[0], n), srcs,
                               dsts, tie_break=tie_break, return_paths=True)
        for name in self.FIELDS:
            assert (getattr(ref, name) == getattr(got, name)).all(), name

    def test_both_backends_bit_identical(self):
        """``packed=None`` gathers neighbor levels instead of reading the
        words, and still matches ``route_unicast_batch`` field for field."""
        for n, num_faults, seed in ((3, 2, 11), (4, 8, 12), (6, 9, 13),
                                    (15, 14, 15)):
            topo, _sl, levels, alive = _instance(n, num_faults, seed)
            rng = np.random.default_rng(seed + 2)
            srcs = np.array([alive[int(i)]
                             for i in rng.integers(len(alive), size=150)])
            dsts = np.array([alive[int(j)]
                             for j in rng.integers(len(alive), size=150)])
            for tie_break in ("lowest-dim", "highest-dim"):
                ref = route_unicast_batch(topo, levels, srcs, dsts,
                                          tie_break=tie_break,
                                          return_paths=True)
                got = route_with_table(topo, levels[0], None, srcs, dsts,
                                       tie_break=tie_break,
                                       return_paths=True)
                assert got.kernel == "vectorized"
                for name in self.FIELDS:
                    assert (getattr(ref, name) ==
                            getattr(got, name)).all(), (n, name, tie_break)

    def test_packed_rejects_oversized_dimension_directly(self):
        """Levels up to n = 15 fit a 4-bit nibble; past that the packer
        fails loudly instead of wrapping."""
        assert pack_neighbor_levels(np.full(1 << 15, 15), 15).shape == \
            (1 << 15,)
        with pytest.raises(ValueError, match="n <= 15"):
            pack_neighbor_levels(np.full(1 << 16, 16), 16)
