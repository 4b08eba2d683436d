"""The repro.api facade and the top-level package surface."""

import warnings

import numpy as np
import pytest

import repro
from repro import api
from repro.core import FaultSet, Hypercube
from repro.routing import RouteStatus
from repro.safety import SafetyLevels


class TestComputeLevels:
    def test_dimension_and_address_strings(self):
        levels = api.compute_levels(4, ["0011", "0100", "0110", "1001"])
        reference = SafetyLevels.compute(
            Hypercube(4),
            FaultSet.from_addresses(Hypercube(4),
                                    ["0011", "0100", "0110", "1001"]))
        assert np.array_equal(levels.levels, reference.levels)

    def test_topology_object_and_int_faults(self):
        topo = Hypercube(3)
        levels = api.compute_levels(topo, [0, 7])
        assert levels.topo is topo
        assert levels.faults.nodes == frozenset({0, 7})

    def test_fault_set_passthrough_and_fault_free_default(self):
        faults = FaultSet(nodes=[5])
        assert api.compute_levels(4, faults).faults is faults
        clean = api.compute_levels(3)
        assert clean.faults.nodes == frozenset()

    def test_quickstart_docstring_flow(self):
        # The README / package-docstring example, verbatim semantics.
        levels = repro.compute_levels(4, ["0011", "0100", "0110", "1001"])
        result = repro.route(levels, "1110", "0001")
        assert isinstance(result.summary(), str)


class TestRoute:
    def test_accepts_addresses_and_ints_interchangeably(self):
        levels = api.compute_levels(4, ["0110"])
        by_str = api.route(levels, "0000", "1111")
        by_int = api.route(levels, 0b0000, 0b1111)
        assert by_str.path == by_int.path
        assert by_str.status is RouteStatus.DELIVERED

    def test_kwargs_pass_through(self):
        levels = api.compute_levels(4, ["0110"])
        result = api.route(levels, 0, 15, tie_break="highest-dim")
        assert result.delivered


def _double(rng):
    return int(rng.integers(0, 100)) * 2


class TestSweep:
    def test_deterministic_and_jobs_invariant(self):
        serial = api.sweep(_double, 16, seed=42)
        again = api.sweep(_double, 16, seed=42)
        parallel = api.sweep(_double, 16, seed=42, jobs=2)
        assert serial == again == parallel
        assert len(serial) == 16
        assert all(v % 2 == 0 for v in serial)


class TestRecordRunAndStats:
    def test_record_then_stats_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with api.record_run(path, config={"who": "facade"}) as (reg, rec):
            levels = api.compute_levels(4, ["0110"])
            api.route(levels, 0, 15)
            rec.emit("experiment", name="demo", elapsed_s=0.0, status="ok")
        stats = api.stats(path)
        assert stats.manifest["tool"] == "repro.api"
        assert stats.manifest["config"] == {"who": "facade"}
        assert stats.route_attempts == 1
        assert stats.event_counts["experiment"] == 1
        assert stats.run_end["status"] == "ok"

    def test_each_run_counts_only_its_own_routes(self, tmp_path):
        """Two runs in one process: the second snapshot does not carry
        the first run's counts."""
        levels = api.compute_levels(4, ["0110"])
        for k in range(2):
            path = tmp_path / f"run{k}.jsonl"
            with api.record_run(path) as (reg, _rec):
                api.route(levels, 0, 15)
                assert reg.counter_values()["route.attempts"] == 1
            snapshot = api.stats(path).metrics_snapshot["counters"]
            assert snapshot["route.attempts"] == 1

    def test_nested_run_keeps_the_outer_counts(self, tmp_path):
        levels = api.compute_levels(4, ["0110"])
        with api.record_run(tmp_path / "outer.jsonl") as (reg, _rec):
            api.route(levels, 0, 15)
            with api.record_run(tmp_path / "inner.jsonl"):
                api.route(levels, 0, 15)
            assert reg.counter_values()["route.attempts"] == 2
        inner = api.stats(tmp_path / "inner.jsonl")
        assert inner.metrics_snapshot["counters"]["route.attempts"] == 2


class TestTopLevelSurface:
    def test_facade_exported_from_package_root(self):
        for name in ("compute_levels", "route", "sweep", "record_run",
                     "stats"):
            assert getattr(repro, name) is getattr(api, name)
            assert name in repro.__all__

    def test_stable_surface_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            repro.routing.route_unicast  # canonical home stays silent
            repro.compute_levels
            repro.ResultLike

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing
