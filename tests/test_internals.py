"""Focused unit tests for internal helpers not covered elsewhere."""

import numpy as np
import pytest

from repro.analysis.rounds import RoundsPoint, rounds_vs_faults
from repro.analysis.sensitivity import FAULT_MODELS
from repro.core import FaultSet, Hypercube
from repro.safety.levels import relax_levels
from repro.viz import _edge_chars, _paint  # type: ignore[attr-defined]


class TestVizInternals:
    def _canvas(self, rows=6, cols=12):
        return [[" "] * cols for _ in range(rows)]

    def test_paint_clips_at_canvas_edge(self):
        canvas = self._canvas(2, 5)
        _paint(canvas, 0, 3, "abcdef")  # overruns the row
        assert "".join(canvas[0]) == "   ab"

    def test_paint_ignores_out_of_range_rows(self):
        canvas = self._canvas(2, 5)
        _paint(canvas, 7, 0, "zz")  # silently off-canvas
        assert all(ch == " " for row in canvas for ch in row)

    def test_horizontal_edge(self):
        canvas = self._canvas()
        _edge_chars(canvas, 1, 1, 1, 6)
        assert "".join(canvas[1][2:6]) == "----"

    def test_vertical_edge(self):
        canvas = self._canvas()
        _edge_chars(canvas, 0, 2, 4, 2)
        assert all(canvas[r][2] == "|" for r in (1, 2, 3))

    def test_diagonal_edge_direction(self):
        canvas = self._canvas()
        _edge_chars(canvas, 0, 0, 3, 3)  # down-right: backslash
        assert any("\\" in "".join(row) for row in canvas)
        canvas = self._canvas()
        _edge_chars(canvas, 3, 0, 0, 3)  # up-right: slash
        assert any("/" in "".join(row) for row in canvas)

    def test_edges_do_not_overwrite_labels(self):
        canvas = self._canvas()
        _paint(canvas, 1, 3, "X")
        _edge_chars(canvas, 1, 1, 1, 6)
        assert canvas[1][3] == "X"


class TestRoundsInternals:
    def test_rounds_point_structure(self):
        points = rounds_vs_faults(4, [2, 5], trials=20, seed=1)
        assert [p.num_faults for p in points] == [2, 5]
        for p in points:
            assert isinstance(p, RoundsPoint)
            assert p.gs.count == 20
            assert p.lee_hayes is None  # rivals off by default

    def test_include_rivals_populates_all_summaries(self):
        (p,) = rounds_vs_faults(4, [4], trials=10, seed=2,
                                include_rivals=True)
        assert p.lee_hayes is not None and p.wu_fernandez is not None
        assert p.lee_hayes.count == 10


class TestDynamicInternals:
    def test_warm_start_reports_zero_rounds_when_nothing_changes(self, q4):
        faulty = FaultSet(nodes=[3]).node_mask(q4.num_nodes)
        levels = np.full(q4.num_nodes, 4, dtype=np.int64)
        relax_levels(levels, faulty)
        again = levels.copy()
        rounds, messages = relax_levels(again, faulty)
        assert np.array_equal(levels, again)
        assert rounds == 0 and messages == 0

    def test_boot_message_count_zero_on_clean_cube(self, q4):
        levels = np.full(q4.num_nodes, 4, dtype=np.int64)
        rounds, messages = relax_levels(
            levels, FaultSet.empty().node_mask(q4.num_nodes))
        assert rounds == 0 and messages == 0


class TestSensitivityModels:
    def test_registry_names(self):
        assert set(FAULT_MODELS) == {"uniform", "clustered", "subcube"}

    def test_subcube_model_kills_a_power_of_two(self, rng):
        topo = Hypercube(6)
        faults = FAULT_MODELS["subcube"](topo, 8, rng)
        size = faults.num_node_faults
        assert size & (size - 1) == 0  # exact subcube
        assert size >= 8
