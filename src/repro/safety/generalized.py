"""Safety levels in generalized hypercubes (Section 4.2, Definition 4).

In ``GH(m_{n-1} x ... x m_0)`` a node still reduces its neighborhood to an
``n``-vector: the entry for dimension ``i`` is the *minimum* safety level
over the ``m_i - 1`` nodes sharing all coordinates except coordinate ``i``
(they form a complete graph, so that minimum is learnable in one step).
Definition 1's staircase rule is then applied to the sorted n-vector
unchanged.

Stabilization still takes at most ``n - 1`` rounds, and Theorem 2' carries
the same routing guarantee: a ``k``-safe node has an optimal path to every
node differing from it in at most ``k`` coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Tuple

import numpy as np

from ..core.faults import FaultSet
from ..core.generalized import GeneralizedHypercube
from .levels import level_from_sorted, levels_from_rows

__all__ = [
    "compute_gh_safety_levels",
    "gh_levels_with_rounds",
    "GhSafetyLevels",
]


@lru_cache(maxsize=None)
def _group_tables(radices: Tuple[int, ...]) -> Tuple[np.ndarray, ...]:
    """Per-dimension neighbor-group matrices for a GH shape.

    ``tables[dim][v]`` lists the ``m_dim - 1`` nodes in ``v``'s dimension
    group (excluding ``v``).  Built once per shape and cached — the
    construction is a Python loop but runs only on first use.
    """
    gh = GeneralizedHypercube(radices)
    tables = []
    for dim in range(gh.dimension):
        rows = [gh.neighbors_along(v, dim) for v in gh.iter_nodes()]
        tab = np.array(rows, dtype=np.int64)
        tab.setflags(write=False)
        tables.append(tab)
    return tuple(tables)


def _dim_minima(levels: np.ndarray, tables: Tuple[np.ndarray, ...],
                out: np.ndarray) -> np.ndarray:
    """Per-node, per-dimension minimum neighbor level (Definition 4's
    ``S_i``), written into the preallocated ``(N, n)`` buffer ``out``."""
    for dim, tab in enumerate(tables):
        np.min(levels[tab], axis=1, out=out[:, dim])
    return out


def gh_levels_with_rounds(
    gh: GeneralizedHypercube, faults: FaultSet
) -> Tuple[np.ndarray, int]:
    """Definition 4 fixed point plus the stabilization round count."""
    faults.validate(gh)
    if faults.effective_links():
        raise ValueError("link faults are not modeled for generalized cubes")
    n = gh.dimension
    num = gh.num_nodes
    tables = _group_tables(gh.radices)
    faulty = faults.node_mask(num)
    levels = np.full(num, n, dtype=np.int64)
    levels[faulty] = 0
    mins = np.empty((num, n), dtype=np.int64)
    rounds = 0
    for sweep_no in range(1, n + 2):
        new = levels_from_rows(_dim_minima(levels, tables, mins))
        new[faulty] = 0
        if np.array_equal(new, levels):
            return levels, rounds
        levels = new
        rounds = sweep_no
    raise AssertionError("GH safety iteration failed to stabilize")


def compute_gh_safety_levels(
    gh: GeneralizedHypercube, faults: FaultSet
) -> np.ndarray:
    """The unique Definition-4 assignment (levels only)."""
    return gh_levels_with_rounds(gh, faults)[0]


@dataclass(frozen=True)
class GhSafetyLevels:
    """Query view over a generalized cube's safety assignment."""

    gh: GeneralizedHypercube
    faults: FaultSet
    levels: np.ndarray

    @classmethod
    def compute(cls, gh: GeneralizedHypercube, faults: FaultSet) -> "GhSafetyLevels":
        levels = compute_gh_safety_levels(gh, faults)
        levels.setflags(write=False)
        return cls(gh=gh, faults=faults, levels=levels)

    def level(self, node: int) -> int:
        self.gh.validate_node(node)
        return int(self.levels[node])

    def is_safe(self, node: int) -> bool:
        return self.level(node) == self.gh.dimension

    def safe_set(self) -> FrozenSet[int]:
        n = self.gh.dimension
        return frozenset(int(v) for v in np.nonzero(self.levels == n)[0])

    def dimension_status(self, node: int) -> List[int]:
        """Definition 4's per-dimension minima as seen by ``node``."""
        self.gh.validate_node(node)
        return [
            min(int(self.levels[v]) for v in self.gh.neighbors_along(node, dim))
            for dim in range(self.gh.dimension)
        ]

    def verify_fixed_point(self) -> List[int]:
        """Nodes violating Definition 4 (empty list = valid assignment)."""
        bad = []
        for node in self.gh.iter_nodes():
            if self.faults.is_node_faulty(node):
                expect = 0
            else:
                expect = level_from_sorted(sorted(self.dimension_status(node)))
            if int(self.levels[node]) != expect:
                bad.append(node)
        return bad

    def render(self) -> str:
        lines = [f"{'node':>8}  level"]
        for node in self.gh.iter_nodes():
            tag = " (faulty)" if self.faults.is_node_faulty(node) else ""
            lines.append(
                f"{self.gh.format_node(node):>8}  {int(self.levels[node])}{tag}"
            )
        return "\n".join(lines)
