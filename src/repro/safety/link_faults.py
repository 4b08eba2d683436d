"""EGS — safety levels in cubes with faulty links *and* nodes (Section 4.1).

The two-view construction:

* ``N1`` — nonfaulty nodes with no adjacent faulty link.  They run ordinary
  GS, but treat every ``N2`` node as faulty (level 0).
* ``N2`` — nonfaulty nodes incident to at least one faulty link.  Publicly
  they declare themselves faulty (everyone else sees them at level 0), but
  privately each computes its *own* level in the final round by running
  NODE_STATUS once, treating the far ends of its faulty links as faulty and
  trusting all other neighbors' published levels.

The result is captured by :class:`ExtendedSafetyLevels`:
``public_levels[v]`` is the level any neighbor perceives for ``v``, and
``self_levels[v]`` the level ``v`` itself routes with.  For ``N1`` nodes the
two coincide.

Footnote 3 of the paper applies to routing: an ``N2`` node may not serve as
an intermediate hop (it looks faulty), but a message destined *to* it is
still delivered over its healthy links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List

import numpy as np

from ..core.faults import FaultSet
from ..core.hypercube import Hypercube
from .levels import level_from_sorted, relax_levels

__all__ = ["ExtendedSafetyLevels", "compute_extended_levels"]


@dataclass(frozen=True)
class ExtendedSafetyLevels:
    """Two-view safety assignment of a cube with node and link faults."""

    topo: Hypercube
    faults: FaultSet
    #: Level of each node as perceived by its neighbors (N2 nodes: 0).
    public_levels: np.ndarray
    #: Level each node uses for itself (differs from public only on N2).
    self_levels: np.ndarray
    #: Nonfaulty nodes incident to a faulty link.
    n2: FrozenSet[int]

    def level_seen_by_neighbor(self, node: int) -> int:
        """What any adjacent node believes ``node``'s level to be."""
        self.topo.validate_node(node)
        return int(self.public_levels[node])

    def own_level(self, node: int) -> int:
        """The level ``node`` itself acts on (its private view)."""
        self.topo.validate_node(node)
        return int(self.self_levels[node])

    def in_n2(self, node: int) -> bool:
        return node in self.n2

    def neighbor_levels_seen_from(self, node: int) -> List[int]:
        """Levels of ``node``'s neighbors from ``node``'s viewpoint.

        Far ends of ``node``'s own faulty links read 0 — but such ends are
        in ``N2`` (or faulty), so their public level is already 0; the
        public view therefore suffices for every observer.
        """
        self.topo.validate_node(node)
        return [int(self.public_levels[v]) for v in self.topo.neighbors(node)]

    def render(self) -> str:
        lines = [f"{'node':>8}  public  self"]
        for node in self.topo.iter_nodes():
            tags = []
            if self.faults.is_node_faulty(node):
                tags.append("faulty")
            if node in self.n2:
                tags.append("N2")
            suffix = f"  ({', '.join(tags)})" if tags else ""
            lines.append(
                f"{self.topo.format_node(node):>8}  "
                f"{int(self.public_levels[node]):>6}  "
                f"{int(self.self_levels[node]):>4}{suffix}"
            )
        return "\n".join(lines)


def compute_extended_levels(
    topo: Hypercube, faults: FaultSet
) -> ExtendedSafetyLevels:
    """Run EGS and return both views.

    Works for pure node faults too (then ``N2`` is empty and both views
    equal the ordinary safety levels), so callers handling mixed workloads
    need no branching.
    """
    faults.validate(topo)
    n = topo.dimension
    num = topo.num_nodes

    n2 = faults.nodes_with_faulty_links(topo)
    pinned = faults.node_mask(num)
    pinned[sorted(n2)] = True

    # Phase 1: ordinary GS over N1 with F and N2 pinned at level 0 (the
    # levels kernels would reject link faults, and here the pinned mask
    # intentionally differs from the genuine fault mask).
    levels = np.full(num, n, dtype=np.int64)
    relax_levels(levels, pinned)
    public = levels

    # Phase 2: each N2 node evaluates NODE_STATUS once for itself.  Far
    # ends of its faulty links are forced to 0; everything else uses the
    # published levels (N2 neighbors publish 0).
    self_levels = public.copy()
    for a in sorted(n2):
        seq = []
        for v in topo.neighbors(a):
            if faults.is_link_declared_faulty(a, v):
                seq.append(0)
            else:
                seq.append(int(public[v]))
        self_levels[a] = level_from_sorted(sorted(seq))

    public_ro = public.copy()
    public_ro.setflags(write=False)
    self_ro = self_levels
    self_ro.setflags(write=False)
    return ExtendedSafetyLevels(
        topo=topo,
        faults=faults,
        public_levels=public_ro,
        self_levels=self_ro,
        n2=frozenset(n2),
    )
