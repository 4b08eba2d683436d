"""The distributed GLOBAL_STATUS (GS) algorithm on the simulator.

This is the paper's Section 2.2 protocol, run by real node processes that
see only single-hop messages:

* every nonfaulty node starts at level ``n`` (so a fault-free cube incurs
  no stabilization work);
* each node knows which of its *neighbors* are faulty (paper assumption 2)
  and accounts them as 0-safe;
* each round, a node re-evaluates Definition 1 over its latest view of
  neighbor levels and, on change, tells its healthy neighbors.

Two exchange policies are provided (Section 2.2 discusses the trade-off):

* ``"on-change"`` — state-change-driven: a node transmits only when its
  level changed (plus one initial advertisement round is unnecessary since
  the all-``n`` start is known by convention);
* ``"every-round"`` — periodic: all nodes retransmit every round, the
  literal synchronous GS of the paper's pseudo-code.

Both converge to the same assignment; they differ only in message volume,
which :func:`run_gs` reports for the E12 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Literal, Optional, Sequence

import numpy as np

from ..core.faults import FaultSet
from ..core.hypercube import Hypercube
from ..simcore.message import Message
from ..simcore.network import Network
from ..simcore.sync import BspProcess, RoundExecutor, RoundsResult
from .levels import (
    LevelsWorkspace,
    compute_levels_with_rounds,
    compute_safety_levels_batch,
    level_from_sorted,
)

__all__ = [
    "GsProcess",
    "GsRun",
    "run_gs",
    "compute_levels_with_rounds",
    "stabilization_rounds_fast",
    "stabilization_rounds_batch",
    "KIND_LEVEL",
]

#: Message kind carrying a safety level announcement.
KIND_LEVEL = "safety-level"

ExchangePolicy = Literal["on-change", "every-round"]


class GsProcess(BspProcess):
    """One node's side of the GS protocol."""

    __slots__ = ("n", "my_level", "neighbor_view", "policy", "_healthy")

    def __init__(self, node_id_neighbors: Sequence[int],
                 faulty_neighbors: Sequence[int], n: int,
                 policy: ExchangePolicy = "on-change") -> None:
        super().__init__()
        self.n = n
        self.my_level = n
        self.policy: ExchangePolicy = policy
        # Latest known neighbor levels; faulty neighbors are pinned at 0
        # (fail-stop + local fault detection, paper assumption 2).
        self.neighbor_view: Dict[int, int] = {
            v: (0 if v in set(faulty_neighbors) else n)
            for v in node_id_neighbors
        }
        self._healthy = [v for v in node_id_neighbors
                         if v not in set(faulty_neighbors)]

    def _recompute(self) -> bool:
        new = level_from_sorted(sorted(self.neighbor_view.values()))
        if new != self.my_level:
            self.my_level = new
            return True
        return False

    def _broadcast_level(self) -> None:
        for v in self._healthy:
            self.send(v, KIND_LEVEL, self.my_level, payload_units=1)

    def on_round(self, round_no: int, inbox: Sequence[Message]) -> bool:
        for msg in inbox:
            self.neighbor_view[msg.src] = msg.payload
        changed = self._recompute()
        if changed:
            self.trace("level", self.my_level)
        if self.policy == "every-round" or changed:
            self._broadcast_level()
        return changed


@dataclass(frozen=True)
class GsRun:
    """Result of a distributed GS execution."""

    levels: np.ndarray
    rounds: RoundsResult
    network: Network

    @property
    def stabilization_round(self) -> int:
        return self.rounds.stabilization_round

    @property
    def messages_sent(self) -> int:
        return self.rounds.messages_sent


def run_gs(
    topo: Hypercube,
    faults: FaultSet,
    policy: ExchangePolicy = "on-change",
    max_rounds: int | None = None,
    trace: bool = False,
) -> GsRun:
    """Run distributed GS to stabilization and return the level assignment.

    ``max_rounds`` defaults to ``n + 1``: Property 1's corollary promises
    stabilization within ``n - 1`` rounds, so the default leaves room to
    *observe* the quiet round that proves it (the executor stops early on
    quiescence).
    """
    faults.validate(topo)
    if faults.effective_links():
        raise ValueError("run_gs is node-fault GS; see safety.link_faults")
    n = topo.dimension
    if max_rounds is None:
        # On-change runs to observed quiescence (bounded well below n+1 in
        # practice); the periodic policy is the paper's fixed D = n - 1.
        max_rounds = n + 1 if policy == "on-change" else n - 1

    def factory(node: int) -> GsProcess:
        neighbors = topo.neighbors(node)
        faulty = [v for v in neighbors if faults.is_node_faulty(v)]
        return GsProcess(neighbors, faulty, n, policy=policy)

    net = Network(topo, faults, factory, trace=trace)
    result = RoundExecutor(net).run(
        max_rounds=max_rounds,
        stop_when_stable=(policy == "on-change"),
    )
    levels = np.zeros(topo.num_nodes, dtype=np.int64)
    for node, proc in net.processes.items():
        assert isinstance(proc, GsProcess)
        levels[node] = proc.my_level
    return GsRun(levels=levels, rounds=result, network=net)


def stabilization_rounds_fast(topo: Hypercube, faults: FaultSet) -> int:
    """Stabilization round only (the Fig. 2 y-axis quantity)."""
    return compute_levels_with_rounds(topo, faults)[1]


def stabilization_rounds_batch(
    topo: Hypercube,
    fault_masks: np.ndarray,
    workspace: Optional[LevelsWorkspace] = None,
) -> np.ndarray:
    """Per-trial stabilization rounds for a ``(B, 2**n)`` fault-mask batch.

    Batched counterpart of :func:`stabilization_rounds_fast`: one call
    evaluates a whole Fig. 2 (n, f) Monte-Carlo cell, with the rounds of
    trial ``b`` equal to what the per-trial kernel reports for row ``b``'s
    fault set (asserted by the equivalence tests).
    """
    _, rounds = compute_safety_levels_batch(
        topo, fault_masks, workspace=workspace, return_rounds=True
    )
    return rounds
