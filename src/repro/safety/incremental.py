"""Incremental safety-level maintenance: fault deltas, not full recomputes.

Definition 1's recursion is local — a node's level depends only on its
neighbors' levels — so a fault event perturbs the assignment outward from
the touched nodes in waves, and a maintenance engine only has to evaluate
the nodes those waves actually reach.  :class:`IncrementalLevelEngine`
owns a fixed-point assignment and updates it through
:meth:`~IncrementalLevelEngine.apply_delta`:

1. **Seed.**  Newly faulty nodes drop to level 0 and recovered nodes
   re-enter at ``n`` (start-state conventions, not protocol traffic).
   The dirty seed is every healthy neighbor of a toggled node plus the
   recovered nodes themselves: exactly the nodes whose next synchronous
   evaluation can differ.
2. **Waves.**  Each wave Jacobi-evaluates the current frontier against
   the pre-wave state with the Definition-1 row rule
   (:func:`~repro.safety.levels.levels_from_rows`), applies the changes,
   and seeds the next frontier with the healthy neighbors of the changed
   nodes.  By induction every node outside a frontier is locally
   consistent, so wave ``k``'s changed set equals the changed set of full
   synchronous sweep ``k`` — rounds and on-change message counts are
   therefore *identical* to the whole-cube loop
   :func:`~repro.safety.levels.relax_levels` from the same start state,
   while the work done is proportional to the perturbed region only.
3. **Termination.**  The synchronous iterate is monotone, so from any
   start state it is sandwiched between the iterates from the all-0 and
   all-``n`` states, both of which converge to the *unique* fixed point
   (Theorem 1); a wave with no changes certifies global stability.

The engine boots with that whole-cube loop from the all-``n`` start.
When a delta touches so much of the cube that per-wave bookkeeping would
cost more than whole-array sweeps (seed larger than a quarter of the
cube), the engine runs the loop warm on its own levels instead — same
start state, same accounting, just evaluated without a dirty set — and
counts the fallback for observability.

The engine reports per-delta :class:`DeltaStats` to the observability
registry (``safety.incremental_*`` counters, dirty-set and wave
histograms, ``incremental_update`` events) as the
``incremental_update`` signal of :mod:`repro.obs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from ..core.faults import FaultSet
from ..core.hypercube import Hypercube
from ..obs.instruments import record
from .levels import levels_from_rows, relax_levels

__all__ = ["DeltaStats", "IncrementalLevelEngine"]

#: Seed sizes above this fraction of the cube run whole-array sweeps
#: instead of wave bookkeeping (identical results and accounting).
_FALLBACK_FRACTION = 4


@dataclass(frozen=True)
class DeltaStats:
    """Cost accounting for one :meth:`IncrementalLevelEngine.apply_delta`.

    ``rounds`` and ``messages`` are the change-bearing synchronous rounds
    and on-change protocol messages the update *would have cost on the
    wire* — bit-identical to the warm-started whole-cube loop
    :func:`repro.safety.levels.relax_levels`.  ``dirty_seed`` /
    ``dirty_total`` / ``changed`` measure the work the incremental wave
    evaluation actually performed instead.
    """

    added: int
    removed: int
    dirty_seed: int
    #: Node evaluations summed over all waves (the incremental work).
    dirty_total: int
    #: Level assignments that changed, summed over all waves.
    changed: int
    #: Change-bearing waves == stabilization rounds of the full protocol.
    rounds: int
    #: On-change protocol messages (one per healthy neighbor per change).
    messages: int
    #: True when this delta ran whole-array sweeps instead of waves.
    fallback: bool


class IncrementalLevelEngine:
    """A Definition-1 assignment maintained under add/remove fault deltas.

    The engine owns the level array (exposed read-only via
    :attr:`levels`) and the current :class:`~repro.core.faults.FaultSet`
    (:attr:`faults`).  ``apply_delta`` mutates both and returns the
    :class:`DeltaStats`; ``set_faults`` diffs an absolute fault set
    against the current one and applies the difference as a delta.
    """

    def __init__(self, topo: Hypercube, faults: Optional[FaultSet] = None,
                 _boot: bool = True) -> None:
        self.topo = topo
        self._table = topo.neighbor_table()
        self._n = topo.dimension
        self._num_nodes = topo.num_nodes
        self.faults = faults if faults is not None else FaultSet()
        self._mask = self.faults.node_mask(self._num_nodes)
        #: Cumulative protocol cost across the engine's lifetime.
        self.gs_rounds = 0
        self.gs_messages = 0
        self.updates = 0
        self.fallbacks = 0
        self._levels = np.full(self._num_nodes, self._n, dtype=np.int64)
        rounds, messages = relax_levels(self._levels, self._mask)
        if _boot:
            # The cold boot is the distributed protocol's initial
            # stabilization — real traffic, charged to the engine.
            self.gs_rounds += rounds
            self.gs_messages += messages

    # -- state access --------------------------------------------------------

    @property
    def levels(self) -> np.ndarray:
        """The current fixed point (read-only view)."""
        view = self._levels.view()
        view.setflags(write=False)
        return view

    # -- deltas --------------------------------------------------------------

    def _normalize(self, nodes: Iterable[int]) -> np.ndarray:
        arr = np.unique(np.asarray(sorted(int(v) for v in nodes),
                                   dtype=np.int64))
        if arr.size and (arr[0] < 0 or arr[-1] >= self._num_nodes):
            raise ValueError(
                f"fault delta node out of range for Q{self._n}: "
                f"{arr[arr < 0].tolist() + arr[arr >= self._num_nodes].tolist()}"
            )
        return arr

    def apply_delta(
        self, add: Iterable[int] = (), remove: Iterable[int] = ()
    ) -> DeltaStats:
        """Toggle node faults and re-stabilize the assignment.

        ``add`` nodes that are already faulty and ``remove`` nodes that
        are already healthy are ignored (the delta is a set operation,
        not an event log); a node in both collections is an error.
        Returns the :class:`DeltaStats` for this update.
        """
        add_arr = self._normalize(add)
        remove_arr = self._normalize(remove)
        both = np.intersect1d(add_arr, remove_arr)
        if both.size:
            raise ValueError(
                f"nodes {both.tolist()} appear in both add and remove"
            )
        add_arr = add_arr[~self._mask[add_arr]]
        remove_arr = remove_arr[self._mask[remove_arr]]

        self._mask[add_arr] = True
        self._mask[remove_arr] = False
        self.faults = FaultSet(
            (self.faults.nodes - set(remove_arr.tolist()))
            | set(add_arr.tolist()),
            self.faults.links,
        )
        # Start-state conventions (not protocol traffic): failed nodes
        # report level 0, recovered nodes re-enter at n.
        self._levels[add_arr] = 0
        self._levels[remove_arr] = self._n

        toggled = np.concatenate([add_arr, remove_arr])
        nbrs = self._table[toggled].ravel()
        seed = np.unique(np.concatenate([nbrs[~self._mask[nbrs]],
                                         remove_arr]))
        if seed.size > self._num_nodes // _FALLBACK_FRACTION:
            rounds, messages = relax_levels(self._levels, self._mask)
            stats = DeltaStats(
                added=int(add_arr.size), removed=int(remove_arr.size),
                dirty_seed=int(seed.size), dirty_total=0, changed=0,
                rounds=rounds, messages=messages, fallback=True,
            )
            self.fallbacks += 1
        else:
            rounds, messages, dirty_total, changed = self._waves(seed)
            stats = DeltaStats(
                added=int(add_arr.size), removed=int(remove_arr.size),
                dirty_seed=int(seed.size), dirty_total=dirty_total,
                changed=changed, rounds=rounds, messages=messages,
                fallback=False,
            )
        self.updates += 1
        self.gs_rounds += stats.rounds
        self.gs_messages += stats.messages
        record("incremental_update", n=self._n, **vars(stats))
        return stats

    def _waves(self, seed: np.ndarray) -> Tuple[int, int, int, int]:
        """Propagate Definition 1 outward from ``seed`` until stable."""
        table = self._table
        mask = self._mask
        frontier = seed
        rounds = messages = dirty_total = changed_total = 0
        wave_no = 0
        while frontier.size:
            wave_no += 1
            if wave_no > self._num_nodes + 1:
                raise AssertionError(
                    "incremental safety-level waves failed to stabilize; "
                    "this contradicts Theorem 1 and indicates an engine bug"
                )
            dirty_total += int(frontier.size)
            new_vals = levels_from_rows(self._levels[table[frontier]])
            diff = new_vals != self._levels[frontier]
            ch = frontier[diff]
            if ch.size == 0:
                break
            self._levels[ch] = new_vals[diff]
            rounds = wave_no
            nxt = table[ch].ravel()
            # On-change traffic: each changed node tells its healthy
            # neighbors (degree computed on the touched rows only).
            messages += int((~mask[nxt]).sum())
            changed_total += int(ch.size)
            frontier = np.unique(nxt[~mask[nxt]])
        return rounds, messages, dirty_total, changed_total

    def set_faults(self, faults: FaultSet) -> DeltaStats:
        """Diff an absolute fault set against the current one and apply
        the node difference as a delta.

        Link faults carry through to :attr:`faults` verbatim (node
        safety levels do not model them) but contribute nothing to the
        delta.
        """
        new_nodes = {v for v in faults.nodes if v < self._num_nodes}
        cur_nodes = set(self.faults.nodes)
        stats = self.apply_delta(add=new_nodes - cur_nodes,
                                 remove=cur_nodes - new_nodes)
        self.faults = faults
        return stats
