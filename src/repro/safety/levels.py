"""Safety levels (Definition 1) and their fixed-point computation.

Definition 1 (paper): a faulty node is 0-safe.  For a nonfaulty node ``a``
with *nondecreasing* neighbor-level sequence ``(S_0, ..., S_{n-1})``:

* if ``(S_0, ..., S_{n-1}) >= (0, 1, ..., n-1)`` elementwise, ``S(a) = n``;
* else ``S(a) = k`` where the length-k prefix dominates ``(0, ..., k-1)``
  and ``S_k = k - 1``.

A useful consequence (used by both kernels here): in a sorted sequence the
*first* index ``j`` with ``S_j < j`` automatically satisfies ``S_j = j - 1``
whenever it exists — because ``S_j >= S_{j-1} >= j - 1``.  So the update
rule collapses to::

    S(a) = min { j : S_j < j }        (or n if no such j)

which is exactly what :func:`level_from_sorted` computes and what the
vectorized kernel evaluates for all nodes at once.

The global assignment is the unique fixed point of this rule (Theorem 1).
Iterating from the all-``n`` initial state (the GS initialisation) converges
monotonically downward in at most ``n - 1`` sweeps (Property 1 corollary).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..core.fault_models import RngLike, as_rng
from ..core.faults import FaultSet
from ..core.hypercube import Hypercube, neighbor_table
from ..obs.instruments import record_gs_batch
from .packed import batch_block_packed

#: Largest cube the SWAR batch kernel handles: its per-threshold counters
#: live in 7-bit lanes of one uint64.  Larger cubes run the packed tier.
_SWAR_MAX_DIMENSION = 9

__all__ = [
    "level_from_sorted",
    "level_of_node",
    "LevelsWorkspace",
    "compute_safety_levels",
    "compute_safety_levels_batch",
    "compute_safety_levels_async",
    "verify_fixed_point",
    "SafetyLevels",
]


def level_from_sorted(sorted_levels: Sequence[int]) -> int:
    """Definition 1 applied to an already-sorted neighbor sequence.

    ``sorted_levels`` must be nondecreasing; the result is ``n`` (its
    length) when the sequence dominates ``(0, 1, ..., n-1)`` and otherwise
    the first index falling below the identity staircase.
    """
    for j, s in enumerate(sorted_levels):
        if s < j:
            return j
    return len(sorted_levels)


def level_of_node(neighbor_levels: Sequence[int]) -> int:
    """Definition 1 from an unsorted neighbor-level sequence."""
    return level_from_sorted(sorted(neighbor_levels))


def _sweep(levels: np.ndarray, table: np.ndarray, faulty: np.ndarray,
           staircase: np.ndarray, scratch: np.ndarray) -> int:
    """One synchronous relaxation sweep; returns #nodes whose level changed.

    ``scratch`` is a preallocated ``(N, n)`` buffer reused across sweeps so
    the hot loop performs no allocations beyond numpy temporaries.
    """
    np.take(levels, table, out=scratch)
    scratch.sort(axis=1)
    below = scratch < staircase  # (N, n): S_j < j
    any_below = below.any(axis=1)
    first_fail = np.argmax(below, axis=1)
    n = table.shape[1]
    new_levels = np.where(any_below, first_fail, n).astype(levels.dtype)
    new_levels[faulty] = 0
    changed = int(np.count_nonzero(new_levels != levels))
    levels[:] = new_levels
    return changed


class LevelsWorkspace:
    """Reusable scratch buffers for the safety-level kernels.

    The vectorized kernels need an identity staircase, a gather buffer of
    shape ``(batch, 2**n, n)``, and (for the batched SWAR kernel) packed
    threshold tables.  In Monte-Carlo loops those allocations dominate
    small-cube trials, so this class caches them keyed on the cube shape,
    growing batch capacity on demand and handing out views.  Buffers are
    plain mutable scratch: a workspace must not be shared between threads
    (separate *processes* each get their own).
    """

    __slots__ = ("_staircases", "_gathers", "_swar", "_swar_scratch")

    def __init__(self) -> None:
        self._staircases: Dict[int, np.ndarray] = {}
        self._gathers: Dict[Tuple[int, int], np.ndarray] = {}
        self._swar: Dict[int, Tuple[np.ndarray, np.ndarray, int, int]] = {}
        self._swar_scratch: Dict[int, np.ndarray] = {}

    def staircase(self, n: int) -> np.ndarray:
        """Read-only ``(0, 1, ..., n-1)`` row for Definition-1 comparisons."""
        arr = self._staircases.get(n)
        if arr is None:
            arr = np.arange(n, dtype=np.int64)
            arr.setflags(write=False)
            self._staircases[n] = arr
        return arr

    def gather(self, batch: int, num_nodes: int, n: int) -> np.ndarray:
        """A ``(batch, num_nodes, n)`` int64 scratch view (uninitialized)."""
        key = (num_nodes, n)
        buf = self._gathers.get(key)
        if buf is None or buf.shape[0] < batch:
            buf = np.empty((batch, num_nodes, n), dtype=np.int64)
            self._gathers[key] = buf
        return buf[:batch]

    def swar_scratch(
        self, batch: int, num_nodes: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Two ``(batch, num_nodes)`` uint64 scratch views (uninitialized)."""
        buf = self._swar_scratch.get(num_nodes)
        if buf is None or buf.shape[1] < batch:
            buf = np.empty((2, batch, num_nodes), dtype=np.uint64)
            self._swar_scratch[num_nodes] = buf
        return buf[0, :batch], buf[1, :batch]

    def swar_tables(self, n: int) -> Tuple[np.ndarray, np.ndarray, int, int]:
        """Packed-threshold tables for the SWAR batched kernel (n <= 9).

        Definition 1's update collapses to ``S(a) = min{t : c_t >= t+1}``
        where ``c_t`` counts neighbors with level below ``t`` (or ``n``
        when no threshold fails; ``t = 0`` can never fail).  The SWAR
        kernel keeps every counter ``c_1 .. c_{n-1}`` in its own 7-bit
        field of one ``uint64`` per node, so a single add per dimension
        accumulates all thresholds at once.  Returned tables:

        * ``vlut[L]`` — the packed contribution of one neighbor at level
          ``L``: bit ``7t`` set for every threshold ``t > L``;
        * ``tlut[p]`` — maps ``popcount(O ^ (O - 1))`` of the overflow
          word ``O`` back to the lowest failing threshold: the lowest set
          bit ``7t + 6`` gives popcount ``7t + 7``; ``O == 0`` wraps to
          all-ones (popcount 64), which maps to ``n`` for "no failure";
        * ``bias`` — adds ``64 - (t+1)`` into field ``t``, so field
          ``t`` overflows into bit ``7t + 6`` exactly when
          ``c_t >= t+1`` (fields hold at most ``n + 63 < 128``: no
          carry between fields);
        * ``over`` — the mask of all overflow bits.
        """
        cached = self._swar.get(n)
        if cached is None:
            if not 1 <= n <= _SWAR_MAX_DIMENSION:
                raise ValueError(
                    f"SWAR kernel supports 1 <= n <= {_SWAR_MAX_DIMENSION}")
            vlut = np.zeros(n + 1, dtype=np.uint64)
            for level in range(n + 1):
                vlut[level] = sum(1 << (7 * t) for t in range(level + 1, n))
            vlut.setflags(write=False)
            tlut = np.full(65, n, dtype=np.int8)
            for t in range(1, n):
                tlut[7 * t + 7] = t
            tlut.setflags(write=False)
            bias = sum((63 - t) << (7 * t) for t in range(1, n))
            over = sum(1 << (7 * t + 6) for t in range(1, n))
            cached = (vlut, tlut, bias, over)
            self._swar[n] = cached
        return cached


#: Shared workspace for single-threaded callers (the default everywhere).
_DEFAULT_WORKSPACE = LevelsWorkspace()


def compute_safety_levels(
    topo: Hypercube,
    faults: FaultSet,
    workspace: Optional[LevelsWorkspace] = None,
) -> np.ndarray:
    """The unique safety-level assignment of a faulty binary n-cube.

    Vectorized greatest-fixed-point iteration: start every nonfaulty node
    at ``n`` and resweep until no level changes.  Equivalent to the
    distributed GS algorithm (cross-validated in the test suite), but each
    "round" is one fancy-indexed gather + row sort over the whole cube.

    Returns an int64 vector of length ``2**n``; faulty nodes hold 0.
    ``workspace`` defaults to a module-level scratch cache so tight trial
    loops do not reallocate the ``(2**n, n)`` gather buffer every call.

    Note: link faults are outside Definition 1 — use
    :mod:`repro.safety.link_faults` for cubes with faulty links.
    """
    if faults.effective_links():
        raise ValueError(
            "compute_safety_levels handles node faults only; use "
            "repro.safety.link_faults.compute_extended_levels for link faults"
        )
    n = topo.dimension
    table = neighbor_table(n)
    faulty = faults.node_mask(topo.num_nodes)
    levels = np.full(topo.num_nodes, n, dtype=np.int64)
    levels[faulty] = 0
    ws = workspace if workspace is not None else _DEFAULT_WORKSPACE
    staircase = ws.staircase(n)[None, :]
    scratch = ws.gather(1, topo.num_nodes, n)[0]
    # The monotone iteration provably needs at most n-1 sweeps to reach the
    # fixed point (Property 1 corollary); one extra confirms stability.
    for _ in range(n + 1):
        if _sweep(levels, table, faulty, staircase, scratch) == 0:
            return levels
    raise AssertionError(
        "safety-level iteration failed to stabilize within n+1 sweeps; "
        "this contradicts Property 1 and indicates a kernel bug"
    )


#: Row-block size for the batched kernel.  The SWAR sweep touches two
#: ``(block, 2**n)`` uint64 buffers per pass; blocking keeps them inside
#: the cache instead of streaming a whole 10k-trial batch through memory.
_BATCH_BLOCK = 512


def _batch_block_swar(
    n: int, masks: np.ndarray, ws: LevelsWorkspace
) -> Tuple[np.ndarray, np.ndarray]:
    """Definition-1 fixed point for one block of fault masks, SWAR kernel.

    Works for ``n <= 9``.  Levels live in an int8 ``(B, 2**n)`` matrix.
    One sweep packs every node's threshold counters ``c_1 .. c_{n-1}``
    (#neighbors with level < t) into 7-bit lanes of a uint64 — the lane
    sums are just ``n`` adds of the value table along each reversed cube
    axis, since the dimension-``j`` neighbor of node ``a`` is ``a ^ 2**j``.
    Adding the bias makes lane ``t`` overflow into its top bit exactly when
    ``c_t >= t + 1``; the lowest set overflow bit *is* the new level
    (Definition 1 collapsed to ``S(a) = min{t : c_t >= t+1}``, else ``n``).
    No gather, no sort, ~n ops per node per sweep.
    """
    vlut, tlut, bias, over = ws.swar_tables(n)
    batch, num_nodes = masks.shape
    levels = np.full((batch, num_nodes), n, dtype=np.int8)
    levels[masks] = 0
    rounds = np.zeros(batch, dtype=np.int64)
    packed, summed = ws.swar_scratch(batch, num_nodes)
    # Sweep 1 collapses analytically: from the all-n start a neighbor
    # contributes to every threshold iff it is faulty, so each counter
    # c_t equals the faulty-neighbor count F and the swept level is 1
    # where F >= 2, else n.  Counting F is an 8-bit add per dimension —
    # a quarter of the packed sweep's traffic.
    cnt = np.empty((batch, num_nodes), dtype=np.uint8)
    cnt_cube = cnt.reshape((batch,) + (2,) * n)
    mask_cube = masks.view(np.uint8).reshape(cnt_cube.shape)
    for axis in range(1, n + 1):
        rev = tuple(
            slice(None, None, -1) if k == axis else slice(None)
            for k in range(n + 1)
        )
        if axis == 1:
            cnt_cube[...] = mask_cube[rev]
        else:
            np.add(cnt_cube, mask_cube[rev], out=cnt_cube)
    dropped = (cnt >= 2) & ~masks
    active = np.flatnonzero(dropped.any(axis=1))
    if active.size:
        new_levels = np.where(dropped[active], np.int8(1), np.int8(n))
        new_levels[masks[active]] = 0
        levels[active] = new_levels
        rounds[active] = 1
    for sweep_no in range(2, n + 2):
        b = active.size
        if b == 0:
            break
        # While every row is still active, operate on the block arrays
        # directly instead of fancy-indexed copies of them.
        full = b == batch
        sub_levels = levels if full else levels[active]
        sub_masks = masks if full else masks[active]
        value = packed[:b]
        np.take(vlut, sub_levels, out=value)
        cube = value.reshape((b,) + (2,) * n)
        total = summed[:b]
        # Seed the accumulator with the bias so it rides along the
        # neighbor adds instead of costing a separate pass.
        total.fill(bias)
        total_cube = total.reshape(cube.shape)
        for axis in range(1, n + 1):
            rev = tuple(
                slice(None, None, -1) if k == axis else slice(None)
                for k in range(n + 1)
            )
            np.add(total_cube, cube[rev], out=total_cube)
        total &= over
        # total ^ (total - 1) sets bits 0 .. lowest-set-bit, so its
        # popcount maps through tlut to the level (total == 0 wraps to
        # all-ones, popcount 64 -> n).  Reuses the value buffer.
        np.subtract(total, np.uint64(1), out=value)
        np.bitwise_xor(value, total, out=value)
        new_levels = tlut[np.bitwise_count(value)]
        new_levels[sub_masks] = 0
        changed = (new_levels != sub_levels).any(axis=1)
        still = np.flatnonzero(changed) if full else active[changed]
        rounds[still] = sweep_no
        levels[still] = new_levels[changed]
        active = still
    if active.size:
        raise AssertionError(
            "batched safety-level iteration failed to stabilize within n+1 "
            "sweeps; this contradicts Property 1 and indicates a kernel bug"
        )
    return levels.astype(np.int64), rounds


def compute_safety_levels_batch(
    topo: Hypercube,
    fault_masks: np.ndarray,
    workspace: Optional[LevelsWorkspace] = None,
    return_rounds: bool = False,
) -> np.ndarray | Tuple[np.ndarray, np.ndarray]:
    """Safety levels of ``B`` independent fault sets in one kernel.

    ``fault_masks`` is a boolean ``(B, 2**n)`` matrix, one row per trial
    (row ``b`` true at ``b``'s faulty nodes).  Each Definition-1 sweep runs
    over every still-unstable trial at once, so a whole Monte-Carlo cell
    amortizes numpy dispatch that the per-trial kernel pays ``B`` times;
    rows that reach their fixed point drop out of subsequent sweeps, and
    large batches are processed in cache-sized row blocks.  The sweep
    kernel follows from the cube alone: the SWAR threshold-counting
    kernel (:func:`_batch_block_swar`) for ``n <= 9``, the packed-bitset
    tier (:func:`repro.safety.packed.batch_block_packed`) for larger
    cubes.

    Returns the ``(B, 2**n)`` int64 level matrix; with ``return_rounds``
    also the ``(B,)`` per-trial stabilization round (the count of
    change-bearing synchronous sweeps — exactly what
    :func:`repro.safety.gs.compute_levels_with_rounds` reports trial by
    trial, cross-checked in the test suite).
    """
    masks = np.asarray(fault_masks, dtype=bool)
    if masks.ndim != 2 or masks.shape[1] != topo.num_nodes:
        raise ValueError(
            f"fault_masks must have shape (B, {topo.num_nodes}), "
            f"got {masks.shape}"
        )
    n = topo.dimension
    num_nodes = topo.num_nodes
    batch = masks.shape[0]
    ws = workspace if workspace is not None else _DEFAULT_WORKSPACE
    swar = n <= _SWAR_MAX_DIMENSION
    levels = np.empty((batch, num_nodes), dtype=np.int64)
    rounds = np.empty(batch, dtype=np.int64)
    for lo in range(0, batch, _BATCH_BLOCK):
        hi = min(lo + _BATCH_BLOCK, batch)
        if swar:
            blk_levels, blk_rounds = _batch_block_swar(n, masks[lo:hi], ws)
        else:
            blk_levels, blk_rounds = batch_block_packed(n, masks[lo:hi])
        levels[lo:hi] = blk_levels
        rounds[lo:hi] = blk_rounds
    record_gs_batch(n, batch, "swar" if swar else "packed", rounds)
    return (levels, rounds) if return_rounds else levels


def compute_safety_levels_async(
    topo: Hypercube,
    faults: FaultSet,
    rng: RngLike = None,
    start_levels: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Chaotic (random node order, one node at a time) relaxation.

    Exercises Theorem 1: the fixed point is unique, so *any* fair update
    order from the all-``n`` start must converge to the same assignment as
    the synchronous kernel.  Used by property-based tests; not a fast path.
    """
    gen = as_rng(rng)
    n = topo.dimension
    faulty = faults.node_mask(topo.num_nodes)
    if start_levels is None:
        levels = np.full(topo.num_nodes, n, dtype=np.int64)
    else:
        levels = np.array(start_levels, dtype=np.int64, copy=True)
    levels[faulty] = 0
    table = topo.neighbor_table()
    # A node's level can drop at most n times, so n * N single-node updates
    # per pass and at most n passes bounds the work.
    for _ in range(n + 1):
        order = gen.permutation(topo.num_nodes)
        changed = False
        for node in order:
            if faulty[node]:
                continue
            new = level_from_sorted(np.sort(levels[table[node]]))
            if new != levels[node]:
                levels[node] = new
                changed = True
        if not changed:
            return levels
    raise AssertionError("asynchronous relaxation failed to stabilize")


def verify_fixed_point(
    topo: Hypercube, faults: FaultSet, levels: np.ndarray
) -> List[int]:
    """Nodes violating Definition 1 under ``levels`` (empty = valid).

    This is the Theorem-1 check: a proposed assignment is *the* safety
    assignment iff every node satisfies the definition locally.
    """
    table = topo.neighbor_table()
    bad = []
    for node in topo.iter_nodes():
        if faults.is_node_faulty(node):
            expect = 0
        else:
            expect = level_from_sorted(np.sort(levels[table[node]]))
        if levels[node] != expect:
            bad.append(node)
    return bad


@dataclass(frozen=True)
class SafetyLevels:
    """An immutable view of a cube's safety assignment with query helpers.

    Build with :meth:`compute`; experiments and routers consume this object
    rather than raw arrays so that level semantics (safe/unsafe, safe set)
    live in one place.
    """

    topo: Hypercube
    faults: FaultSet
    levels: np.ndarray

    @classmethod
    def compute(cls, topo: Hypercube, faults: FaultSet) -> "SafetyLevels":
        faults.validate(topo)
        levels = compute_safety_levels(topo, faults)
        levels.setflags(write=False)
        return cls(topo=topo, faults=faults, levels=levels)

    def level(self, node: int) -> int:
        """``S(node)``; 0 for faulty nodes."""
        self.topo.validate_node(node)
        return int(self.levels[node])

    def is_safe(self, node: int) -> bool:
        """True iff ``node`` is n-safe (the paper's *safe node*)."""
        return self.level(node) == self.topo.dimension

    def is_unsafe(self, node: int) -> bool:
        """True iff nonfaulty with level below ``n``."""
        return (not self.faults.is_node_faulty(node)) and not self.is_safe(node)

    def safe_set(self) -> FrozenSet[int]:
        """All n-safe nodes."""
        n = self.topo.dimension
        return frozenset(np.flatnonzero(self.levels == n).tolist())

    def neighbor_levels(self, node: int) -> List[int]:
        """Levels of ``node``'s neighbors in dimension order — exactly the
        information the distributed algorithm has at ``node``."""
        self.topo.validate_node(node)
        return [int(self.levels[v]) for v in self.topo.neighbors(node)]

    def by_level(self) -> Dict[int, List[int]]:
        """Mapping level -> sorted node list (diagnostics, examples)."""
        # One stable sort groups nodes by level while keeping ascending
        # node ids within each group — no per-node Python loop over 2**n.
        order = np.argsort(self.levels, kind="stable")
        grouped = self.levels[order]
        values, starts = np.unique(grouped, return_index=True)
        bounds = np.append(starts, order.size)
        return {
            int(values[i]): order[bounds[i]:bounds[i + 1]].tolist()
            for i in range(values.size)
        }

    def render(self) -> str:
        """Tabular dump used by the examples to mirror the paper figures."""
        lines = [f"{'node':>8}  level"]
        for node in self.topo.iter_nodes():
            tag = " (faulty)" if self.faults.is_node_faulty(node) else ""
            lines.append(
                f"{self.topo.format_node(node):>8}  {int(self.levels[node])}{tag}"
            )
        return "\n".join(lines)
