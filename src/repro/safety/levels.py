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

which is exactly what :func:`level_from_sorted` computes for one node and
:func:`levels_from_rows` for many at once.

The global assignment is the unique fixed point of this rule (Theorem 1).
Iterating from the all-``n`` initial state (the GS initialisation) converges
monotonically downward in at most ``n - 1`` sweeps (Property 1 corollary).
:func:`relax_levels` is that iteration over a whole cube, from any start
state; every per-cube caller (GS rounds, on-change message counts, EGS
phase 1, the incremental engine's boot and fallback) runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..core.fault_models import RngLike, as_rng
from ..core.faults import FaultSet
from ..core.hypercube import Hypercube, neighbor_table
from ..obs.instruments import record_gs_batch
from .packed import batch_block_packed

#: Largest cube the SWAR batch kernel handles: its per-threshold counter
#: fields must fit 63 bits of one uint64 (see ``swar_tables``), which
#: they do up to Q14 and not at Q15.
_SWAR_MAX_DIMENSION = 14

__all__ = [
    "level_from_sorted",
    "level_of_node",
    "levels_from_rows",
    "relax_levels",
    "LevelsWorkspace",
    "compute_levels_with_rounds",
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


def levels_from_rows(rows: np.ndarray) -> np.ndarray:
    """Definition 1 for each row of gathered neighbor levels.

    Sorts ``rows`` (``(k, n)`` int64) in place and returns the ``(k,)``
    int64 levels ``min{j : S_j < j}``, or ``n`` where no ``j`` qualifies.
    """
    rows.sort(axis=1)
    n = rows.shape[1]
    below = rows < np.arange(n)
    first = np.argmax(below, axis=1)
    # Levels are nonnegative, so S_0 < 0 never holds: argmax 0 means no
    # j qualifies.
    return np.where(first == 0, n, first)


def relax_levels(levels: np.ndarray, pinned: np.ndarray,
                 scratch: Optional[np.ndarray] = None) -> Tuple[int, int]:
    """Iterate Definition 1 over a whole cube until nothing changes.

    ``levels`` (int64, length ``2**n``) is the start state and is relaxed
    in place by synchronous (Jacobi) sweeps; ``pinned`` nodes are held at
    0.  Returns ``(rounds, messages)``: the change-bearing sweeps, and one
    on-change protocol message per unpinned neighbor of every node that
    changed in a sweep — the accounting of
    :class:`~repro.safety.gs.GsProcess` in ``on-change`` mode.
    ``scratch`` is an optional ``(2**n, n)`` int64 gather buffer.

    From the all-``n`` start the iteration settles within ``n - 1`` sweeps
    (Property 1 corollary).  A warm start may move levels either way; it
    is allowed ``2**n + 1`` sweeps, and exceeding them raises.
    """
    num_nodes = levels.shape[0]
    n = num_nodes.bit_length() - 1
    table = neighbor_table(n)
    if scratch is None:
        scratch = np.empty((num_nodes, n), dtype=np.int64)
    levels[pinned] = 0
    rounds = messages = 0
    for sweep_no in range(1, num_nodes + 2):
        new_levels = levels_from_rows(np.take(levels, table, out=scratch))
        np.copyto(new_levels, 0, where=pinned)
        changed = np.flatnonzero(new_levels != levels)
        if changed.size == 0:
            return rounds, messages
        levels[...] = new_levels
        rounds = sweep_no
        messages += changed.size * n - int(
            np.count_nonzero(pinned[table[changed]]))
    raise AssertionError(
        "safety-level iteration failed to stabilize within 2**n + 1 "
        "sweeps; this contradicts Theorem 1 and indicates a kernel bug"
    )


class LevelsWorkspace:
    """Reusable scratch buffers for the safety-level kernels.

    The vectorized kernels need a gather buffer of shape
    ``(batch, 2**n, n)`` and (for the batched SWAR kernel) packed
    threshold tables plus six ``(batch, 2**n)`` sweep arrays: packed
    contributions, their gather along one dimension and the field sums
    (uint64), the active rows' gathered levels (int64, so they index the
    tables without a cast), faulty-neighbour counts that later hold the
    active rows' fault masks (uint8), and per-node flags (bool).  In
    Monte-Carlo loops those allocations dominate small-cube trials and,
    once freed, fault their pages in again on the next call, so this
    class caches them keyed on the cube shape, growing batch capacity on
    demand and handing out views.  A warm workspace lets the SWAR kernel
    sweep without allocating.
    Buffers are plain mutable scratch: a workspace must not be shared
    between threads (separate *processes* each get their own), and no
    kernel returns a view of one — results are always fresh arrays.
    """

    __slots__ = ("_gathers", "_swar", "_swar_scratch")

    def __init__(self) -> None:
        self._gathers: Dict[Tuple[int, int], np.ndarray] = {}
        self._swar: Dict[int, Tuple[np.ndarray, np.ndarray, int, int]] = {}
        self._swar_scratch: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

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
    ) -> Tuple[np.ndarray, ...]:
        """The SWAR kernel's ``(batch, num_nodes)`` scratch views
        (uninitialized): packed, neighbors and summed (uint64), gathered
        (int64), counts (uint8) and flags (bool)."""
        cached = self._swar_scratch.get(num_nodes)
        if cached is None or cached[0].shape[1] < batch:
            cached = (np.empty((4, batch, num_nodes), dtype=np.uint64),
                      np.empty((2, batch, num_nodes), dtype=np.uint8))
            self._swar_scratch[num_nodes] = cached
        words, octets = cached
        return (words[0, :batch], words[1, :batch], words[2, :batch],
                words[3, :batch].view(np.int64), octets[0, :batch],
                octets[1, :batch].view(bool))

    def swar_tables(self, n: int) -> Tuple[np.ndarray, np.ndarray, int, int]:
        """Packed-threshold tables for the SWAR batched kernel (n <= 14).

        Definition 1's update collapses to ``S(a) = min{t : c_t >= t+1}``
        where ``c_t`` counts neighbors with level below ``t`` (or ``n``
        when no threshold fails; ``t = 0`` can never fail).  The SWAR
        kernel keeps every counter ``c_1 .. c_{n-1}`` in its own field of
        one ``uint64`` per node, so a single add per dimension accumulates
        all thresholds at once.  Field ``t`` is
        ``w_t = 1 + ceil(log2(max(t+1, n-t)))`` bits wide, packed upward
        from bit 0, and starts at ``bias_t = 2**(w_t-1) - (t+1)``: its
        top bit then sets exactly when ``c_t >= t+1``, and since
        ``c_t <= n`` the field never exceeds ``n + bias_t < 2**w_t``, so
        no add carries into the next field.  The widths sum to at most
        63 bits up to ``n = 14`` (exactly 63 there; Q15 would need 69).
        Returned tables:

        * ``vlut[L]`` — the packed contribution of one neighbor at level
          ``L``: the low bit of field ``t`` set for every ``t > L``;
        * ``tlut[p]`` — maps ``popcount(O ^ (O - 1))`` of the overflow
          word ``O`` back to the lowest failing threshold: a lowest set
          bit ``k`` gives popcount ``k + 1``, at most 63; ``O == 0``
          wraps to all-ones (popcount 64), which maps to ``n`` for "no
          failure";
        * ``bias`` — every ``bias_t`` in its field;
        * ``over`` — the mask of all overflow (field top) bits.
        """
        cached = self._swar.get(n)
        if cached is None:
            if not 1 <= n <= _SWAR_MAX_DIMENSION:
                raise ValueError(
                    f"SWAR kernel supports 1 <= n <= {_SWAR_MAX_DIMENSION}")
            contrib = [0] * (n + 1)
            tlut = np.full(65, n, dtype=np.int64)
            bias = over = shift = 0
            for t in range(1, n):
                width = 1 + (max(t + 1, n - t) - 1).bit_length()
                top = shift + width - 1
                bias |= ((1 << (width - 1)) - (t + 1)) << shift
                over |= 1 << top
                tlut[top + 1] = t
                for level in range(t):
                    contrib[level] |= 1 << shift
                shift += width
            vlut = np.array(contrib, dtype=np.uint64)
            vlut.setflags(write=False)
            tlut.setflags(write=False)
            cached = (vlut, tlut, bias, over)
            self._swar[n] = cached
        return cached


#: Shared workspace for single-threaded callers (the default everywhere).
_DEFAULT_WORKSPACE = LevelsWorkspace()


def compute_levels_with_rounds(
    topo: Hypercube,
    faults: FaultSet,
    workspace: Optional[LevelsWorkspace] = None,
) -> Tuple[np.ndarray, int]:
    """Vectorized GS: final levels plus the stabilization round.

    :func:`relax_levels` from the all-``n`` start.  One sweep corresponds
    exactly to one synchronous GS round, so the count of change-bearing
    sweeps equals the distributed protocol's stabilization round
    (cross-checked in tests).  This is the per-trial kernel; whole
    Monte-Carlo cells should prefer :func:`compute_safety_levels_batch`,
    which runs every trial of a cell in one numpy computation.

    Returns an int64 vector of length ``2**n`` (faulty nodes hold 0) and
    the round.  ``workspace`` defaults to a module-level scratch cache so
    tight trial loops do not reallocate the ``(2**n, n)`` gather buffer
    every call.
    """
    n = topo.dimension
    levels = np.full(topo.num_nodes, n, dtype=np.int64)
    ws = workspace if workspace is not None else _DEFAULT_WORKSPACE
    rounds, _ = relax_levels(levels, faults.node_mask(topo.num_nodes),
                             ws.gather(1, topo.num_nodes, n)[0])
    # The monotone iteration provably needs at most n-1 sweeps to reach the
    # fixed point (Property 1 corollary); one extra confirms stability.
    if rounds > n:
        raise AssertionError(
            "safety-level iteration failed to stabilize within n+1 sweeps; "
            "this contradicts Property 1 and indicates a kernel bug"
        )
    return levels, rounds


def compute_safety_levels(
    topo: Hypercube,
    faults: FaultSet,
    workspace: Optional[LevelsWorkspace] = None,
) -> np.ndarray:
    """The unique safety-level assignment of a faulty binary n-cube.

    The levels of :func:`compute_levels_with_rounds`: an int64 vector of
    length ``2**n``; faulty nodes hold 0.

    Note: link faults are outside Definition 1 — use
    :mod:`repro.safety.link_faults` for cubes with faulty links.
    """
    if faults.effective_links():
        raise ValueError(
            "compute_safety_levels handles node faults only; use "
            "repro.safety.link_faults.compute_extended_levels for link faults"
        )
    return compute_levels_with_rounds(topo, faults, workspace)[0]


#: Byte size of one ``(block, 2**n)`` uint64 scratch array of the SWAR
#: kernel.  Each sweep streams two of them, so blocking by bytes rather
#: than rows keeps them cache-resident at every cube size (128 rows at
#: Q9, 16 at Q12, 4 at Q14) instead of streaming a 10k-trial batch
#: through memory.  On a 2-vCPU Xeon VM (2 MiB L2 per core) Q9-Q14
#: timings were flat from 256 KiB to 1 MiB and 10-20% slower at 128 KiB.
_SWAR_BLOCK_BYTES = 512 << 10

#: Trials per packed-kernel block: eight 64-trial words.
_PACKED_BLOCK_ROWS = 8 * 64

#: Largest cube that runs SWAR on every row.  Above it, whole 64-trial
#: words run packed and only the ``B mod 64`` leftover rows, for which
#: packed would sweep a full word, run SWAR.  On whole words neither
#: kernel wins throughout: at B=256 on Q9-Q14 (2-vCPU Xeon VM) SWAR took
#: 0.6-1.1x packed's time at 2% faults and 1.0-1.4x at 10%.
_SWAR_ONLY_MAX_DIMENSION = 9


@lru_cache(maxsize=None)
def _xor_rows(n: int) -> np.ndarray:
    """Read-only contiguous ``(n, 2**n)`` index rows: row ``j`` maps each
    node to its dimension-``j`` neighbor (``neighbor_table(n).T``)."""
    rows = np.ascontiguousarray(neighbor_table(n).T)
    rows.setflags(write=False)
    return rows


def _add_neighbors(total: np.ndarray, values: np.ndarray,
                   xor_rows: np.ndarray, scratch: np.ndarray) -> None:
    """``total[b, a] += values[b, a ^ 2**j]`` for every dimension ``j``.

    Each dimension is one gather along the rows into ``scratch`` and one
    contiguous add.  Adds over reversed cube axes would need no scratch,
    but numpy buffers every ufunc call whose operands do not share one
    stride order, allocating up to 8192 elements per call.
    """
    for rows in xor_rows:
        np.take(values, rows, axis=1, out=scratch, mode="clip")
        np.add(total, scratch, out=total)


def _batch_block_swar(
    n: int,
    masks: np.ndarray,
    ws: LevelsWorkspace,
    out: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Definition-1 fixed point for one block of fault masks, SWAR kernel.

    Works for ``n <= 14``.  One sweep packs every node's threshold
    counters ``c_1 .. c_{n-1}`` (#neighbors with level < t) into the
    fields of one uint64 laid out by :meth:`LevelsWorkspace.swar_tables`
    — the field sums are just ``n`` adds of the value table gathered
    along each dimension, since the dimension-``j`` neighbor of node
    ``a`` is ``a ^ 2**j``.  Adding the bias makes field ``t`` overflow
    into its top bit exactly when ``c_t >= t + 1``; the lowest set
    overflow bit *is* the new level (Definition 1 collapsed to
    ``S(a) = min{t : c_t >= t+1}``, else ``n``).  No sort, ~n ops per
    node per sweep, and no fixed cost per 64 trials: the cost scales
    with the rows in the block.

    The levels and rounds go into ``out`` — a ``(B, 2**n)`` int64 matrix
    and a ``(B,)`` int64 vector, allocated when omitted — which is
    returned.  Every other ``(B, 2**n)`` array is workspace scratch, and
    the level and popcount arrays are int64 so the table lookups index
    without a cast: with a warm workspace a call allocates nothing that
    grows with the block.  (``mode="clip"`` on the takes: the indices
    are in range, and the default ``"raise"`` copies ``out``.)
    """
    vlut, tlut, bias, over = ws.swar_tables(n)
    xor_rows = _xor_rows(n)
    batch, num_nodes = masks.shape
    if out is None:
        out = (np.empty((batch, num_nodes), dtype=np.int64),
               np.empty(batch, dtype=np.int64))
    levels, rounds = out
    packed, neighbors, summed, gathered, counts, flags = ws.swar_scratch(
        batch, num_nodes)
    # Sweep 1 collapses analytically: from the all-n start a neighbor
    # contributes to every threshold iff it is faulty, so each counter
    # c_t equals the faulty-neighbor count F and the swept level is 1
    # where F >= 2, else n.  Counting F is an 8-bit add per dimension —
    # a fraction of the packed sweep's traffic.
    counts.fill(0)
    _add_neighbors(counts, masks.view(np.uint8), xor_rows,
                   flags.view(np.uint8))
    dropped = np.greater_equal(counts, 2, out=flags)
    np.copyto(dropped, False, where=masks)
    levels.fill(n)
    np.copyto(levels, 0, where=masks)
    np.copyto(levels, 1, where=dropped)
    active = np.flatnonzero(dropped.any(axis=1))
    rounds.fill(0)
    rounds[active] = 1
    for sweep_no in range(2, n + 2):
        b = active.size
        if b == 0:
            break
        # While every row is still active, operate on the block arrays
        # directly instead of gathered copies of them.  The counts are
        # spent after sweep 1, so they hold the gathered fault masks.
        full = b == batch
        if full:
            sub_levels, sub_masks = levels, masks
        else:
            sub_levels = np.take(levels, active, axis=0, out=gathered[:b],
                                 mode="clip")
            sub_masks = np.take(masks, active, axis=0,
                                out=counts[:b].view(bool), mode="clip")
        value = np.take(vlut, sub_levels, out=packed[:b], mode="clip")
        # Seed the accumulator with the bias so it rides along the
        # neighbor adds instead of costing a separate pass.
        total = summed[:b]
        total.fill(bias)
        _add_neighbors(total, value, xor_rows, neighbors[:b])
        total &= over
        # total ^ (total - 1) sets bits 0 .. lowest-set-bit, so its
        # popcount maps through tlut to the level (total == 0 wraps to
        # all-ones, popcount 64 -> n).  The popcounts overwrite the spent
        # sums, and the new levels the spent values.
        np.subtract(total, np.uint64(1), out=value)
        np.bitwise_xor(value, total, out=value)
        popcounts = np.bitwise_count(value, out=total.view(np.int64))
        new_levels = np.take(tlut, popcounts, out=value.view(np.int64),
                             mode="clip")
        np.copyto(new_levels, 0, where=sub_masks)
        changed = np.not_equal(new_levels, sub_levels,
                               out=flags[:b]).any(axis=1)
        # Rows that did not change get their own levels back.
        if full:
            levels[...] = new_levels
            still = np.flatnonzero(changed)
        else:
            levels[active] = new_levels
            still = active[changed]
        rounds[still] = sweep_no
        active = still
    if active.size:
        raise AssertionError(
            "batched safety-level iteration failed to stabilize within n+1 "
            "sweeps; this contradicts Property 1 and indicates a kernel bug"
        )
    return levels, rounds


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
    kernel follows from the input alone.  The packed-bitset tier
    (:func:`repro.safety.packed.batch_block_packed`) costs the same per
    64-trial word however few of its 64 lanes are used, while the SWAR
    threshold-counting kernel (:func:`_batch_block_swar`) costs per row:

    * ``n <= 9`` runs SWAR on every row;
    * ``10 <= n <= 14`` runs packed on the whole 64-row words of the
      batch and SWAR on the ``B mod 64`` leftover rows;
    * ``n >= 15`` runs packed (the SWAR fields no longer fit a uint64).

    Returns the ``(B, 2**n)`` int64 level matrix; with ``return_rounds``
    also the ``(B,)`` per-trial stabilization round (the count of
    change-bearing synchronous sweeps — exactly what
    :func:`compute_levels_with_rounds` reports trial by trial,
    cross-checked in the test suite).
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
    # Rows [0, split) run packed, rows [split, batch) run SWAR.
    if n <= _SWAR_ONLY_MAX_DIMENSION:
        split = 0
    elif n <= _SWAR_MAX_DIMENSION:
        split = batch - batch % 64
    else:
        split = batch
    levels = np.empty((batch, num_nodes), dtype=np.int64)
    rounds = np.empty(batch, dtype=np.int64)
    for lo in range(0, split, _PACKED_BLOCK_ROWS):
        hi = min(lo + _PACKED_BLOCK_ROWS, split)
        levels[lo:hi], rounds[lo:hi] = batch_block_packed(n, masks[lo:hi])
    swar_rows = max(1, _SWAR_BLOCK_BYTES // (8 * num_nodes))
    for lo in range(split, batch, swar_rows):
        hi = min(lo + swar_rows, batch)
        _batch_block_swar(n, masks[lo:hi], ws,
                          out=(levels[lo:hi], rounds[lo:hi]))
    if split:
        record_gs_batch(n, split, "packed", rounds[:split])
    if split < batch:
        record_gs_batch(n, batch - split, "swar", rounds[split:])
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
