"""Batched unicast routing: the Section 3.2 algorithm over route matrices.

:func:`repro.routing.safety_unicast.route_unicast` walks one (source,
destination) pair at a time — fine for examples, but the sweep experiments
route tens of thousands of pairs per Monte-Carlo cell, and the Python
per-hop loop dominates their wall-clock.  This module evaluates the same
algorithm for whole ``(trials, pairs)`` matrices at once, on top of the
stacked level matrices that :func:`repro.safety.levels.
compute_safety_levels_batch` already produces:

* the C1/C2/C3 source conditions are computed for every route in a few
  vectorized gathers through the shared :func:`repro.core.hypercube.
  neighbor_table` XOR index matrix;
* preferred/spare "neighbor with the highest safety level" picks are
  masked argmax reductions whose first/last-maximum behaviour reproduces
  the ``lowest-dim``/``highest-dim`` tie-break policies exactly;
* the walk advances every in-flight route lock-step, one hop per
  iteration, with finished/stuck routes dropping out of the active set —
  at most ``n + 2`` iterations total, since C1/C2 paths have length
  ``H <= n`` and C3 paths length ``H + 2`` (Theorem 3 via Property 2).

The result is bit-identical to the scalar walk on every (fault mask,
source, destination): same status, same admitting condition, same hop
count, same node path.  The equivalence is enforced by the test suite and
re-asserted by ``benchmarks/bench_routing_throughput.py`` on every run.

``tie_break="random"`` draws from a single shared generator in an order
that vectorization cannot reproduce, so it runs the scalar reference
implementation instead (one :func:`_route_unicast` per route, in
row-major order — document draws stay with the scalar router).

:func:`route_with_table` is the routing service's entry point: the same
lock-step walk, reading each node's neighbor levels from one
precomputed :func:`pack_neighbor_levels` word per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from ..core import bits
from ..core.fault_models import RngLike, as_rng
from ..core.faults import FaultSet
from ..core.hypercube import Hypercube, neighbor_table
from ..obs.instruments import record_routing_batch
from ..safety.levels import SafetyLevels
from . import navigation as nav
from .result import RouteResult, RouteStatus, SourceCondition
from .safety_unicast import ROUTER_NAME, _route_unicast

__all__ = [
    "BatchFeasibility",
    "BatchRouteResult",
    "check_feasibility_batch",
    "pack_neighbor_levels",
    "route_unicast_batch",
    "route_with_table",
]

#: Packed neighbor words store one level per 4-bit nibble, so they
#: require ``n <= 15``; larger cubes gather through the neighbor table.
_PACKED_MAX_DIMENSION = 15

#: Integer codes used by the batch arrays (stable: tests and telemetry
#: consumers rely on the order).
_STATUS_BY_CODE: Tuple[RouteStatus, ...] = (
    RouteStatus.DELIVERED,
    RouteStatus.ABORTED_AT_SOURCE,
    RouteStatus.STUCK,
)
_DELIVERED, _ABORTED, _STUCK = 0, 1, 2
_PENDING = -1  # transient walk state; never visible in results

_CONDITION_BY_CODE: Tuple[SourceCondition, ...] = (
    SourceCondition.C1,
    SourceCondition.C2,
    SourceCondition.C3,
    SourceCondition.NONE,
)
_C1, _C2, _C3, _NONE = 0, 1, 2, 3

_ABORT_DETAIL = "C1, C2 and C3 all fail at the source"


@dataclass(frozen=True)
class BatchFeasibility:
    """Source-rule outcome for a ``(trials, pairs)`` route matrix.

    ``condition`` holds :data:`SourceCondition` codes (C1=0, C2=1, C3=2,
    none=3); ``first_dim`` the dimension of the source rule's first hop
    (-1 where infeasible or source == destination).
    """

    condition: np.ndarray
    first_dim: np.ndarray

    @property
    def feasible(self) -> np.ndarray:
        """Boolean matrix: some condition admitted the unicast."""
        return self.condition != _NONE

    def condition_of(self, trial: int, pair: int) -> SourceCondition:
        return _CONDITION_BY_CODE[int(self.condition[trial, pair])]


@dataclass(frozen=True)
class BatchRouteResult:
    """Outcomes of a ``(trials, pairs)`` batch of unicast attempts.

    Array views of what :class:`~repro.routing.result.RouteResult` holds
    per route; :meth:`result` / :meth:`iter_results` materialize exact
    scalar results (including detail strings) for auditing and tests.

    ``paths`` is the compressed path buffer: row-padded with -1, column
    ``k`` holding the ``k``-th node of the route, ``hops + 1`` valid
    entries per delivered/stuck route (aborted routes have none — the
    scalar router never injects the message).  Present only when the
    batch was routed with ``return_paths=True``.
    """

    topo: Hypercube
    tie_break: str
    kernel: str
    sources: np.ndarray       # (B, P) int64
    dests: np.ndarray         # (B, P) int64
    hamming: np.ndarray       # (B, P) int64
    status: np.ndarray        # (B, P) int8 status codes
    condition: np.ndarray     # (B, P) int8 condition codes
    first_dim: np.ndarray     # (B, P) int8, -1 = none
    hops: np.ndarray          # (B, P) int64 traversed links (0 if aborted)
    paths: Optional[np.ndarray] = None   # (B, P, n + 3) int32, -1 padded

    # -- shape ---------------------------------------------------------------

    @property
    def trials(self) -> int:
        return self.status.shape[0]

    @property
    def pairs(self) -> int:
        return self.status.shape[1]

    @property
    def routes(self) -> int:
        return self.status.size

    # -- derived masks and metrics ------------------------------------------

    @property
    def delivered(self) -> np.ndarray:
        return self.status == _DELIVERED

    @property
    def aborted(self) -> np.ndarray:
        return self.status == _ABORTED

    @property
    def stuck(self) -> np.ndarray:
        return self.status == _STUCK

    @property
    def detour(self) -> np.ndarray:
        """``hops - H`` where delivered, -1 elsewhere (scalar reports None)."""
        return np.where(self.delivered, self.hops - self.hamming, -1)

    @property
    def optimal(self) -> np.ndarray:
        return self.delivered & (self.hops == self.hamming)

    @property
    def suboptimal(self) -> np.ndarray:
        return self.delivered & (self.hops == self.hamming + 2)

    def status_counts(self) -> dict:
        """RouteStatus value -> route count (only statuses that occur)."""
        counts = np.bincount(self.status.ravel(),
                             minlength=len(_STATUS_BY_CODE))
        return {
            _STATUS_BY_CODE[code].value: int(c)
            for code, c in enumerate(counts) if c
        }

    def condition_counts(self) -> dict:
        """SourceCondition value -> route count (only conditions that occur)."""
        counts = np.bincount(self.condition.ravel(),
                             minlength=len(_CONDITION_BY_CODE))
        return {
            _CONDITION_BY_CODE[code].value: int(c)
            for code, c in enumerate(counts) if c
        }

    # -- scalar materialization ---------------------------------------------

    def path_of(self, trial: int, pair: int) -> List[int]:
        """The node path of one route (empty for aborted attempts)."""
        if int(self.status[trial, pair]) == _ABORTED:
            return []
        if self.paths is None:
            raise ValueError(
                "this batch was routed without return_paths=True; "
                "re-route with paths to materialize them"
            )
        end = int(self.hops[trial, pair]) + 1
        return self.paths[trial, pair, :end].tolist()

    def result(self, trial: int, pair: int) -> RouteResult:
        """The exact scalar :class:`RouteResult` of one route."""
        status = _STATUS_BY_CODE[int(self.status[trial, pair])]
        condition = _CONDITION_BY_CODE[int(self.condition[trial, pair])]
        detail = None
        path: List[int] = []
        if status is RouteStatus.ABORTED_AT_SOURCE:
            detail = _ABORT_DETAIL
        else:
            path = self.path_of(trial, pair)
            if status is RouteStatus.STUCK:
                detail = (
                    f"all preferred neighbors of "
                    f"{self.topo.format_node(path[-1])} are faulty"
                )
        return RouteResult(
            router=ROUTER_NAME,
            source=int(self.sources[trial, pair]),
            dest=int(self.dests[trial, pair]),
            hamming=int(self.hamming[trial, pair]),
            status=status,
            path=path,
            condition=condition,
            detail=detail,
        )

    def iter_results(self) -> Iterator[RouteResult]:
        """All routes as scalar results, row-major (trial 0 pair 0, ...)."""
        for t in range(self.trials):
            for p in range(self.pairs):
                yield self.result(t, p)


# -- input normalization -----------------------------------------------------


def _as_level_matrix(
    levels: Union[SafetyLevels, np.ndarray],
) -> Tuple[Optional[Hypercube], np.ndarray]:
    if isinstance(levels, SafetyLevels):
        return levels.topo, np.asarray(levels.levels)[None, :]
    arr = np.asarray(levels)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(
            f"levels must be a (2**n,) vector or (B, 2**n) matrix, "
            f"got shape {arr.shape}"
        )
    return None, arr


def _as_route_matrix(values, batch: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim == 0:
        arr = arr[None]
    if arr.ndim == 1:
        arr = np.broadcast_to(arr, (batch, arr.size))
    if arr.ndim != 2 or arr.shape[0] != batch:
        raise ValueError(
            f"{name} must broadcast to ({batch}, pairs), got shape "
            f"{np.asarray(values).shape}"
        )
    return arr


def _normalize_batch(
    topo: Hypercube,
    levels: Union[SafetyLevels, np.ndarray],
    sources, dests,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate shapes/ranges/liveness; returns (levels2d, src, dst)."""
    sl_topo, lv = _as_level_matrix(levels)
    if sl_topo is not None and sl_topo != topo:
        raise ValueError(f"levels were computed on {sl_topo}, not {topo}")
    if lv.shape[1] != topo.num_nodes:
        raise ValueError(
            f"levels have {lv.shape[1]} nodes per row; {topo} has "
            f"{topo.num_nodes}"
        )
    batch = lv.shape[0]
    src = _as_route_matrix(sources, batch, "sources")
    dst = _as_route_matrix(dests, batch, "dests")
    if src.shape != dst.shape:
        try:
            src, dst = np.broadcast_arrays(src, dst)
        except ValueError:
            raise ValueError(
                f"sources {src.shape} and dests {dst.shape} disagree"
            ) from None
        src = np.ascontiguousarray(src)
        dst = np.ascontiguousarray(dst)
    for name, arr in (("sources", src), ("dests", dst)):
        if arr.size and (arr.min() < 0 or arr.max() >= topo.num_nodes):
            raise ValueError(f"{name} contain addresses outside {topo}")
    # Level 0 <=> faulty (a nonfaulty node is always >= 1-safe), so the
    # level matrix itself carries the endpoint-liveness check the scalar
    # router performs against the FaultSet.
    rows = np.arange(batch)[:, None]
    for name, arr in (("source", src), ("destination", dst)):
        dead = lv[rows, arr] == 0
        if dead.any():
            t, p = np.argwhere(dead)[0]
            raise ValueError(
                f"{name} {topo.format_node(int(arr[t, p]))} is faulty "
                f"(trial {int(t)}, pair {int(p)})"
            )
    return lv, src, dst


# -- the packed neighbor-level encoding --------------------------------------


def _unpack_words(words: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """``(R,)`` packed words -> ``(R, n)`` int8 neighbor-level matrix."""
    return ((words[:, None] >> shifts) & 0xF).astype(np.int8)


def pack_neighbor_levels(levels: np.ndarray, n: int) -> np.ndarray:
    """One epoch's ``(2**n,)`` level vector -> packed neighbor words.

    The precompute-once half of the packed-word walk: node ``v``'s word
    holds neighbor ``j``'s level in nibble ``j``, so a route step reads a
    single int64 instead of gathering ``n`` levels.  The routing service
    publishes exactly this array (alongside the raw levels) into each
    epoch's shared-memory table, paying the ``n`` full-cube gathers once
    per *fault epoch* rather than once per batch call.  Requires
    ``n <= 15`` (levels ``<= n`` must fit a 4-bit nibble).
    """
    if n > _PACKED_MAX_DIMENSION:
        raise ValueError(
            f"packed neighbor words need n <= {_PACKED_MAX_DIMENSION} "
            f"(4-bit level nibbles), got n={n}"
        )
    lv = np.asarray(levels)
    if lv.ndim != 1 or lv.shape[0] != (1 << n):
        raise ValueError(
            f"levels must be one ({1 << n},) epoch vector, got {lv.shape}"
        )
    table = neighbor_table(n)
    words = np.zeros(lv.shape, dtype=np.int64)
    for j in range(n):
        words |= lv[table[:, j]].astype(np.int64) << (4 * j)
    return words


# -- the vectorized source rule ---------------------------------------------


def _masked_argmax(
    values: np.ndarray, mask: np.ndarray, tie_break: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row (dim, level) of the max *masked* entry, tie-broken.

    ``np.argmax`` returns the first maximal index, which is exactly the
    ``lowest-dim`` policy; ``highest-dim`` reduces over the reversed
    column order instead.  Rows whose mask is empty report level -1.
    """
    masked = np.where(mask, values, np.int8(-1))
    if tie_break == "lowest-dim":
        dims = np.argmax(masked, axis=1)
    elif tie_break == "highest-dim":
        dims = masked.shape[1] - 1 - np.argmax(masked[:, ::-1], axis=1)
    else:
        raise ValueError(
            f"vectorized kernel supports deterministic tie-breaks only, "
            f"got {tie_break!r}"
        )
    levels = np.take_along_axis(masked, dims[:, None], axis=1)[:, 0]
    return dims.astype(np.int64), levels


def _source_rule(
    lv_flat: np.ndarray,
    base: np.ndarray,
    table: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    n: int,
    tie_break: str,
    pn_flat: Optional[np.ndarray] = None,
    shifts: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat C1/C2/C3 evaluation; returns (h, condition, first_dim).

    With ``pn_flat``/``shifts`` the neighbor levels come from one packed
    word per source instead of ``n`` gathers (:func:`route_with_table`'s
    path); the decision logic is shared either way.
    """
    nvec = src ^ dst
    h = bits.popcount_array(nvec)
    own = lv_flat[base + src]
    if pn_flat is not None:
        nbr = _unpack_words(pn_flat[base + src], shifts)
    else:
        nbr = lv_flat[base[:, None] + table[src]]      # (R, n) levels
    pref = ((nvec[:, None] >> np.arange(n)) & 1).astype(bool)
    pdim, plev = _masked_argmax(nbr, pref, tie_break)
    sdim, slev = _masked_argmax(nbr, ~pref, tie_break)

    moving = h > 0
    c1 = moving & (own >= h)
    c2 = moving & ~c1 & (plev >= h - 1)
    c3 = moving & ~c1 & ~c2 & (slev >= h + 1)

    condition = np.full(h.shape, _NONE, dtype=np.int8)
    condition[~moving] = _C1          # source == dest: trivially C1
    condition[c1] = _C1
    condition[c2] = _C2
    condition[c3] = _C3

    first_dim = np.full(h.shape, -1, dtype=np.int8)
    optimal = c1 | c2
    first_dim[optimal] = pdim[optimal]
    first_dim[c3] = sdim[c3]
    return h, condition, first_dim


def check_feasibility_batch(
    topo: Hypercube,
    levels: Union[SafetyLevels, np.ndarray],
    sources, dests,
    tie_break: nav.TieBreak = "lowest-dim",
) -> BatchFeasibility:
    """The paper's C1/C2/C3 source tests for a whole route matrix.

    ``levels`` is a :class:`SafetyLevels`, a ``(2**n,)`` vector, or the
    ``(B, 2**n)`` matrix from :func:`compute_safety_levels_batch`;
    ``sources``/``dests`` broadcast to ``(B, pairs)``.  Per route the
    outcome equals scalar :func:`check_feasibility` under the same
    deterministic tie-break (``"random"`` is scalar-only — its draws
    belong to a caller-owned generator).
    """
    lv, src, dst = _normalize_batch(topo, levels, sources, dests)
    if tie_break == "random":
        raise ValueError(
            "check_feasibility_batch is deterministic; use scalar "
            "check_feasibility for the random tie-break policy"
        )
    n = topo.dimension
    batch, pairs = src.shape
    base = np.repeat(np.arange(batch, dtype=np.int64) * topo.num_nodes,
                     pairs)
    lv_flat = np.ascontiguousarray(lv, dtype=np.int8).reshape(-1)
    _h, condition, first_dim = _source_rule(
        lv_flat, base, neighbor_table(n), src.reshape(-1), dst.reshape(-1),
        n, tie_break,
    )
    return BatchFeasibility(condition=condition.reshape(batch, pairs),
                            first_dim=first_dim.reshape(batch, pairs))


# -- the batched walk --------------------------------------------------------


def _route_batch_vectorized(
    topo: Hypercube,
    lv: np.ndarray,
    src2d: np.ndarray,
    dst2d: np.ndarray,
    tie_break: str,
    return_paths: bool,
    pn_flat: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, ...]:
    n, num_nodes = topo.dimension, topo.num_nodes
    batch, pairs = src2d.shape
    routes = batch * pairs
    src = src2d.reshape(routes)
    dst = dst2d.reshape(routes)
    base = np.repeat(np.arange(batch, dtype=np.int64) * num_nodes, pairs)
    lv_flat = np.ascontiguousarray(lv, dtype=np.int8).reshape(-1)
    table = neighbor_table(n)
    dims_range = np.arange(n, dtype=np.int64)
    shifts = 4 * dims_range if pn_flat is not None else None

    h, condition, first_dim = _source_rule(
        lv_flat, base, table, src, dst, n, tie_break,
        pn_flat=pn_flat, shifts=shifts)

    status = np.full(routes, _PENDING, dtype=np.int8)
    status[h == 0] = _DELIVERED
    status[(h > 0) & (condition == _NONE)] = _ABORTED
    hops = np.zeros(routes, dtype=np.int64)
    paths = None
    if return_paths:
        paths = np.full((routes, n + 3), -1, dtype=np.int32)
        trivial = h == 0
        paths[trivial, 0] = src[trivial]

    # First hop: the source rule's pick.  Thereafter the intermediate
    # rule, every in-flight route advancing lock-step.
    nvec = src ^ dst
    cur = src.copy()
    active = np.flatnonzero(status == _PENDING)
    if active.size:
        step = np.int64(1) << first_dim[active].astype(np.int64)
        cur[active] = src[active] ^ step
        nvec[active] ^= step
        hops[active] = 1
        if paths is not None:
            paths[active, 0] = src[active]
            paths[active, 1] = cur[active]
        arrived = nvec[active] == 0
        status[active[arrived]] = _DELIVERED
        active = active[~arrived]

    # C1/C2 walks take H <= n hops, C3 walks H + 2 <= n + 1 (a spare
    # dimension only exists when H < n), so n + 2 iterations cover every
    # route; running dry earlier just breaks out.
    for _hop in range(2, n + 3):
        if active.size == 0:
            break
        a_cur = cur[active]
        a_nav = nvec[active]
        if pn_flat is not None:
            nbr = _unpack_words(pn_flat[base[active] + a_cur], shifts)
        else:
            nbr = lv_flat[base[active][:, None] + table[a_cur]]
        pref = ((a_nav[:, None] >> dims_range) & 1).astype(bool)
        dim, lev = _masked_argmax(nbr, pref, tie_break)
        step = np.int64(1) << dim
        nxt = a_cur ^ step
        # Defensive STUCK check, mirroring the scalar walk: impossible
        # when a source condition held (Theorem 3), kept so experiments
        # can probe beyond the guarantees.
        blocked = (lev == 0) & (nxt != dst[active])
        status[active[blocked]] = _STUCK
        moving = ~blocked
        rows = active[moving]
        cur[rows] = nxt[moving]
        nvec[rows] = a_nav[moving] ^ step[moving]
        hops[rows] += 1
        if paths is not None:
            paths[rows, hops[rows]] = nxt[moving]
        arrived = nvec[rows] == 0
        status[rows[arrived]] = _DELIVERED
        active = rows[~arrived]
    if active.size:
        raise AssertionError(
            "batched walk exceeded the n + 2 hop bound; this contradicts "
            "Theorem 3 and indicates a kernel bug"
        )

    shape = (batch, pairs)
    return (
        h.reshape(shape),
        status.reshape(shape),
        condition.reshape(shape),
        first_dim.reshape(shape),
        hops.reshape(shape),
        paths.reshape(batch, pairs, n + 3) if paths is not None else None,
    )


def _route_batch_scalar(
    topo: Hypercube,
    lv: np.ndarray,
    src2d: np.ndarray,
    dst2d: np.ndarray,
    tie_break: str,
    rng: RngLike,
    return_paths: bool,
) -> Tuple[np.ndarray, ...]:
    """Reference kernel: one scalar walk per route, row-major order.

    Used for ``tie_break="random"``: draws happen pair after pair from
    the shared generator, trial 0 pair 0 first.
    """
    n = topo.dimension
    batch, pairs = src2d.shape
    gen = as_rng(rng) if tie_break == "random" else None
    hamming = np.zeros((batch, pairs), dtype=np.int64)
    status = np.empty((batch, pairs), dtype=np.int8)
    condition = np.empty((batch, pairs), dtype=np.int8)
    first_dim = np.full((batch, pairs), -1, dtype=np.int8)
    hops = np.zeros((batch, pairs), dtype=np.int64)
    paths = np.full((batch, pairs, n + 3), -1, dtype=np.int32) \
        if return_paths else None
    status_code = {s: c for c, s in enumerate(_STATUS_BY_CODE)}
    condition_code = {s: c for c, s in enumerate(_CONDITION_BY_CODE)}
    for t in range(batch):
        row_levels = np.asarray(lv[t], dtype=np.int64)
        faults = FaultSet(nodes=frozenset(
            int(v) for v in np.flatnonzero(row_levels == 0)))
        sl = SafetyLevels(topo=topo, faults=faults, levels=row_levels)
        for p in range(pairs):
            res = _route_unicast(sl, int(src2d[t, p]), int(dst2d[t, p]),
                                 tie_break, gen)
            hamming[t, p] = res.hamming
            status[t, p] = status_code[res.status]
            condition[t, p] = condition_code[res.condition]
            hops[t, p] = res.hops
            if res.path and len(res.path) > 1:
                first_dim[t, p] = (res.path[0] ^ res.path[1]).bit_length() - 1
            if paths is not None and res.path:
                paths[t, p, :len(res.path)] = res.path
    return hamming, status, condition, first_dim, hops, paths


def route_unicast_batch(
    topo: Hypercube,
    levels: Union[SafetyLevels, np.ndarray],
    sources, dests,
    tie_break: nav.TieBreak = "lowest-dim",
    rng: RngLike = None,
    return_paths: bool = False,
) -> BatchRouteResult:
    """Route a whole ``(trials, pairs)`` matrix of safety-level unicasts.

    ``levels`` is a :class:`SafetyLevels` (one trial), a ``(2**n,)``
    vector, or the stacked ``(B, 2**n)`` matrix from
    :func:`~repro.safety.levels.compute_safety_levels_batch`; row ``b``
    must be the Definition-1 assignment of trial ``b``'s fault set.
    ``sources``/``dests`` are integers, ``(pairs,)`` vectors (shared by
    every trial) or ``(B, pairs)`` matrices.  Endpoints must be nonfaulty
    (level > 0), exactly like the scalar router.

    Every route's outcome is bit-identical to
    :func:`~repro.routing.safety_unicast.route_unicast` on the same
    (fault set, source, destination) — status, admitting condition, hop
    count, and (with ``return_paths=True``) the full node path.

    Deterministic tie-breaks run the vectorized walk;
    ``tie_break="random"`` runs the scalar reference so the shared
    ``rng`` draws pair by pair in row-major order.  One ``routing_batch``
    telemetry record covers the whole call — batch counters instead of
    per-attempt events.
    """
    lv, src, dst = _normalize_batch(topo, levels, sources, dests)
    if tie_break == "random":
        chosen = "scalar"
        hamming, status, condition, first_dim, hops, paths = \
            _route_batch_scalar(topo, lv, src, dst, tie_break, rng,
                                return_paths)
    else:
        chosen = "vectorized"
        hamming, status, condition, first_dim, hops, paths = \
            _route_batch_vectorized(topo, lv, src, dst, tie_break,
                                    return_paths)
    result = BatchRouteResult(
        topo=topo, tie_break=tie_break, kernel=chosen,
        sources=src, dests=dst, hamming=hamming, status=status,
        condition=condition, first_dim=first_dim, hops=hops, paths=paths,
    )
    record_routing_batch(result)
    return result


def route_with_table(
    topo: Hypercube,
    levels: np.ndarray,
    packed: Optional[np.ndarray],
    sources, dests,
    tie_break: nav.TieBreak = "lowest-dim",
    return_paths: bool = False,
) -> BatchRouteResult:
    """Route one epoch's request vector against a precomputed table.

    The routing service's hot path: ``levels`` is a single ``(2**n,)``
    epoch level vector and ``packed`` the matching
    :func:`pack_neighbor_levels` words (or ``None`` to gather through the
    neighbor table instead — the only option for ``n > 15``).  Semantics
    are exactly ``route_unicast_batch(topo, levels, sources, dests)``
    with the vectorized kernel — same statuses, conditions, hop counts,
    and paths, bit for bit — but the per-call neighbor packing is skipped
    because the table already carries it, which is what makes serving
    thousands of micro-batches per epoch off one table cheap.

    Endpoint liveness is validated like the batch entry point (a level-0
    endpoint raises) — service callers pre-filter those requests into
    rejections rather than letting one poison a whole batch.
    """
    lv, src, dst = _normalize_batch(topo, levels, sources, dests)
    if src.shape[0] != 1:
        raise ValueError(
            f"route_with_table serves one epoch at a time; got "
            f"{src.shape[0]} trial rows"
        )
    pn_flat = None
    if packed is not None:
        pn_flat = np.ascontiguousarray(packed, dtype=np.int64).reshape(-1)
        if pn_flat.shape[0] != topo.num_nodes:
            raise ValueError(
                f"packed words must be ({topo.num_nodes},), got "
                f"{np.asarray(packed).shape}"
            )
    hamming, status, condition, first_dim, hops, paths = \
        _route_batch_vectorized(topo, lv, src, dst, tie_break,
                                return_paths, pn_flat=pn_flat)
    result = BatchRouteResult(
        topo=topo, tie_break=tie_break, kernel="vectorized",
        sources=src, dests=dst, hamming=hamming, status=status,
        condition=condition, first_dim=first_dim, hops=hops, paths=paths,
    )
    record_routing_batch(result)
    return result
