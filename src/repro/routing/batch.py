"""Batched unicast routing: the Section 3.2 algorithm over route matrices.

:func:`repro.routing.safety_unicast.route_unicast` walks one (source,
destination) pair at a time — fine for examples, but the sweep experiments
route tens of thousands of pairs per Monte-Carlo cell, and the Python
per-hop loop dominates their wall-clock.  This module evaluates the same
algorithm for whole ``(trials, pairs)`` matrices at once, on top of the
stacked level matrices that :func:`repro.safety.levels.
compute_safety_levels_batch` already produces:

* every step reads a node's ``n`` neighbor levels with one gather,
  ``levels[(row + node) ^ (1 << dims)]``, straight off the level matrix
  (rows start at multiples of ``2**n``, so the XOR stays in the row);
* preferred/spare "neighbor with the highest safety level" picks are one
  integer max over keys ``level << 5 | code``, where the dimension code
  orders ties exactly as the ``lowest-dim``/``highest-dim`` policies do;
* the walk advances every in-flight route lock-step, one hop per
  iteration, with finished/stuck routes dropping out of the active set —
  at most ``n + 2`` iterations total, since C1/C2 paths have length
  ``H <= n`` and C3 paths length ``H + 2`` (Theorem 3 via Property 2).

The result is bit-identical to the scalar walk on every (fault mask,
source, destination): same status, same admitting condition, same hop
count, same node path.  The equivalence is enforced by the test suite and
re-asserted by ``benchmarks/bench_routing_throughput.py`` on every run.

Only the deterministic tie-breaks batch: ``tie_break="random"`` draws
from a caller-owned generator, route by route, so it stays with scalar
:func:`~repro.routing.safety_unicast.route_unicast`.

:func:`route_with_table` is the routing service's entry point: the same
walk over one epoch's sealed level vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from ..core import bits
from ..core.hypercube import Hypercube
from ..obs.instruments import record_routing_batch
from ..safety.levels import SafetyLevels
from . import navigation as nav
from .result import RouteResult, RouteStatus, SourceCondition
from .safety_unicast import ROUTER_NAME

__all__ = [
    "BatchRouteResult",
    "route_unicast_batch",
    "route_with_table",
]

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


# -- the neighbor pick ------------------------------------------------------

#: Pick keys hold a neighbor's level above a 5-bit dimension code, so one
#: integer max picks the highest level and breaks ties by dimension; 5
#: bits cover every dimension up to ``bits.MAX_DIMENSION``.
_CODE_BITS = 5
_CODE_MASK = (1 << _CODE_BITS) - 1

#: code = dim ^ flip: ``lowest-dim`` reverses the dimension order so the
#: max lands on the lowest maximal dimension, ``highest-dim`` keeps it.
_CODE_FLIP = {"lowest-dim": _CODE_MASK, "highest-dim": 0}


def _code_flip(tie_break: str) -> int:
    try:
        return _CODE_FLIP[tie_break]
    except KeyError:
        raise ValueError(
            f"the batched walk takes tie_break 'lowest-dim' or "
            f"'highest-dim', got {tie_break!r}; route 'random' ties with "
            f"scalar route_unicast, whose draws come from a caller-owned "
            f"generator"
        ) from None


def _neighbor_keys(
    lv_flat: np.ndarray, at: np.ndarray, steps: np.ndarray, code: np.ndarray
) -> np.ndarray:
    """``(R, n)`` pick keys ``level << 5 | code`` of the neighbors of the
    flat nodes ``at`` (trial row offset plus node).  Row offsets are
    multiples of ``2**n``, so flipping a dimension bit stays in the row."""
    nbr = lv_flat[at[:, None] ^ steps].astype(np.int16)
    return (nbr << _CODE_BITS) | code


def _pick(
    keys: np.ndarray, allowed: np.ndarray, flip: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per row: (dim, level) of the highest-level *allowed* neighbor,
    tie-broken by the key's dimension code.  Rows with nothing allowed
    report level -1."""
    best = np.where(allowed, keys, np.int16(-1)).max(axis=1)
    return ((best & _CODE_MASK) ^ flip).astype(np.int64), best >> _CODE_BITS


# -- the vectorized source rule ---------------------------------------------


def _source_rule(
    lv_flat: np.ndarray,
    base: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    steps: np.ndarray,
    code: np.ndarray,
    flip: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat C1/C2/C3 evaluation; returns (h, condition, first_dim)."""
    nvec = src ^ dst
    h = bits.popcount_array(nvec)
    own = lv_flat[base + src]
    keys = _neighbor_keys(lv_flat, base + src, steps, code)
    pref = (nvec[:, None] & steps) != 0
    pdim, plev = _pick(keys, pref, flip)
    sdim, slev = _pick(keys, ~pref, flip)

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


# -- the batched walk --------------------------------------------------------


def _route_batch_vectorized(
    topo: Hypercube,
    lv: np.ndarray,
    src2d: np.ndarray,
    dst2d: np.ndarray,
    tie_break: str,
    return_paths: bool,
) -> Tuple[np.ndarray, ...]:
    flip = _code_flip(tie_break)
    n, num_nodes = topo.dimension, topo.num_nodes
    batch, pairs = src2d.shape
    routes = batch * pairs
    src = src2d.reshape(routes)
    dst = dst2d.reshape(routes)
    base = np.repeat(np.arange(batch, dtype=np.int64) * num_nodes, pairs)
    lv_flat = np.ascontiguousarray(lv, dtype=np.int8).reshape(-1)
    dims = np.arange(n, dtype=np.int64)
    steps = np.int64(1) << dims
    code = (dims ^ flip).astype(np.int16)

    h, condition, first_dim = _source_rule(
        lv_flat, base, src, dst, steps, code, flip)

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
        keys = _neighbor_keys(lv_flat, base[active] + a_cur, steps, code)
        dim, lev = _pick(keys, (a_nav[:, None] & steps) != 0, flip)
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


def _batch_result(
    topo: Hypercube,
    lv: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    tie_break: str,
    return_paths: bool,
) -> BatchRouteResult:
    hamming, status, condition, first_dim, hops, paths = \
        _route_batch_vectorized(topo, lv, src, dst, tie_break, return_paths)
    result = BatchRouteResult(
        topo=topo, tie_break=tie_break, kernel="vectorized",
        sources=src, dests=dst, hamming=hamming, status=status,
        condition=condition, first_dim=first_dim, hops=hops, paths=paths,
    )
    record_routing_batch(result)
    return result


def route_unicast_batch(
    topo: Hypercube,
    levels: Union[SafetyLevels, np.ndarray],
    sources, dests,
    tie_break: nav.TieBreak = "lowest-dim",
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
    (fault set, source, destination) — status, admitting condition,
    first hop, hop count, and (with ``return_paths=True``) the full node
    path.  The result's ``condition``/``first_dim`` columns are the
    source rule's outcome, what scalar
    :func:`~repro.routing.safety_unicast.check_feasibility` reports.

    The tie-break must be deterministic (``lowest-dim`` or
    ``highest-dim``): ``tie_break="random"`` raises ``ValueError``, since
    its draws belong to the generator of scalar ``route_unicast``.  One
    ``routing_batch`` telemetry record covers the whole call — batch
    counters instead of per-attempt events.
    """
    lv, src, dst = _normalize_batch(topo, levels, sources, dests)
    return _batch_result(topo, lv, src, dst, tie_break, return_paths)


def route_with_table(
    topo: Hypercube,
    levels: np.ndarray,
    sources, dests,
    tie_break: nav.TieBreak = "lowest-dim",
    return_paths: bool = False,
) -> BatchRouteResult:
    """Route one epoch's request vector against its level table.

    The routing service's hot path: ``levels`` is a single ``(2**n,)``
    epoch level vector (the sealed table of
    :func:`repro.service.epoch.seal_epoch_table`).  Semantics are exactly
    ``route_unicast_batch(topo, levels, sources, dests)`` — same
    statuses, conditions, hop counts, and paths, bit for bit, on the same
    walk — restricted to one trial row.

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
    return _batch_result(topo, lv, src, dst, tie_break, return_paths)
