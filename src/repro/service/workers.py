"""Kernel-side routing: attach the epoch's shared table, run the kernel.

This module is the *entire* code a kernel call runs, inline in the
service's flush on the event loop's thread — deliberately flat,
following the block-level-autonomy principle: the service hands
:func:`route_task` a fully-specified plan (segment name, expected
epoch, request vectors) and it needs no further coordination to
execute it.  It never sees the epoch manager, the
batcher, or the engine; its only shared state is the read-only epoch
table, reached through :func:`repro.service.shm.attach_epoch_table` by
segment name and cached per process.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Tuple

import numpy as np

from ..core.hypercube import Hypercube
from ..routing.batch import route_with_table
from .shm import EpochTable, attach_epoch_table

__all__ = ["route_task", "clear_table_cache"]

#: Attached tables kept per process.  A single service needs two in
#: steady state (the serving epoch plus the one draining), but the cache
#: is process-wide: every tenant of a shard router contributes its own
#: segment pair, so the capacity must cover tenants x 2 or a
#: multi-tenant soak thrashes on attach/evict instead of hitting.
#: Mappings are cheap (no copies).
_CACHE_CAPACITY = 16

_TABLES: "OrderedDict[str, EpochTable]" = OrderedDict()

#: One service runs route_task and its shutdown paths (terminate,
#: clear_table_cache) on its loop's thread, so a kernel call's views of
#: a table are gone before any close; the lock covers services running
#: on event loops in other threads of the same process.
_TABLES_LOCK = threading.Lock()


def _attach_cached(segment: str, epoch: int) -> EpochTable:
    with _TABLES_LOCK:
        table = _TABLES.get(segment)
        if table is not None and table.epoch == epoch:
            return table
        if table is not None:
            # Segments are ring-recycled: the warm-spare publisher reseals
            # a retired segment under a new epoch, so a name hit with an
            # epoch miss means our mapping is stale, not torn — re-attach.
            _TABLES.pop(segment)
            table.close()
    # Attach outside the lock (it may retry/sleep on a mid-seal segment);
    # a racing attach of the same segment just wastes one mapping.
    table = attach_epoch_table(segment, expect_epoch=epoch)
    with _TABLES_LOCK:
        _TABLES[segment] = table
        while len(_TABLES) > _CACHE_CAPACITY:
            _, old = _TABLES.popitem(last=False)
            old.close()
    return table


def route_task(
    segment: str,
    epoch: int,
    n: int,
    sources: np.ndarray,
    dests: np.ndarray,
    tie_break: str = "lowest-dim",
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Route one micro-batch against one epoch's shared table.

    Returns ``(epoch, status, condition, hops, hamming)`` flat arrays in
    request order.  The epoch check happens twice: at attach (the seqlock
    verification) and here against the coordinator's expectation, so a
    response tagged ``epoch`` is *guaranteed* to have been computed from
    that epoch's sealed table — the no-torn-reads contract.
    """
    table = _attach_cached(segment, epoch)
    if table.epoch != epoch or table.n != n:
        raise RuntimeError(
            f"table mismatch on {segment!r}: have epoch {table.epoch} "
            f"n={table.n}, batch wants epoch {epoch} n={n}"
        )
    res = route_with_table(
        Hypercube(n), table.levels, table.packed,
        np.asarray(sources, dtype=np.int64)[None, :],
        np.asarray(dests, dtype=np.int64)[None, :],
        tie_break=tie_break,
    )
    return (
        epoch,
        res.status.reshape(-1).copy(),
        res.condition.reshape(-1).copy(),
        res.hops.reshape(-1).copy(),
        res.hamming.reshape(-1).copy(),
    )


def clear_table_cache(prefix: str) -> None:
    """Close and forget the cached attachments of every segment whose
    name starts with ``prefix``."""
    with _TABLES_LOCK:
        for name in [name for name in _TABLES if name.startswith(prefix)]:
            _TABLES.pop(name).close()
