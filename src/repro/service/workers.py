"""Kernel-side routing: check the epoch's table, run the kernel.

This module is the *entire* code a kernel call runs, inline in the
service's flush on the event loop's thread — deliberately flat,
following the block-level-autonomy principle: the service hands
:func:`route_task` a fully-specified plan (the epoch's sealed
:class:`~repro.service.epoch.EpochView`, the epoch and dimension it
expects, the request vectors) and it needs no further coordination to
execute it.  It never sees the epoch manager, the batcher, or the
engine; its only shared state is the read-only table it is handed.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.hypercube import Hypercube
from ..routing.batch import route_with_table
from .epoch import EpochView

__all__ = ["TornTableError", "attach_epoch_table", "route_task"]


class TornTableError(RuntimeError):
    """A kernel call was handed a table of another epoch or dimension."""


def attach_epoch_table(
    view: EpochView, expect_epoch: int, n: int
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(levels, packed)`` of ``view``, once it is checked to be the
    table of epoch ``expect_epoch`` on a Q``n``."""
    if view.epoch != expect_epoch or view.n != n:
        raise TornTableError(
            f"table mismatch: have epoch {view.epoch} n={view.n}, "
            f"batch wants epoch {expect_epoch} n={n}")
    return view.levels, view.packed


def route_task(
    table: EpochView,
    epoch: int,
    n: int,
    sources: np.ndarray,
    dests: np.ndarray,
    tie_break: str = "lowest-dim",
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Route one micro-batch against one epoch's sealed table.

    Returns ``(epoch, status, condition, hops, hamming)``: flat views of
    the kernel's result columns, in request order.  The table is checked
    against the coordinator's expected epoch first, so a response tagged
    ``epoch`` is *guaranteed* to have been computed from that epoch's
    table — the no-torn-reads contract.
    """
    levels, packed = attach_epoch_table(table, epoch, n)
    res = route_with_table(
        Hypercube(n), levels, packed,
        np.asarray(sources, dtype=np.int64)[None, :],
        np.asarray(dests, dtype=np.int64)[None, :],
        tie_break=tie_break,
    )
    return (
        epoch,
        res.status.reshape(-1),
        res.condition.reshape(-1),
        res.hops.reshape(-1),
        res.hamming.reshape(-1),
    )
