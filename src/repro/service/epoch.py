"""Fault epochs: one read-only level table per epoch, swapped atomically.

An *epoch* is a maximal interval during which the fault set — and
therefore the Definition-1 level assignment — does not change (the
paper's state-change-driven maintenance, §2.2).  The
:class:`EpochManager` owns that assignment through an
:class:`~repro.safety.incremental.IncrementalLevelEngine` and turns every
fault event into the cheapest possible transition:

1. the event's delta re-stabilizes the engine *incrementally* (frontier
   waves over the perturbed neighborhood, not a cold recompute);
2. :func:`seal_epoch_table` copies the new levels into a read-only
   ``int8`` vector, the one table the routing kernel walks on, held by
   one :class:`EpochView`;
3. the manager's ``current`` reference flips to the new view — one
   attribute store, the only instant a reader can observe a swap.

A sealed table is never written again, so it needs no lock, pin or
version tag: a flush takes ``current`` once and routes every one of its
rows on that view, and the view lives for as long as something refers
to it.  A retired epoch's arrays go with the last flush that held them.
Every response carries the epoch tag of the view that served it.

Fault events serialize on an event lock (they mutate the engine).  The
service calls :meth:`EpochManager.apply_fault_event` inline on its event
loop's thread, between flushes: an incremental delta plus one seal costs
about as much as one kernel call.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ..core.faults import FaultSet
from ..core.hypercube import Hypercube
from ..obs.instruments import record
from ..safety.incremental import DeltaStats, IncrementalLevelEngine

__all__ = ["EpochView", "EpochSwap", "EpochManager", "seal_epoch_table"]


@dataclass(frozen=True)
class EpochView:
    """One published epoch: its fault set and its read-only level table.

    ``levels`` is a read-only int8 vector (level 0 <=> faulty).  The
    service reads it to refuse faulty endpoints before the kernel; the
    kernel gathers each step's neighbor levels straight from it.
    """

    epoch: int
    n: int
    faults: FaultSet
    levels: np.ndarray


def seal_epoch_table(epoch: int, n: int, levels: np.ndarray,
                     faults: FaultSet) -> EpochView:
    """Freeze one epoch's table: a private read-only int8 copy of
    ``levels``.  Epochs start at 1."""
    if epoch < 1:
        raise ValueError(f"epochs start at 1, got {epoch}")
    lv = np.array(levels, dtype=np.int8)
    lv.setflags(write=False)
    return EpochView(epoch=epoch, n=n, faults=faults, levels=lv)


@dataclass(frozen=True)
class EpochSwap:
    """What one fault event cost: the engine delta plus publish latency.

    ``publish_us`` covers re-stabilization plus sealing the table;
    ``flip_us`` is the swap of the ``current`` reference.  ``spare`` is
    always True: it keeps the FAULT reply's wire layout and the
    ``epoch_swap`` event's fields unchanged.
    """

    epoch: int
    stats: DeltaStats
    publish_us: int
    flip_us: int = 0
    spare: bool = True


class EpochManager:
    """Owns the epoch sequence: the engine, the current view, the swap."""

    def __init__(self, topo: Hypercube,
                 faults: Optional[FaultSet] = None) -> None:
        self.topo = topo
        self._engine = IncrementalLevelEngine(topo, faults)
        #: Serializes fault events (they mutate the engine).
        self._event_lock = threading.Lock()
        self._closed = False
        self._current = self._seal(epoch=1)

    @property
    def current(self) -> EpochView:
        """The serving epoch (atomic read; no lock)."""
        return self._current

    @property
    def engine(self) -> IncrementalLevelEngine:
        return self._engine

    def _seal(self, epoch: int) -> EpochView:
        return seal_epoch_table(epoch, self.topo.dimension,
                                self._engine.levels, self._engine.faults)

    def apply_fault_event(
        self, add: Iterable[int] = (), remove: Iterable[int] = ()
    ) -> EpochSwap:
        """One fault event -> incremental re-stabilize -> seal -> flip.

        Returns after the flip: every flush that starts from now on
        routes against the new epoch, while one already holding the old
        view (a sliced flush between slices) finishes on it.
        """
        start = time.perf_counter()
        with self._event_lock:
            if self._closed:
                raise RuntimeError("epoch manager is closed")
            stats = self._engine.apply_delta(add=add, remove=remove)
            view = self._seal(self._current.epoch + 1)
            publish_us = int((time.perf_counter() - start) * 1e6)
            flip_start = time.perf_counter()
            self._current = view
            flip_us = int((time.perf_counter() - flip_start) * 1e6)
        record(
            "epoch_swap", n=self.topo.dimension, epoch=view.epoch,
            added=stats.added, removed=stats.removed,
            faults=len(view.faults.nodes), publish_us=publish_us,
            fallback=stats.fallback, spare=True, flip_us=flip_us,
        )
        return EpochSwap(epoch=view.epoch, stats=stats,
                         publish_us=publish_us, flip_us=flip_us)

    def set_faults(self, faults: FaultSet) -> EpochSwap:
        """Absolute-fault-set variant of :meth:`apply_fault_event`."""
        cur = set(self._engine.faults.nodes)
        new = {v for v in faults.nodes if v < self.topo.num_nodes}
        return self.apply_fault_event(add=new - cur, remove=cur - new)

    def close(self) -> None:
        """Refuse further fault events (idempotent).  The current view
        stays readable for whoever still holds it."""
        self._closed = True

    def __enter__(self) -> "EpochManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
