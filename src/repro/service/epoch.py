"""Fault-epoch lifecycle: one stabilized level table per epoch, swapped atomically.

An *epoch* is a maximal interval during which the fault set — and
therefore the Definition-1 level assignment — does not change.  The
:class:`EpochManager` owns that assignment through an
:class:`~repro.safety.incremental.IncrementalLevelEngine` and turns every
fault event into the cheapest possible transition:

1. the event's delta re-stabilizes the engine *incrementally* (frontier
   waves over the perturbed neighborhood, not a cold recompute);
2. the new table — raw levels plus the packed neighbor words the routing
   kernel walks on — is sealed into a **warm-spare** shared-memory
   segment taken from a pre-created ring
   (:func:`repro.service.shm.seal_epoch_table`), entirely *off* the
   request path: no lock the request path touches is held while the
   engine re-stabilizes or the table is written;
3. the manager's ``current`` reference flips to the new epoch under the
   pin lock — a pointer bump plus two dict writes, nanoseconds — which is
   the *only* instant the request path can contend with a swap.

**The warm-spare ring.**  Segment creation and unlinking are syscalls
with unpredictable latency, so the manager never does either on the swap
path in steady state.  At startup it pre-creates ``spares`` unsealed
segments; a swap reseals one of them (``spare_hits``), and a retired
epoch's segment — once its in-flight pin count drains — has its seal
cleared and returns to the ring instead of being unlinked.  Back-to-back
churn that outruns the drain falls back to creating an overflow segment
(``spare_misses``) rather than blocking, and the ring stays bounded: a
returning segment beyond the configured spare count is unlinked.

Batches dispatched before a flip keep routing against the old epoch's
segment, which stays sealed (and therefore consistent) until every
in-flight batch pinned to it completes — the pin/unpin refcount below is
what lets the manager reseal or unlink retired segments without ever
yanking a table out from under a worker.  Readers can always tell which
table served them: every response carries the epoch tag.

The manager is thread-safe: fault events serialize on an event lock
(they mutate the engine), pins and the ``current`` flip on a separate
pin lock the request path takes only for dict-sized critical sections.
The service calls :meth:`apply_fault_event` inline on its event loop's
thread, between flushes: an incremental delta plus one reseal costs
about as much as one kernel call.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Optional, Set, Tuple

import numpy as np

from ..core.faults import FaultSet
from ..core.hypercube import Hypercube
from ..obs.instruments import record_epoch_swap
from ..routing.batch import _PACKED_MAX_DIMENSION, pack_neighbor_levels
from ..safety.incremental import DeltaStats, IncrementalLevelEngine
from .shm import clear_seal, create_unsealed_segment, seal_epoch_table, \
    unlink_segment

__all__ = ["EpochView", "EpochSwap", "EpochManager"]

#: Default warm-spare ring size: serving + draining epochs are covered by
#: their own segments, two spares absorb back-to-back churn.
DEFAULT_SPARES = 2


@dataclass(frozen=True)
class EpochView:
    """An immutable handle to one published epoch.

    ``levels``/``packed`` are the publisher's own arrays (not the shm
    views); the service reads ``levels`` to refuse faulty endpoints
    before the kernel.  The kernel call itself attaches ``segment`` by
    name and routes off its byte-identical content (the publish path
    wrote one from the other).
    """

    epoch: int
    segment: str
    n: int
    faults: FaultSet
    levels: np.ndarray
    packed: Optional[np.ndarray]


@dataclass(frozen=True)
class EpochSwap:
    """What one fault event cost: the engine delta plus publish latency.

    ``publish_us`` covers re-stabilization plus sealing the table into
    its segment (all off the request path); ``flip_us`` is the only part
    the request path can observe — the pointer bump under the pin lock.
    ``spare`` says whether the table landed in a pre-created warm spare
    (the zero-allocation steady state) or an overflow segment.
    """

    epoch: int
    stats: DeltaStats
    publish_us: int
    flip_us: int = 0
    spare: bool = True


class EpochManager:
    """Owns the epoch sequence: engine, published segments, and the swap.

    ``name_token`` namespaces the shared-memory segments
    (``repro_svc_<token>_r<k>``) so concurrent services never collide; by
    default a fresh random token per manager.  ``spares`` sizes the
    warm-spare ring (see the module docstring).
    """

    def __init__(
        self,
        topo: Hypercube,
        faults: Optional[FaultSet] = None,
        name_token: Optional[str] = None,
        spares: int = DEFAULT_SPARES,
    ) -> None:
        if spares < 0:
            raise ValueError(f"spares must be >= 0, got {spares}")
        self.topo = topo
        self.token = name_token if name_token is not None \
            else os.urandom(6).hex()
        self.max_spares = spares
        self._engine = IncrementalLevelEngine(topo, faults)
        #: Pin lock: guards pins, the current flip, segment maps, and the
        #: spare ring.  Critical sections are dict-sized — never held
        #: across a re-stabilization or a table write.
        self._lock = threading.Lock()
        #: Event lock: serializes fault events (they mutate the engine).
        self._event_lock = threading.Lock()
        self._segments: Dict[int, object] = {}   # epoch -> SharedMemory
        self._ring_segments: Set[str] = set()    # names born in the ring
        self._spares: Deque[object] = deque()    # unsealed SharedMemory
        self._next_segment_id = 0
        self._pins: Dict[int, int] = {}
        self._retired: Set[int] = set()
        self._closed = False
        #: Warm-spare accounting, manager lifetime totals.
        self.spare_hits = 0
        self.spare_misses = 0
        for _ in range(spares):
            self._spares.append(self._new_segment())
        view, shm, _spare = self._seal_next(epoch=1)
        self._segments[1] = shm
        self._pins[1] = 0
        self._current = view
        # Last-resort leak guard: normal interpreter exit (including the
        # SIGTERM handler's sys.exit) unlinks whatever is still published
        # even if the owner forgot to close.
        self._atexit_cb = self.close
        atexit.register(self._atexit_cb)

    # -- naming & state ------------------------------------------------------

    @property
    def segment_prefix(self) -> str:
        """The name prefix every segment of this manager carries."""
        return f"repro_svc_{self.token}_r"

    def _new_segment(self):
        name = f"{self.segment_prefix}{self._next_segment_id}"
        self._next_segment_id += 1
        shm = create_unsealed_segment(name, self.topo.num_nodes)
        self._ring_segments.add(name)
        return shm

    @property
    def current(self) -> EpochView:
        """The serving epoch (atomic read; no lock)."""
        return self._current

    @property
    def engine(self) -> IncrementalLevelEngine:
        return self._engine

    def live_segments(self) -> Dict[int, str]:
        """epoch -> segment name for every epoch still holding a segment."""
        with self._lock:
            return {e: shm.name for e, shm in self._segments.items()}

    def segment_name(self, epoch: int) -> str:
        """The segment currently holding ``epoch``'s table.

        Only *live* epochs (serving, or retired-but-pinned) have one —
        segments are ring-recycled, so a drained epoch's name belongs to
        whatever epoch reseals that spare next.
        """
        with self._lock:
            shm = self._segments.get(epoch)
            if shm is None:
                raise KeyError(
                    f"epoch {epoch} holds no segment (recycled or unknown)")
            return shm.name

    def spare_count(self) -> int:
        """Unsealed segments currently waiting in the warm-spare ring."""
        with self._lock:
            return len(self._spares)

    # -- publish / swap ------------------------------------------------------

    def _seal_next(self, epoch: int) -> Tuple[EpochView, object, bool]:
        """Seal the engine's current table into a segment (no pin lock).

        Takes a warm spare when one is ready, otherwise creates an
        overflow segment — churn never blocks on a drain.  Returns the
        view, the sealed handle, and whether a spare was hit.
        """
        levels = np.asarray(self._engine.levels, dtype=np.int8).copy()
        n = self.topo.dimension
        packed = pack_neighbor_levels(levels, n) \
            if n <= _PACKED_MAX_DIMENSION else None
        faults = self._engine.faults
        with self._lock:
            shm = self._spares.popleft() if self._spares else None
        spare = shm is not None
        if spare:
            self.spare_hits += 1
        else:
            self.spare_misses += 1
            with self._lock:
                shm = self._new_segment()
        seal_epoch_table(shm, epoch, n, levels, packed,
                         faults=len(faults.nodes))
        view = EpochView(epoch=epoch, segment=shm.name, n=n, faults=faults,
                         levels=levels, packed=packed)
        return view, shm, spare

    def apply_fault_event(
        self, add: Iterable[int] = (), remove: Iterable[int] = ()
    ) -> EpochSwap:
        """One fault event -> incremental re-stabilize -> seal -> flip.

        Returns after the flip: every batch flushed from now on routes
        against the new epoch, while batches already pinned to the old
        one finish undisturbed on its (still-sealed) segment.  The old
        epoch is retired — its segment returns to the warm-spare ring
        (or is unlinked, ring full) as soon as its pin count drains.
        """
        start = time.perf_counter()
        with self._event_lock:
            if self._closed:
                raise RuntimeError("epoch manager is closed")
            old = self._current
            stats = self._engine.apply_delta(add=add, remove=remove)
            epoch = old.epoch + 1
            view, shm, spare = self._seal_next(epoch)
            publish_us = int((time.perf_counter() - start) * 1e6)
            flip_start = time.perf_counter()
            with self._lock:
                if self._closed:
                    shm.close()
                    unlink_segment(shm)
                    raise RuntimeError("epoch manager is closed")
                self._segments[epoch] = shm
                self._pins.setdefault(epoch, 0)
                self._current = view
                self._retired.add(old.epoch)
                self._maybe_retire(old.epoch)
            flip_us = int((time.perf_counter() - flip_start) * 1e6)
        record_epoch_swap(
            n=self.topo.dimension, epoch=epoch, added=stats.added,
            removed=stats.removed, faults=len(view.faults.nodes),
            publish_us=publish_us, fallback=stats.fallback,
            spare=spare, flip_us=flip_us,
        )
        return EpochSwap(epoch=epoch, stats=stats, publish_us=publish_us,
                         flip_us=flip_us, spare=spare)

    def set_faults(self, faults: FaultSet) -> EpochSwap:
        """Absolute-fault-set variant of :meth:`apply_fault_event`."""
        cur = set(self._engine.faults.nodes)
        new = {v for v in faults.nodes if v < self.topo.num_nodes}
        return self.apply_fault_event(add=new - cur, remove=cur - new)

    # -- pinning (in-flight batch refcounts) ---------------------------------

    def acquire(self) -> EpochView:
        """The serving epoch, pinned, in one atomic step.

        Reading ``current`` and then pinning separately would race a
        concurrent flip (read epoch ``e``, flip retires-and-recycles
        ``e``, pin fails); taking both under the lock means an acquired
        view's segment is guaranteed sealed until the matching
        :meth:`unpin`.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("epoch manager is closed")
            view = self._current
            self._pins[view.epoch] += 1
            return view

    def pin(self, epoch: int) -> None:
        """Mark one in-flight batch routing against ``epoch``."""
        with self._lock:
            if epoch not in self._pins:
                raise RuntimeError(f"epoch {epoch} is gone; cannot pin")
            self._pins[epoch] += 1

    def unpin(self, epoch: int) -> None:
        """Drop one in-flight batch; may recycle a retired epoch's segment.

        Tolerant after :meth:`close`: shutdown already tore every segment
        down unconditionally, so a straggling reader's unpin is a no-op
        rather than an error — the exception path of a crashed reader
        must never be able to corrupt (or resurrect) the refcounts.
        """
        with self._lock:
            if self._closed or epoch not in self._pins:
                return
            if self._pins[epoch] > 0:  # clamp: stray double unpins must
                self._pins[epoch] -= 1  # not skew the retirement gate
            self._maybe_retire(epoch)

    def _maybe_retire(self, epoch: int) -> None:
        """Recycle ``epoch``'s segment once retired and pin-free (lock held).

        The segment returns to the warm-spare ring with its seal cleared
        when the ring has room; past ``max_spares`` it is unlinked — the
        ring stays bounded no matter how hard churn bursts.
        """
        if (epoch in self._retired and self._pins.get(epoch, 0) == 0
                and epoch in self._segments):
            shm = self._segments.pop(epoch)
            self._pins.pop(epoch, None)
            self._retired.discard(epoch)
            if len(self._spares) < self.max_spares:
                clear_seal(shm)
                self._spares.append(shm)
            else:
                self._ring_segments.discard(shm.name)
                shm.close()
                unlink_segment(shm)

    # -- shutdown ------------------------------------------------------------

    def close(self) -> None:
        """Unlink every remaining segment, spares included (idempotent).

        Callers must have drained in-flight batches first; close is the
        service-shutdown path (including the SIGTERM handler), so it
        unlinks unconditionally rather than waiting on pins — a reader
        that crashed between ``acquire`` and ``unpin`` cannot leak a
        segment past this point.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                atexit.unregister(self._atexit_cb)
            except Exception:  # pragma: no cover - interpreter teardown
                pass
            for _epoch, shm in sorted(self._segments.items()):
                shm.close()
                unlink_segment(shm)
            while self._spares:
                shm = self._spares.popleft()
                shm.close()
                unlink_segment(shm)
            self._segments.clear()
            self._ring_segments.clear()
            self._pins.clear()
            self._retired.clear()

    def __enter__(self) -> "EpochManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
