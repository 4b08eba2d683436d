"""Shared-memory epoch tables: publish once per fault epoch, attach anywhere.

The routing service's whole bargain is that safety-level state is
*epochal*: it only changes when the fault set changes, so the level table
can be computed once per epoch and then read by every kernel call for
thousands of micro-batches without coordination.  This module is the
publish/attach substrate for that bargain, built on
:mod:`multiprocessing.shared_memory`:

* **One immutable segment per epoch.**  A segment is written exactly once
  by the publisher and never mutated afterwards; an epoch bump publishes
  a *new* segment rather than updating the old one in place, so readers
  of the old epoch keep a consistent table for as long as they hold it
  (POSIX keeps unlinked segments alive until the last mapping closes).

* **Seqlock-style version tags.**  ``SharedMemory(name=...)`` makes a
  segment attachable the moment it is created — before the publisher has
  written a single byte — so every segment carries the epoch number in
  *two* header slots, and the publisher writes them in seal order: body
  first, then the end tag, then the begin tag.  A reader accepts a table
  only when ``begin == end == expected epoch`` and the body checksum
  matches; anything else is a torn read, retried briefly and then raised
  as :class:`TornTableError`.  Because sealed segments never change, a
  consistent observation can never become inconsistent later — the check
  runs once per attach, not per batch.

* **Layout** (offsets in int64 slots)::

      [0] begin tag   == epoch, written last
      [1] dimension n
      [2] faulty-node count (informational)
      [3] body checksum (int64 wrap-around sum of both arrays)
      [4] end tag     == epoch, written right after the body
      --- body ---
      int8[2**n]   safety levels (level 0 <=> faulty)
      int64[2**n]  packed neighbor-level words (pack_neighbor_levels),
                   all-zero when n > 15 (nibbles don't fit)

Service segments opt out of the multiprocessing resource tracker
entirely (every construction below runs under :func:`_untracked`).  On
3.11 the tracker registers *every* ``SharedMemory`` it sees — attachers
included — into one name *set* shared by the whole process tree, so any
mix of publisher unlinks and reader attaches produces either spurious
"leaked shared_memory" destruction attempts or KeyError noise from the
tracker process.  Ownership is ours instead: exactly one ``unlink`` per
segment, from :class:`repro.service.epoch.EpochManager` (explicit close,
atexit, or the SIGTERM handler).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Optional

import numpy as np

__all__ = [
    "TornTableError",
    "EpochTable",
    "publish_epoch_table",
    "create_unsealed_segment",
    "seal_epoch_table",
    "clear_seal",
    "attach_epoch_table",
    "segment_exists",
    "unlink_segment",
]

#: Header int64 slots (see module docstring for the layout).
_HEADER_SLOTS = 5
_BEGIN, _DIM, _FAULTS, _CHECKSUM, _END = range(_HEADER_SLOTS)
_HEADER_BYTES = _HEADER_SLOTS * 8


class TornTableError(RuntimeError):
    """A reader observed an unsealed or version-mismatched epoch table."""


_TRACKER_LOCK = threading.Lock()


@contextmanager
def _untracked():
    """Run a ``SharedMemory`` call without tracker (un)registration.

    Suppresses both directions: ``register`` (constructor) so the
    tracker never adopts a service segment, and ``unregister``
    (``unlink``) so tearing one down never sends the tracker a message
    for a name it does not hold.  The patch window is held under a lock
    and spans a single call, so other subsystems' shared memory (there
    is none today) keeps its default tracking.
    """
    with _TRACKER_LOCK:
        original = (resource_tracker.register, resource_tracker.unregister)
        resource_tracker.register = lambda name, rtype: None
        resource_tracker.unregister = lambda name, rtype: None
        try:
            yield
        finally:
            resource_tracker.register, resource_tracker.unregister = original


def unlink_segment(shm: shared_memory.SharedMemory) -> None:
    """Unlink a service segment (tracker-silent; missing name tolerated)."""
    with _untracked():
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def _segment_size(num_nodes: int) -> int:
    return _HEADER_BYTES + num_nodes + 8 * num_nodes


def _checksum(levels: np.ndarray, packed: np.ndarray) -> int:
    """Deterministic int64 wrap-around sum over both body arrays."""
    with np.errstate(over="ignore"):
        total = (levels.astype(np.int64).sum(dtype=np.int64)
                 + packed.sum(dtype=np.int64))
    return int(total)


def _views(buf, num_nodes: int):
    """(header, levels, packed) numpy views over a segment buffer."""
    header = np.frombuffer(buf, dtype=np.int64, count=_HEADER_SLOTS)
    levels = np.frombuffer(buf, dtype=np.int8, count=num_nodes,
                           offset=_HEADER_BYTES)
    packed = np.frombuffer(buf, dtype=np.int64, count=num_nodes,
                           offset=_HEADER_BYTES + num_nodes)
    return header, levels, packed


@dataclass
class EpochTable:
    """A reader's consistent view of one epoch's published table.

    ``levels`` and ``packed`` are zero-copy read-only views into the
    shared segment; they stay valid until :meth:`close` (or for the
    lifetime of the process if never closed — the memory survives the
    publisher's ``unlink``).  ``packed`` is ``None`` when the epoch was
    published without packed words (``n > 15``).
    """

    name: str
    epoch: int
    n: int
    faults: int
    levels: np.ndarray
    packed: Optional[np.ndarray]
    _shm: shared_memory.SharedMemory = field(repr=False, default=None)

    def close(self) -> None:
        """Drop this process's mapping (never unlinks — publisher owns that)."""
        if self._shm is not None:
            # The numpy views hold buffer references; break them first so
            # SharedMemory.close() doesn't raise BufferError on 3.11.
            self.levels = self.levels.copy()
            self.packed = self.packed.copy() if self.packed is not None \
                else None
            try:
                self._shm.close()
            except BufferError:
                # A view still held elsewhere (say, by the traceback of a
                # kernel call that raised) exports the buffer: the mapping
                # goes with that view, and Python reports the handle's
                # failed close as an ignored exception.  Unlinking is the
                # publisher's job either way.
                pass
            self._shm = None


def create_unsealed_segment(
    name: str, num_nodes: int
) -> shared_memory.SharedMemory:
    """Create an empty (unsealed: both tags zero) segment sized for a table.

    This is the warm-spare allocation path: the epoch manager pre-creates
    ring segments at startup so a fault event never pays segment-creation
    latency — it only reseals an existing spare.
    """
    with _untracked():
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=_segment_size(num_nodes))
    return shm


def seal_epoch_table(
    shm: shared_memory.SharedMemory,
    epoch: int,
    n: int,
    levels: np.ndarray,
    packed: Optional[np.ndarray],
    faults: int,
) -> None:
    """Write one epoch's table into ``shm`` and seal it (seqlock order).

    Works on a fresh segment *or* on a reused warm spare whose previous
    seal was cleared (:func:`clear_seal`).  Write order is the whole
    torn-read story: tags zeroed first (mark unsealed), then body, then
    metadata, then the end tag, then the begin tag — a reader attaching
    mid-seal sees ``begin != end`` (or a zero tag) and retries.
    """
    if epoch < 1:
        raise ValueError(f"epochs start at 1, got {epoch}")
    num_nodes = 1 << n
    lv = np.ascontiguousarray(np.asarray(levels), dtype=np.int8)
    if lv.shape != (num_nodes,):
        raise ValueError(
            f"levels must be ({num_nodes},) for n={n}, got {lv.shape}"
        )
    pk = np.zeros(num_nodes, dtype=np.int64) if packed is None else \
        np.ascontiguousarray(np.asarray(packed), dtype=np.int64)
    if pk.shape != (num_nodes,):
        raise ValueError(
            f"packed words must be ({num_nodes},), got {pk.shape}"
        )
    if shm.size < _segment_size(num_nodes):
        raise ValueError(
            f"segment {shm.name!r} holds {shm.size} bytes, a Q{n} table "
            f"needs {_segment_size(num_nodes)}"
        )
    header, lv_view, pk_view = _views(shm.buf, num_nodes)
    header[_BEGIN] = 0
    header[_END] = 0
    lv_view[:] = lv
    pk_view[:] = pk
    header[_DIM] = n
    header[_FAULTS] = faults
    header[_CHECKSUM] = _checksum(lv, pk)
    header[_END] = epoch
    header[_BEGIN] = epoch
    # Break the local numpy buffer references; the caller's handle keeps
    # the mapping alive and tests re-attach through attach_epoch_table.
    del header, lv_view, pk_view


def clear_seal(shm: shared_memory.SharedMemory) -> None:
    """Zero both version tags: the segment reads as unsealed again.

    Called when a retired, pin-free segment returns to the spare ring —
    a late attacher (there should be none; pins guarantee it) sees an
    unsealed segment and fails loudly instead of reading a stale epoch.
    """
    header = np.frombuffer(shm.buf, dtype=np.int64, count=_HEADER_SLOTS)
    header[_BEGIN] = 0
    header[_END] = 0
    del header


def publish_epoch_table(
    name: str,
    epoch: int,
    n: int,
    levels: np.ndarray,
    packed: Optional[np.ndarray],
    faults: int,
) -> shared_memory.SharedMemory:
    """Create, fill, and seal one epoch's segment; returns the handle.

    The caller (the epoch manager) keeps the returned handle and is the
    single owner of the segment's lifetime: it must eventually call
    ``close()`` and ``unlink()`` on it.  Epochs must be >= 1 — 0 is the
    freshly-created (unsealed) tag value readers reject.
    """
    if epoch < 1:
        raise ValueError(f"epochs start at 1, got {epoch}")
    shm = create_unsealed_segment(name, 1 << n)
    seal_epoch_table(shm, epoch, n, levels, packed, faults)
    return shm


def attach_epoch_table(
    name: str,
    expect_epoch: Optional[int] = None,
    retries: int = 50,
    retry_sleep_s: float = 0.002,
) -> EpochTable:
    """Attach ``name`` and return a verified consistent :class:`EpochTable`.

    Verification is the seqlock check described in the module docstring:
    begin tag == end tag (== ``expect_epoch`` when given) and body
    checksum match.  An unsealed segment is retried ``retries`` times
    (publishing is microseconds, so the default window is generous), then
    raised as :class:`TornTableError`; a *wrong-epoch* segment fails
    immediately — waiting cannot fix attaching to the wrong table.
    """
    with _untracked():
        shm = shared_memory.SharedMemory(name=name)
    try:
        header = np.frombuffer(shm.buf, dtype=np.int64, count=_HEADER_SLOTS)
        for attempt in range(retries + 1):
            begin = int(header[_BEGIN])
            end = int(header[_END])
            sealed = begin == end and begin != 0
            if sealed and expect_epoch is not None and begin != expect_epoch:
                raise TornTableError(
                    f"segment {name!r} carries epoch {begin}, "
                    f"expected {expect_epoch}"
                )
            if sealed:
                break
            if attempt == retries:
                raise TornTableError(
                    f"segment {name!r} never sealed: begin tag {begin}, "
                    f"end tag {end} after {retries} retries"
                )
            time.sleep(retry_sleep_s)
        n = int(header[_DIM])
        num_nodes = 1 << n
        _header, levels, packed = _views(shm.buf, num_nodes)
        if _checksum(levels, packed) != int(header[_CHECKSUM]):
            raise TornTableError(
                f"segment {name!r} epoch {begin}: body checksum mismatch"
            )
        levels = levels.view()
        levels.setflags(write=False)
        # All-zero words mean "published without packed nibbles" (n > 15);
        # the degenerate all-faulty cube also lands here, where the gather
        # path the reader falls back to is trivially identical anyway.
        has_packed = bool(packed.any())
        pk = None
        if has_packed:
            packed = packed.view()
            packed.setflags(write=False)
            pk = packed
        table = EpochTable(
            name=name, epoch=begin, n=n, faults=int(header[_FAULTS]),
            levels=levels, packed=pk, _shm=shm,
        )
        del header, _header, packed
        return table
    except BaseException:
        # Drop every local numpy view before closing — a live view makes
        # close() raise BufferError, which would mask the real cause here
        # and fire again (unraisably) from SharedMemory.__del__.
        header = _header = levels = packed = pk = None  # noqa: F841
        try:
            shm.close()
        except BufferError:  # pragma: no cover - view still referenced
            pass
        raise


def segment_exists(name: str) -> bool:
    """True when ``name`` is currently linked in the system namespace."""
    try:
        with _untracked():
            shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    shm.close()
    return True
