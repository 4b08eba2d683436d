"""Micro-batched request aggregation for the routing service.

One route request is a terrible unit of work for the batched kernels: the
vectorized walk amortizes numpy dispatch over thousands of routes, so
answering requests one call at a time pays full per-call overhead for a
single row.  The :class:`MicroBatcher` closes that gap by putting every
flush through one **lane** and aggregating whatever queues behind it:

* at most one flush per batcher is in flight; while it runs, new
  entries queue, and when it finishes the collector takes every queued
  entry, up to ``max_batch`` *rows*, as the next flush — *one* kernel
  call per ``max_batch`` rows — so a busy tenant's calls grow instead
  of multiplying;
* a **one-row** entry opens a ``window_us`` deadline clock, and further
  one-row entries join it until the deadline fires or ``max_batch`` rows
  are waiting — whichever comes first closes the window, and its entries
  go out as soon as the lane is free;
* an entry of two or more rows skips the window: it has already paid
  for its own call, and the window exists only to gather lone pairs.

Every entry has one shape: a run of ``(src, dst)`` rows with one future.
:meth:`submit` queues a run of one pair (the interactive path),
:meth:`submit_block` a whole vector (the wire path's unit, which is what
lets a pipelined client push thousands of routes through the event loop
while paying per-*entry*, not per-route, asyncio overhead).  An entry's
columns become int64 vectors at intake — the conversion is also the
check that every endpoint fits a row — and a flush concatenates them.
The accounting is row-based: an entry counts as its row count, and
entries are never split across flushes — an entry's response always
comes from exactly one flush against exactly one epoch.

Backpressure is a bounded row gate: at most :data:`MAX_PENDING_ROWS`
rows may be in flight (queued or executing); ``submit``/``submit_block`` await
admission, so an overloaded service makes producers wait rather than
growing an unbounded queue.  An entry larger than the whole gate is
admitted at full-gate cost instead of deadlocking.  Requests are never
dropped — every admitted entry is resolved with a response or an
exception, including during shutdown (:meth:`drain` flushes stragglers
before the service closes) and forced teardown (:meth:`abort` fails
everything still queued, loudly).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Deque, List, Optional, Sequence

import numpy as np

__all__ = ["PendingEntry", "MicroBatcher", "MAX_PENDING_ROWS",
           "check_endpoints"]

#: Rows admitted (queued or executing) per batcher before submitters wait.
MAX_PENDING_ROWS = 32_768

#: Endpoints become int64 rows; the wire carries uint64.
_ROW_MIN, _ROW_MAX = -(1 << 63), (1 << 63) - 1


def check_endpoints(src: int, dst: int) -> None:
    """Raise :class:`ValueError` unless both endpoints fit an int64 row.

    A pair that does not fit is a bad request of its own: refused before
    it joins a batch, it cannot fail the rows batched with it.
    """
    for node in (src, dst):
        if not _ROW_MIN <= node <= _ROW_MAX:
            raise ValueError(f"node {node} does not fit a 64-bit row")


def _as_rows(values: Sequence[int]) -> np.ndarray:
    """One column of an entry as an int64 vector.  A value outside int64
    is refused as :func:`check_endpoints` refuses it."""
    try:
        return np.asarray(values, dtype=np.int64).ravel()
    except OverflowError:
        check_endpoints(min(values), max(values))
        raise


@dataclass
class PendingEntry:
    """One admitted run of ``(src, dst)`` rows: one entry, one future."""

    srcs: np.ndarray
    dsts: np.ndarray
    enqueued_ns: int
    future: "asyncio.Future" = field(repr=False)

    @property
    def rows(self) -> int:
        return len(self.srcs)


#: A flush callback: takes the batch entries, resolves every future.
FlushFn = Callable[[List[PendingEntry]], Awaitable[None]]


class _RowGate:
    """Bounded counting admission: FIFO waiters, row-denominated.

    ``asyncio.Semaphore`` admits one unit per acquire; blocks need
    many-at-once admission without an O(rows) acquire loop.  Waiters
    park on futures in arrival order and re-check on every release; an
    entry wider than the whole gate is clamped to capacity so it admits
    (alone) rather than deadlocking.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._used = 0
        self._waiters: Deque["asyncio.Future"] = deque()

    async def acquire(self, rows: int) -> int:
        """Admit ``rows`` (clamped to capacity); returns the debt to release."""
        rows = min(rows, self.capacity)
        loop = asyncio.get_running_loop()
        while self._used + rows > self.capacity:
            fut = loop.create_future()
            self._waiters.append(fut)
            try:
                await fut
            except asyncio.CancelledError:
                if fut in self._waiters:
                    self._waiters.remove(fut)
                raise
        self._used += rows
        return rows

    def release(self, rows: int) -> None:
        self._used -= rows
        self.wake_all()

    def wake_all(self) -> None:
        """Recheck every waiter (capacity freed, or the batcher closed)."""
        while self._waiters:
            fut = self._waiters.popleft()
            if not fut.done():
                fut.set_result(None)


class MicroBatcher:
    """One-lane size/deadline aggregation in front of an async flush callback.

    ``flush`` receives each batch exactly once and owns resolving the
    futures; the batcher guarantees ordering *within* a batch matches
    submission order (the kernel's row order is the arrival order), that
    no two flushes overlap, and that no admitted entry is ever abandoned.
    """

    def __init__(
        self,
        flush: FlushFn,
        *,
        max_batch: int,
        window_us: int,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if window_us < 0:
            raise ValueError(f"window_us must be >= 0, got {window_us}")
        self.max_batch = max_batch
        self.window_us = window_us
        self._queue: List[PendingEntry] = []
        self._queued_rows = 0
        self._gate = _RowGate(MAX_PENDING_ROWS)
        #: Set when the lane frees, the window should close early, or
        #: the batcher closes; the collector waits on it.
        self._wakeup = asyncio.Event()
        self._closed = False
        self._abort_exc: Optional[BaseException] = None
        self._flush = flush
        #: The one flush in flight, or None while the lane is free.
        self._lane: Optional[asyncio.Task] = None
        self._collector: Optional[asyncio.Task] = None
        #: Lifetime count of dispatched batches (benchmark batch-size math).
        self.flushes = 0

    @property
    def closed(self) -> bool:
        """True once drained or aborted — nothing more is admitted."""
        return self._closed

    def _refusal(self) -> BaseException:
        """The exception a post-close submit gets.  After :meth:`abort`
        it is a fresh instance of the abort cause, so callers hitting a
        killed shard hear the structured (often retryable) story instead
        of a generic 'closed'."""
        if self._abort_exc is not None:
            try:
                return type(self._abort_exc)(*self._abort_exc.args)
            except Exception:  # exotic exception signature: reuse as-is
                return self._abort_exc
        return RuntimeError("batcher is closed")

    # -- intake --------------------------------------------------------------

    async def _enqueue(self, srcs: Sequence[int],
                       dsts: Sequence[int]) -> object:
        """Check, admit and queue one entry; await its response."""
        if self._closed:
            raise self._refusal()
        srcs, dsts = _as_rows(srcs), _as_rows(dsts)
        rows = len(srcs)
        if rows != len(dsts):
            raise ValueError(
                f"block vectors differ: {rows} sources, "
                f"{len(dsts)} destinations")
        if not rows:
            raise ValueError("empty block")
        debt = await self._gate.acquire(rows)
        if self._closed:  # closed while waiting for admission
            self._gate.release(debt)
            raise self._refusal()
        loop = asyncio.get_running_loop()
        entry = PendingEntry(srcs, dsts, time.perf_counter_ns(),
                             loop.create_future())
        self._queue.append(entry)
        self._queued_rows += rows
        if self._collector is None or self._collector.done():
            self._collector = loop.create_task(self._collect())
        elif rows > 1 or self._queued_rows >= self.max_batch:
            self._wakeup.set()  # close the open window now
        try:
            return await entry.future
        finally:
            self._gate.release(debt)

    async def submit(self, src: int, dst: int) -> object:
        """Admit one pair as a one-row entry and await its response.

        Raises :class:`ValueError` for an endpoint outside int64, and
        :class:`RuntimeError` after :meth:`drain` (or the abort cause
        after :meth:`abort`) — a closed batcher admits nothing, it only
        finishes what it already holds.
        """
        return await self._enqueue((src,), (dst,))

    async def submit_block(self, srcs: Sequence[int],
                           dsts: Sequence[int]) -> object:
        """Admit a whole vector of pairs as one entry; await one response.

        ``srcs``/``dsts`` must be equal-length vectors (lists or numpy
        arrays); empty blocks are rejected (nothing to route, and a
        zero-row entry would admit for free).  Raises like :meth:`submit`.
        """
        return await self._enqueue(srcs, dsts)

    # -- the lane ------------------------------------------------------------

    def _take_batch(self) -> List[PendingEntry]:
        """Pop entries for one flush: greedy by rows, entries never split."""
        rows = 0
        count = 0
        for entry in self._queue:
            if count and rows >= self.max_batch:
                break
            rows += entry.rows
            count += 1
        batch, self._queue = self._queue[:count], self._queue[count:]
        self._queued_rows -= rows
        return batch

    def _holds_window(self) -> bool:
        """True while every queued entry is one row, below ``max_batch``
        rows (each entry holds at least one row, so the counts match only
        then)."""
        return (self.window_us > 0 and not self._closed
                and self._queued_rows == len(self._queue)
                and self._queued_rows < self.max_batch)

    async def _collect(self) -> None:
        """Feed the lane, one flush at a time, until the queue is empty.

        A collector starts with the first entry queued after the last one
        emptied the queue, so the window's deadline measures from that
        entry.  One-row entries hold their window even behind a busy lane
        (the lane freeing does not close it); after that, each time the
        lane frees, the collector sends everything queued (up to
        ``max_batch`` rows) as one flush.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.window_us / 1e6
        while self._holds_window():
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            self._wakeup.clear()
            try:
                await asyncio.wait_for(self._wakeup.wait(), remaining)
            except asyncio.TimeoutError:
                break
        while self._queue:
            if self._lane is not None:
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            self._lane = loop.create_task(self._run_flush(self._take_batch()))

    async def _run_flush(self, batch: List[PendingEntry]) -> None:
        self.flushes += 1
        try:
            await self._flush(batch)
        except Exception as exc:
            for req in batch:
                if not req.future.done():
                    req.future.set_exception(exc)
        else:
            # The flush owns resolution; an unresolved future here is a
            # service bug, and surfacing it beats hanging the caller.
            for req in batch:
                if not req.future.done():  # pragma: no cover - defensive
                    req.future.set_exception(
                        RuntimeError("flush left a request unresolved"))
        finally:
            self._lane = None
            self._wakeup.set()

    # -- shutdown ------------------------------------------------------------

    async def drain(self) -> None:
        """Stop admitting, flush stragglers, await the lane."""
        self._closed = True
        self._wakeup.set()
        self._gate.wake_all()
        if self._collector is not None and not self._collector.done():
            await self._collector
        if self._lane is not None:
            await asyncio.gather(self._lane, return_exceptions=True)

    def abort(self, exc: BaseException) -> None:
        """Forced teardown: fail every queued entry with ``exc``, admit
        nothing more.  The flush in the lane is left to finish (it holds
        its own futures); this is the kill-shard path, where queued
        work must fail *loudly* rather than hang or half-route.  The
        cause is remembered: later submits are refused with a fresh
        instance of it, so a request racing a shard kill still hears the
        structured error, not a generic "closed".
        """
        self._closed = True
        self._abort_exc = exc
        self._wakeup.set()
        self._gate.wake_all()
        queue, self._queue = self._queue, []
        self._queued_rows = 0
        for entry in queue:
            if not entry.future.done():
                entry.future.set_exception(exc)
