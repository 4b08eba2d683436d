"""Micro-batched request aggregation for the routing service.

One route request is a terrible unit of work for the batched kernels: the
vectorized walk amortizes numpy dispatch over thousands of routes, so
answering requests one call at a time pays full per-call overhead for a
single row.  The :class:`MicroBatcher` closes that gap by putting every
flush through one **lane** and aggregating whatever queues behind it:

* at most one flush per batcher is in flight; while it runs, new
  entries queue, and when it finishes the collector takes every queued
  entry, up to ``max_batch`` *rows*, as the next flush — *one* kernel
  call — so a busy tenant's calls grow instead of multiplying;
* a **single** opens a ``window_us`` deadline clock, and further
  singles join it until the deadline fires or ``max_batch`` rows are
  waiting — whichever comes first closes the window, and its entries go
  out as soon as the lane is free;
* a **block** skips the window: it has already paid for its own call,
  and the window exists only to gather singles.

Entries come in two shapes.  A **single** is one ``(src, dst)`` pair —
the interactive path.  A **block** is a whole vector of pairs submitted
as one entry with one future (:meth:`submit_block`) — the wire path's
unit, which is what lets a pipelined client push thousands of routes
through the event loop while paying per-*entry* (not per-route) asyncio
overhead.  The accounting is row-based: a block counts as its row
count, and entries are never split across flushes — a block's response
always comes from exactly one kernel call against exactly one epoch.

Backpressure is a bounded row gate: at most ``max_pending`` rows may be
in flight (queued or executing); ``submit``/``submit_block`` await
admission, so an overloaded service makes producers wait rather than
growing an unbounded queue.  A block larger than the whole gate is
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
from typing import Awaitable, Callable, Deque, List, Optional

import numpy as np

__all__ = ["PendingRequest", "PendingBlock", "MicroBatcher"]


@dataclass
class PendingRequest:
    """One admitted single-pair request waiting for (or in) a flush."""

    src: int
    dst: int
    enqueued_ns: int
    future: "asyncio.Future" = field(repr=False, default=None)

    @property
    def rows(self) -> int:
        return 1


@dataclass
class PendingBlock:
    """One admitted block of pairs: many rows, one entry, one future."""

    srcs: np.ndarray
    dsts: np.ndarray
    enqueued_ns: int
    future: "asyncio.Future" = field(repr=False, default=None)

    @property
    def rows(self) -> int:
        return len(self.srcs)


#: A flush callback: takes the batch entries, resolves every future.
FlushFn = Callable[[List[object]], Awaitable[None]]


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
        max_pending: int,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if window_us < 0:
            raise ValueError(f"window_us must be >= 0, got {window_us}")
        self.max_batch = max_batch
        self.window_us = window_us
        self._queue: List[object] = []
        self._queued_rows = 0
        self._queued_blocks = 0
        self._gate = _RowGate(max_pending)
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

    async def _enqueue(self, entry, rows: int) -> object:
        debt = await self._gate.acquire(rows)
        if self._closed:  # closed while waiting for admission
            self._gate.release(debt)
            raise self._refusal()
        loop = asyncio.get_running_loop()
        entry.future = loop.create_future()
        self._queue.append(entry)
        self._queued_rows += rows
        block = isinstance(entry, PendingBlock)
        self._queued_blocks += block
        if self._collector is None or self._collector.done():
            self._collector = loop.create_task(self._collect())
        elif block or self._queued_rows >= self.max_batch:
            self._wakeup.set()  # close the open window now
        try:
            return await entry.future
        finally:
            self._gate.release(debt)

    async def submit(self, src: int, dst: int) -> object:
        """Admit one request and await its response.

        Raises :class:`RuntimeError` after :meth:`drain` (or the abort
        cause after :meth:`abort`) — a closed batcher admits nothing, it
        only finishes what it already holds.
        """
        if self._closed:
            raise self._refusal()
        return await self._enqueue(
            PendingRequest(src=int(src), dst=int(dst),
                           enqueued_ns=time.perf_counter_ns()),
            rows=1,
        )

    async def submit_block(self, srcs: np.ndarray, dsts: np.ndarray) -> object:
        """Admit a whole vector of pairs as one entry; await one response.

        ``srcs``/``dsts`` must be equal-length 1-D vectors; empty blocks
        are rejected (nothing to route, and a zero-row entry would admit
        for free).  The flush resolves the block's single future with a
        block-shaped response covering every row.
        """
        if self._closed:
            raise self._refusal()
        srcs = np.ascontiguousarray(np.asarray(srcs, dtype=np.int64).ravel())
        dsts = np.ascontiguousarray(np.asarray(dsts, dtype=np.int64).ravel())
        if len(srcs) != len(dsts):
            raise ValueError(
                f"block vectors differ: {len(srcs)} sources, "
                f"{len(dsts)} destinations"
            )
        if len(srcs) == 0:
            raise ValueError("empty block")
        return await self._enqueue(
            PendingBlock(srcs=srcs, dsts=dsts,
                         enqueued_ns=time.perf_counter_ns()),
            rows=len(srcs),
        )

    # -- the lane ------------------------------------------------------------

    def _take_batch(self) -> List[object]:
        """Pop entries for one flush: greedy by rows, entries never split."""
        rows = 0
        blocks = 0
        count = 0
        for entry in self._queue:
            if count and rows >= self.max_batch:
                break
            rows += entry.rows
            blocks += isinstance(entry, PendingBlock)
            count += 1
        batch, self._queue = self._queue[:count], self._queue[count:]
        self._queued_rows -= rows
        self._queued_blocks -= blocks
        return batch

    def _holds_window(self) -> bool:
        """True while only singles are queued, below ``max_batch`` rows."""
        return (self.window_us > 0 and not self._closed
                and not self._queued_blocks
                and self._queued_rows < self.max_batch)

    async def _collect(self) -> None:
        """Feed the lane, one flush at a time, until the queue is empty.

        A collector starts with the first entry queued after the last one
        emptied the queue, so the window's deadline measures from that
        entry.  Singles hold their window even behind a busy lane (the
        lane freeing does not close it); after that, each time the lane
        frees, the collector sends everything queued (up to ``max_batch``
        rows) as one flush.
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

    async def _run_flush(self, batch: List[object]) -> None:
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
        self._queued_blocks = 0
        for entry in queue:
            if entry.future is not None and not entry.future.done():
                entry.future.set_exception(exc)
