"""Routing-as-a-service: epochal tables + micro-batched kernel calls.

:class:`RoutingService` is the façade that assembles the pieces:

* an :class:`~repro.service.epoch.EpochManager` owning the safety-level
  table of the current fault epoch as read-only arrays, re-stabilized
  *incrementally* on fault events, and swapped by one reference flip
  between flushes;
* a :class:`~repro.service.batcher.MicroBatcher` aggregating concurrent
  ``route()`` calls and whole :meth:`route_block` vectors — each one
  entry of rows — into single batched-kernel executions, one in flight
  at a time, with what queues behind it coalesced into the next; a
  flush answers every entry the same way, with a :class:`BlockResponse`
  over its rows of the flush's result columns, and ``route()`` reads
  its one row back as a :class:`ServiceResponse`;
* the kernel call itself (:func:`~repro.service.workers.route_task`,
  handed the epoch's view), run inline on the event loop's thread.
  The kernel is hundreds of numpy calls on arrays of a few hundred
  rows, each short enough that a thread running it would hand the GIL
  to the loop on every call, so a second thread buys no overlap, only
  switches.  A flush holds the loop for at most
  ``max_batch`` rows: a larger flush routes in ``max_batch``-row slices
  against the one epoch view it took and yields between them.

A service may run standalone or as one shard behind a
:class:`~repro.service.shard.ShardRouter`; either way it owns no thread.

The per-request guarantees, each enforced by the test suite:

* **Bit-identity.**  A response equals the offline
  ``route_unicast_batch`` outcome on (epoch fault set, src, dst) —
  status, admitting condition, hop count.
* **Epoch integrity.**  Every response carries the epoch it was computed
  against, and that epoch's table was sealed read-only before any batch
  read it: no response is ever derived from a torn or mixed-epoch
  table.  A block is answered from exactly one epoch.
* **No drops.**  Every admitted request gets exactly one response, even
  across epoch swaps and shutdown; requests whose endpoint is faulty *at
  their batch's epoch* are answered with ``status="rejected"`` rather
  than poisoning the batch.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.faults import FaultSet
from ..core.hypercube import Hypercube
from ..obs.instruments import record
from ..routing.batch import _CONDITION_BY_CODE, _STATUS_BY_CODE
from .batcher import MicroBatcher, PendingEntry
from .epoch import EpochManager, EpochSwap
from .workers import TornTableError, route_task

__all__ = ["ServiceConfig", "ServiceResponse", "BlockResponse",
           "RoutingService", "REJECTED", "REJECTED_CODE",
           "status_string", "condition_string"]

#: Responses for requests refused before the kernel (faulty endpoint at
#: the batch's epoch) — the graceful per-request failure mode.
REJECTED = "rejected"

#: Status code for refused rows in block responses.  The kernel's codes
#: are 0..2; 255 is unmistakably out of that space and fits the wire
#: format's uint8 status column.
REJECTED_CODE = 255

#: Condition code for refused rows (== the kernel's "none").
_CONDITION_NONE_CODE = len(_CONDITION_BY_CODE) - 1


def status_string(code: int) -> str:
    """Kernel status code (or :data:`REJECTED_CODE`) -> wire string."""
    if code == REJECTED_CODE:
        return REJECTED
    return _STATUS_BY_CODE[code].value


def condition_string(code: int) -> str:
    return _CONDITION_BY_CODE[code].value


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`RoutingService` instance.

    The one owner of the service defaults: :class:`ShardRouter` and
    ``repro serve`` read them from here.
    """

    dimension: int
    #: Row cap of one flush (one kernel call).
    max_batch: int = 4096
    #: How long a one-row entry's window gathers other one-row entries
    #: (an entry of two or more rows skips it).
    window_us: int = 500
    tie_break: str = "lowest-dim"


@dataclass(frozen=True)
class ServiceResponse:
    """One answered route request, tagged with its fault epoch."""

    source: int
    dest: int
    epoch: int
    #: RouteStatus value string, or ``"rejected"`` (faulty endpoint).
    status: str
    condition: str
    hops: int
    hamming: int

    @property
    def delivered(self) -> bool:
        return self.status == "delivered"

    def to_dict(self) -> dict:
        return {
            "source": self.source, "dest": self.dest, "epoch": self.epoch,
            "status": self.status, "condition": self.condition,
            "hops": self.hops, "hamming": self.hamming,
        }


@dataclass
class _FlushAnswer:
    """One flush's answer: its gathered rows and their result columns.

    Entries own disjoint row ranges of it and nothing writes it after
    the flush, so each entry's :class:`BlockResponse` reads its rows in
    place.  The Python-int reply rows are made once per flush, the first
    time an entry asks for them.
    """

    epoch: int
    sources: np.ndarray
    dests: np.ndarray
    status: np.ndarray
    condition: np.ndarray
    hops: np.ndarray
    hamming: np.ndarray
    _replies: Optional[list] = None

    def replies(self) -> list:
        if self._replies is None:
            self._replies = list(zip(
                repeat(self.epoch), self.status.tolist(),
                self.condition.tolist(), self.hops.tolist(),
                self.hamming.tolist()))
        return self._replies


def _column(name: str) -> property:
    return property(
        lambda self: getattr(self._answer, name)[self._lo:self._hi],
        doc=f"This entry's rows of the flush's ``{name}`` column.")


class BlockResponse:
    """One answered entry: columnar outcomes for its vector of pairs.

    All rows were routed against the *same* epoch in the same kernel
    call.  ``status``/``condition`` are the kernel's integer codes
    (uint8), with refused rows carrying :data:`REJECTED_CODE` — exactly
    the columns the binary wire format ships, so a server can frame a
    block response without per-row object churn.  The columns are views
    of the flush's own result columns, made when read.
    """

    __slots__ = ("_answer", "_lo", "_hi")

    sources = _column("sources")        # int64
    dests = _column("dests")            # int64
    status = _column("status")          # uint8 codes; REJECTED_CODE refused
    condition = _column("condition")    # uint8 codes
    hops = _column("hops")              # int64
    hamming = _column("hamming")        # int64

    def __init__(self, answer: _FlushAnswer, lo: int, hi: int) -> None:
        self._answer, self._lo, self._hi = answer, lo, hi

    @property
    def epoch(self) -> int:
        return self._answer.epoch

    def __len__(self) -> int:
        return self._hi - self._lo

    def replies(self) -> list:
        """Per row, ``(epoch, status, condition, hops, hamming)`` as
        Python ints: the fields of a ``ROUTE_R`` reply."""
        return self._answer.replies()[self._lo:self._hi]

    def response(self, i: int) -> ServiceResponse:
        """Materialize row ``i`` as a scalar :class:`ServiceResponse`."""
        k = range(self._lo, self._hi)[i]  # IndexError past this entry
        answer = self._answer
        epoch, status, condition, hops, hamming = answer.replies()[k]
        return ServiceResponse(
            source=int(answer.sources[k]), dest=int(answer.dests[k]),
            epoch=epoch, status=status_string(status),
            condition=condition_string(condition), hops=hops,
            hamming=hamming,
        )


class RoutingService:
    """Long-running unicast route service over one faulty hypercube.

    Use as an async context manager::

        async with RoutingService(ServiceConfig(dimension=8),
                                  faults=faults) as svc:
            resp = await svc.route(src, dst)
            await svc.inject_faults(add=[victim])   # epoch bump
            many = await svc.route_many(pairs)
            block = await svc.route_block(srcs, dsts)

    ``route`` may be called from any number of concurrent tasks; that
    concurrency is exactly what the micro-batcher converts into batched
    kernel throughput.  ``route_block`` submits a whole vector as one
    batcher entry — the wire path's unit of work; ``route`` is the same
    entry with one row.  Kernel calls and
    fault events run on the event loop's thread.
    """

    def __init__(
        self,
        config: ServiceConfig,
        faults: Optional[FaultSet] = None,
    ) -> None:
        self.config = config
        self.topo = Hypercube(config.dimension)
        self.epochs = EpochManager(self.topo, faults)
        self.batcher = MicroBatcher(self._flush, max_batch=config.max_batch,
                                    window_us=config.window_us)
        self._closed = False
        #: Responses issued / requests rejected, service lifetime totals.
        self.responses = 0
        self.rejected = 0

    # -- lifecycle -----------------------------------------------------------

    async def __aenter__(self) -> "RoutingService":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def close(self) -> None:
        """Drain in-flight batches, then refuse fault events."""
        if self._closed:
            return
        self._closed = True
        await self.batcher.drain()
        self.epochs.close()

    def terminate(self) -> None:
        """Stop without draining (a dead shard): refuse fault events.
        Queued work is the caller's to abort."""
        self._closed = True
        self.epochs.close()

    # -- the request path ----------------------------------------------------

    async def route(self, src: int, dst: int) -> ServiceResponse:
        """Answer one unicast route query: a one-row entry, so it waits
        in the batcher's window for others to share its kernel call."""
        block = await self.batcher.submit(src, dst)
        return block.response(0)

    async def route_many(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> List[ServiceResponse]:
        """Submit many queries concurrently; responses in input order."""
        return list(await asyncio.gather(
            *(self.route(s, d) for s, d in pairs)))

    async def route_block(
        self, srcs: np.ndarray, dsts: np.ndarray
    ) -> BlockResponse:
        """Answer a whole vector of pairs as one entry, one future, one epoch.

        The amortization lever behind the wire path: a pipelined client's
        frame of R routes costs one admission, one future, and one demux
        slice instead of R of each.  ``srcs``/``dsts`` are numpy vectors
        or lists of ints; a one-row block waits in the window like
        :meth:`route`.
        """
        record("block_submission", pairs=len(srcs))
        return await self.batcher.submit_block(srcs, dsts)

    async def inject_faults(
        self, add: Sequence[int] = (), remove: Sequence[int] = ()
    ) -> EpochSwap:
        """One fault event: re-stabilize incrementally, seal, flip.

        Runs inline on the loop's thread, between flushes: a flush
        already holding the old epoch's view (a sliced one waiting
        between slices) finishes on it, and every later flush routes on
        the new one.
        """
        return self.epochs.apply_fault_event(add=tuple(add),
                                             remove=tuple(remove))

    # -- batch execution -----------------------------------------------------

    async def _flush(self, batch: List[PendingEntry]) -> None:
        """Route one micro-batch against the current epoch's table.

        Up to ``max_batch`` routable rows go in one kernel call, with no
        await between taking the epoch's view and answering; a larger
        batch goes in ``max_batch``-row slices, yielding to the loop
        between them, and is still answered from the one view it took.
        """
        start_ns = time.perf_counter_ns()
        queue_us = (start_ns - min(r.enqueued_ns for r in batch)) // 1000
        # Entry i owns rows bounds[i]:bounds[i + 1].
        bounds = [0, *accumulate(e.rows for e in batch)]
        srcs = np.concatenate([e.srcs for e in batch])
        dsts = np.concatenate([e.dsts for e in batch])
        total = bounds[-1]
        view = self.epochs.current
        bad = ((srcs < 0) | (srcs >= self.topo.num_nodes)
               | (dsts < 0) | (dsts >= self.topo.num_nodes))
        live = ~bad
        live[live] &= ((view.levels[srcs[live]] > 0)
                       & (view.levels[dsts[live]] > 0))
        keep = np.flatnonzero(live)
        # Full-width result columns, pre-filled with the refusal row.
        status = np.full(total, REJECTED_CODE, dtype=np.uint8)
        condition = np.full(total, _CONDITION_NONE_CODE, dtype=np.uint8)
        hops = np.zeros(total, dtype=np.int64)
        hamming = np.bitwise_count(srcs ^ dsts).astype(np.int64)
        step = self.config.max_batch
        for lo in range(0, len(keep), step):
            if lo:
                # Let the loop serve others between slices; this
                # flush keeps its view (its epoch) across the yield.
                await asyncio.sleep(0)
            rows = keep[lo:lo + step]
            try:
                _epoch, k_status, k_condition, k_hops, k_hamming = \
                    route_task(view, view.epoch, self.topo.dimension,
                               srcs[rows], dsts[rows], self.config.tie_break)
            except TornTableError:
                # Cannot happen: the view is the epoch's own sealed
                # table.  The counter existing (and staying 0) is the
                # audit trail the benchmark and smoke job assert on.
                record("torn_read")
                raise
            status[rows] = k_status.astype(np.uint8)
            condition[rows] = k_condition.astype(np.uint8)
            hops[rows] = k_hops
            hamming[rows] = k_hamming

        rejected = total - int(keep.size)
        answer = _FlushAnswer(view.epoch, srcs, dsts, status, condition,
                              hops, hamming)
        for entry, lo, hi in zip(batch, bounds, bounds[1:]):
            if not entry.future.done():
                entry.future.set_result(BlockResponse(answer, lo, hi))
        self.responses += total
        self.rejected += rejected
        exec_us = (time.perf_counter_ns() - start_ns) // 1000
        record(
            "service_batch", n=self.topo.dimension, epoch=view.epoch,
            routes=int(keep.size), rejected=rejected, backend="inline",
            queue_us=int(queue_us), exec_us=int(exec_us), entries=len(batch),
        )
