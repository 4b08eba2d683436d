"""Routing-as-a-service: epochal tables + micro-batched kernel calls.

:class:`RoutingService` is the façade that assembles the pieces:

* an :class:`~repro.service.epoch.EpochManager` owning the safety-level
  table of the current fault epoch, published read-only through shared
  memory, re-stabilized *incrementally* on fault events, and swapped by
  resealing a warm-spare segment off the request path;
* a :class:`~repro.service.batcher.MicroBatcher` aggregating concurrent
  ``route()`` calls — and whole :meth:`route_block` vectors — into
  single batched-kernel executions, one in flight at a time, with what
  queues behind it coalesced into the next;
* an execution backend — the asyncio loop's thread executor
  (``workers=0``; the kernel releases the GIL inside numpy, so one
  thread suffices until epoch tables stop fitting in cache) or a
  ``ProcessPoolExecutor`` whose workers attach the epoch segments by
  name (:mod:`repro.service.workers`).

A service may run standalone (it builds its own executors) or as one
shard behind a :class:`~repro.service.shard.ShardRouter`, in which case
the router passes *shared* executors in — N shards, one process pool —
and the shard never shuts down what it does not own.

The per-request guarantees, each enforced by the test suite:

* **Bit-identity.**  A response equals the offline
  ``route_unicast_batch`` outcome on (epoch fault set, src, dst) —
  status, admitting condition, hop count.
* **Epoch integrity.**  Every response carries the epoch it was computed
  against, and that epoch's table was sealed (seqlock-verified) before
  any batch read it: no response is ever derived from a torn or
  mixed-epoch table.  A block is answered from exactly one epoch.
* **No drops.**  Every admitted request gets exactly one response, even
  across epoch swaps and shutdown; requests whose endpoint is faulty *at
  their batch's epoch* are answered with ``status="rejected"`` rather
  than poisoning the batch.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.faults import FaultSet
from ..core.hypercube import Hypercube
from ..obs.instruments import metrics, record_block_submission, \
    record_service_batch
from ..routing.batch import _CONDITION_BY_CODE, _STATUS_BY_CODE
from .batcher import MicroBatcher, PendingBlock, PendingRequest
from .epoch import DEFAULT_SPARES, EpochManager, EpochSwap
from .shm import TornTableError
from .workers import clear_table_cache, route_task

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


def _popcount64(values: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR) for Hamming distances."""
    x = np.abs(values).astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = ((x & np.uint64(0x3333333333333333))
         + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333)))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101))
            >> np.uint64(56)).astype(np.int64)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`RoutingService` instance.

    The one owner of the service defaults: :class:`ShardRouter` and
    ``repro serve`` read them from here.
    """

    dimension: int
    #: Row cap of one flush (one kernel call).
    max_batch: int = 4096
    #: How long a single's window gathers other singles (blocks skip it).
    window_us: int = 500
    workers: int = 0
    tie_break: str = "lowest-dim"
    #: Rows admitted (queued or executing) before submitters wait.
    max_pending: int = 32_768
    #: Warm-spare ring size for the epoch manager.
    spares: int = DEFAULT_SPARES


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


@dataclass(frozen=True)
class BlockResponse:
    """One answered block: columnar outcomes for a whole vector of pairs.

    All rows were routed against the *same* epoch in the same kernel
    call.  ``status``/``condition`` are the kernel's integer codes
    (uint8), with refused rows carrying :data:`REJECTED_CODE` — exactly
    the columns the binary wire format ships, so a server can frame a
    block response without per-row object churn.
    """

    sources: np.ndarray
    dests: np.ndarray
    epoch: int
    status: np.ndarray      # uint8 codes; REJECTED_CODE for refused rows
    condition: np.ndarray   # uint8 codes
    hops: np.ndarray        # int64
    hamming: np.ndarray     # int64

    def __len__(self) -> int:
        return len(self.sources)

    @property
    def rejected(self) -> int:
        return int((self.status == REJECTED_CODE).sum())

    def response(self, i: int) -> ServiceResponse:
        """Materialize row ``i`` as a scalar :class:`ServiceResponse`."""
        code = int(self.status[i])
        return ServiceResponse(
            source=int(self.sources[i]), dest=int(self.dests[i]),
            epoch=self.epoch, status=status_string(code),
            condition=condition_string(int(self.condition[i])),
            hops=int(self.hops[i]), hamming=int(self.hamming[i]),
        )

    def to_responses(self) -> List[ServiceResponse]:
        return [self.response(i) for i in range(len(self.sources))]


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
    batcher entry — the wire path's unit of work.

    ``threads``/``pool`` inject shared executors (the shard router's
    one-pool-for-N-shards layout); the service only shuts down executors
    it created itself.
    """

    def __init__(
        self,
        config: ServiceConfig,
        faults: Optional[FaultSet] = None,
        name_token: Optional[str] = None,
        threads: Optional[ThreadPoolExecutor] = None,
        pool: Optional[ProcessPoolExecutor] = None,
    ) -> None:
        self.config = config
        self.topo = Hypercube(config.dimension)
        self.epochs = EpochManager(self.topo, faults,
                                   name_token=name_token,
                                   spares=config.spares)
        self.batcher = MicroBatcher(
            self._flush, max_batch=config.max_batch,
            window_us=config.window_us, max_pending=config.max_pending,
        )
        self._backend = "pool" if (config.workers > 0 or pool is not None) \
            else "inline"
        self._pool = pool
        self._owns_pool = pool is None
        # Two threads so epoch publication (inject_faults' stabilization
        # + seal) never heads-of-line-blocks a kernel flush — the churn
        # p99 ceiling in the bench depends on this.
        self._threads = threads if threads is not None else \
            ThreadPoolExecutor(max_workers=2, thread_name_prefix="repro-svc")
        self._owns_threads = threads is None
        self._closed = False
        #: Responses issued / requests rejected, service lifetime totals.
        self.responses = 0
        self.rejected = 0

    # -- lifecycle -----------------------------------------------------------

    async def __aenter__(self) -> "RoutingService":
        if self.config.workers > 0 and self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.config.workers)
            self._owns_pool = True
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def close(self) -> None:
        """Drain in-flight batches, stop workers, unlink every segment."""
        if self._closed:
            return
        self._closed = True
        await self.batcher.drain()
        if self._pool is not None and self._owns_pool:
            self._pool.shutdown(wait=True)
        self._pool = None
        if self._owns_threads:
            self._threads.shutdown(wait=True)
        # The inline backend attaches segments in this process; drop those
        # mappings before the manager unlinks so nothing lingers.
        clear_table_cache()
        self.epochs.close()

    def terminate(self) -> None:
        """Synchronous last-resort cleanup (signal handlers, atexit).

        Skips draining — callers on this path are exiting *now* — but
        releases what the OS will not: the published segments.
        """
        self._closed = True
        if self._pool is not None and self._owns_pool:
            self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None
        clear_table_cache()
        self.epochs.close()

    # -- the request path ----------------------------------------------------

    async def route(self, src: int, dst: int) -> ServiceResponse:
        """Answer one unicast route query (micro-batched under the hood)."""
        return await self.batcher.submit(src, dst)

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
        slice instead of R of each.
        """
        record_block_submission(len(np.atleast_1d(srcs)))
        return await self.batcher.submit_block(srcs, dsts)

    async def inject_faults(
        self, add: Sequence[int] = (), remove: Sequence[int] = ()
    ) -> EpochSwap:
        """One fault event: bump the epoch without stalling the loop.

        The incremental re-stabilization and warm-spare reseal run on the
        service's executor thread; request intake continues against the
        old epoch until the pointer flip lands.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._threads, self.epochs.apply_fault_event, tuple(add),
            tuple(remove))

    # -- batch execution -----------------------------------------------------

    def _gather_rows(
        self, batch: List[object]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flatten batch entries into row vectors + per-entry offsets."""
        if all(isinstance(e, PendingRequest) for e in batch):
            srcs = np.fromiter((e.src for e in batch), dtype=np.int64,
                               count=len(batch))
            dsts = np.fromiter((e.dst for e in batch), dtype=np.int64,
                               count=len(batch))
            offsets = np.arange(len(batch) + 1, dtype=np.int64)
            return srcs, dsts, offsets
        counts = np.fromiter((e.rows for e in batch), dtype=np.int64,
                             count=len(batch))
        offsets = np.zeros(len(batch) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        srcs = np.empty(total, dtype=np.int64)
        dsts = np.empty(total, dtype=np.int64)
        for entry, lo, hi in zip(batch, offsets[:-1], offsets[1:]):
            if isinstance(entry, PendingBlock):
                srcs[lo:hi] = entry.srcs
                dsts[lo:hi] = entry.dsts
            else:
                srcs[lo] = entry.src
                dsts[lo] = entry.dst
        return srcs, dsts, offsets

    async def _flush(self, batch: List[object]) -> None:
        """Route one micro-batch against the pinned current epoch."""
        start_ns = time.perf_counter_ns()
        queue_us = (start_ns - min(r.enqueued_ns for r in batch)) // 1000
        srcs, dsts, offsets = self._gather_rows(batch)
        total = len(srcs)
        view = self.epochs.acquire()
        try:
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
            hamming = _popcount64(srcs ^ dsts)
            if keep.size:
                loop = asyncio.get_running_loop()
                executor = self._pool if self._pool is not None \
                    else self._threads
                try:
                    epoch, k_status, k_condition, k_hops, k_hamming = \
                        await loop.run_in_executor(
                            executor, route_task, view.segment, view.epoch,
                            self.topo.dimension, srcs[keep], dsts[keep],
                            self.config.tie_break)
                except TornTableError:
                    # Cannot happen with sealed immutable segments — the
                    # counter existing (and staying 0) is the audit trail
                    # the benchmark and smoke job assert on.
                    reg = metrics()
                    if reg.enabled:
                        reg.counter("service.torn_reads").inc()
                    raise
                status[keep] = k_status.astype(np.uint8)
                condition[keep] = k_condition.astype(np.uint8)
                hops[keep] = k_hops
                hamming[keep] = k_hamming
        finally:
            self.epochs.unpin(view.epoch)

        rejected = total - int(keep.size)
        for entry, lo, hi in zip(batch, offsets[:-1], offsets[1:]):
            lo, hi = int(lo), int(hi)
            if isinstance(entry, PendingBlock):
                resp: object = BlockResponse(
                    sources=entry.srcs, dests=entry.dsts, epoch=view.epoch,
                    status=status[lo:hi].copy(),
                    condition=condition[lo:hi].copy(),
                    hops=hops[lo:hi].copy(),
                    hamming=hamming[lo:hi].copy(),
                )
            else:
                code = int(status[lo])
                resp = ServiceResponse(
                    source=entry.src, dest=entry.dst, epoch=view.epoch,
                    status=status_string(code),
                    condition=condition_string(int(condition[lo])),
                    hops=int(hops[lo]), hamming=int(hamming[lo]),
                )
            if not entry.future.done():
                entry.future.set_result(resp)
        self.responses += total
        self.rejected += rejected
        exec_us = (time.perf_counter_ns() - start_ns) // 1000
        record_service_batch(
            n=self.topo.dimension, epoch=view.epoch, routes=int(keep.size),
            rejected=rejected, backend=self._backend,
            queue_us=int(queue_us), exec_us=int(exec_us),
            entries=len(batch) if len(batch) != total else None,
        )
