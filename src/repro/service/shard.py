"""Sharded multi-cube serving: many tenants, one front-end, one loop.

One :class:`~repro.service.service.RoutingService` serves one cube under
one fault history.  Production traffic is many cubes — tenants with
different dimensions, fault sets, and churn — and the
:class:`ShardRouter` multiplexes them:

* **Tenants** are named cubes, keyed by ``(tenant, n, fault set)`` at
  registration.  Each tenant gets its own epoch manager (own level
  tables, own fault history) and its own micro-batcher — tenants never
  share epochs, so one tenant's churn cannot tear another's tables.
* **Shards** are failure domains: a fixed pool of slots, each holding
  the services of the tenants placed on it.  Placement is a consistent
  hash (SHA-1 ring with virtual nodes), so adding tenants spreads them
  stably and the mapping is reproducible across restarts — the same
  tenant name always lands on the same shard for a given shard count.
* **One thread serves them all.**  Every tenant's kernel calls, fault
  events and failover replays run inline on the event loop's thread,
  interleaved at flush, event and replay-delta granularity; each kernel
  call routes on the epoch view its flush took.

Failure semantics come in two flavors, mirroring the paper's fault
model one layer up:

* **Injected death** (:meth:`ShardRouter.kill_shard`) — the operator
  *tells* the router a shard is dead.  Queued requests abort loudly,
  the shard's virtual nodes leave the hash ring (so no new tenant can
  land on a corpse), and — with ``auto_failover=True`` — its tenants
  immediately fail over to survivors.
* **Inferred death** (:meth:`ShardRouter.crash_shard` + the
  :class:`~repro.service.health.FailureDetector`) — the shard simply
  stops answering :meth:`probe_shard` heartbeats; the router's own
  state still says "alive".  Death is established by the detector's
  alive → suspect → dead state machine, exactly as the paper's safety
  levels infer unreachability from local information rather than an
  oracle.  Confirmed death then triggers the same failover path.

**Failover** re-places each downed tenant on a surviving shard and
rebuilds its service *exactly*: every tenant's initial fault set and
each subsequent ``inject_faults`` delta are journaled at the router, so
recovery replays the journal through a fresh
:class:`~repro.service.epoch.EpochManager` — the recovered epoch number
and fault state are bit-identical to the lost shard's, and the replay
seals the tables as a side effect.
Requests caught in the window fail with retryable errors
(:class:`ShardRetryError` → ``E_RETRY``, :class:`TenantMovedError` →
``E_MOVED``) that the resilient client (:mod:`repro.service.client`)
absorbs, so a mid-stream kill costs callers latency, not answers.

**Admission control** bounds each tenant's in-flight rows *above* the
micro-batcher (whose row gate waits rather than sheds): past the limit
the router refuses with :class:`OverloadError` → ``E_OVERLOAD`` and a
``service.shed_requests`` count.  A per-tenant ``priority`` knob scales
the limit, the first slice of per-tenant QoS.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, \
    Tuple

from ..core.faults import FaultSet
from ..obs.instruments import (
    record_shard_down,
    record_shard_failover,
    record_shard_request,
    record_shed_request,
)
from .epoch import EpochSwap
from .service import BlockResponse, RoutingService, ServiceConfig, \
    ServiceResponse
from .wire import E_MOVED, E_OVERLOAD, E_RETRY, E_SHARD_DOWN, \
    E_UNKNOWN_TENANT

__all__ = ["ShardDownError", "ShardRetryError", "TenantMovedError",
           "OverloadError", "UnknownTenantError", "HashRing", "Shard",
           "TenantJournal", "FailoverReport", "ShardRouter"]


class ShardDownError(RuntimeError):
    """The tenant's shard is dead and nothing will bring it back: with
    failover disabled (or no survivors) its requests fail structurally."""

    code = E_SHARD_DOWN


class ShardRetryError(RuntimeError):
    """Transient shard trouble (crash window, failover in flight): the
    request was *not* served, and retrying after a short backoff is the
    correct client response."""

    code = E_RETRY


class TenantMovedError(RuntimeError):
    """The tenant was re-placed on a live shard while this request was
    in flight: re-resolve and retry immediately."""

    code = E_MOVED


class OverloadError(RuntimeError):
    """Admission control shed the request: the tenant is over its
    in-flight budget; back off and retry."""

    code = E_OVERLOAD


class UnknownTenantError(KeyError):
    """No tenant with that name is registered with the router."""

    code = E_UNKNOWN_TENANT

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0] if self.args else "unknown tenant"


class HashRing:
    """Consistent-hash placement of string keys onto shard ids.

    :attr:`VNODES` virtual points per shard smooth the distribution; SHA-1
    keeps placement stable across processes and Python hash
    randomization (``hash()`` is salted per process — useless here).
    Removing a shard drops only its own points, so keys that placed on
    survivors stay put — the property failover relies on.
    """

    VNODES = 64

    def __init__(self, shard_ids: Sequence[int]) -> None:
        if not shard_ids:
            raise ValueError("a hash ring needs at least one shard")
        self._ids = set(int(sid) for sid in shard_ids)
        self._hashes: List[int] = []
        self._shards: List[int] = []
        self._rebuild()

    def _rebuild(self) -> None:
        points: List[Tuple[int, int]] = []
        for sid in sorted(self._ids):
            for v in range(self.VNODES):
                digest = hashlib.sha1(f"shard{sid}#{v}".encode()).digest()
                points.append((int.from_bytes(digest[:8], "big"), sid))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._shards = [s for _, s in points]

    def __contains__(self, sid: int) -> bool:
        return sid in self._ids

    def ids(self) -> List[int]:
        return sorted(self._ids)

    def remove(self, sid: int) -> bool:
        """Drop a shard's virtual nodes; True if it was present.

        The ring may go empty (every shard dead); :meth:`place` then
        raises ``LookupError`` and the router translates that into a
        structured no-survivors error.
        """
        if sid not in self._ids:
            return False
        self._ids.discard(sid)
        self._rebuild()
        return True

    def add(self, sid: int) -> bool:
        """(Re)insert a shard's virtual nodes; True if it was absent."""
        if sid in self._ids:
            return False
        self._ids.add(int(sid))
        self._rebuild()
        return True

    def place(self, key: str) -> int:
        if not self._hashes:
            raise LookupError("hash ring is empty (no live shards)")
        digest = hashlib.sha1(key.encode("utf-8")).digest()
        point = int.from_bytes(digest[:8], "big")
        idx = bisect.bisect(self._hashes, point) % len(self._hashes)
        return self._shards[idx]


@dataclass
class Shard:
    """One failure domain: its tenants' services, and whether it lives.

    ``alive`` is what the *router* believes; ``responsive`` is what the
    shard actually does.  A crashed shard has ``alive=True,
    responsive=False`` until the failure detector confirms death — that
    gap is the whole point of inferred failure.
    """

    shard_id: int
    alive: bool = True
    responsive: bool = True
    beats: int = 0
    tenants: Dict[str, RoutingService] = field(default_factory=dict)


@dataclass
class TenantJournal:
    """Everything needed to rebuild a tenant's service exactly.

    ``initial`` plus the ordered ``deltas`` (one per successful
    ``inject_faults``) determine both the current fault set *and* the
    current epoch number (``1 + len(deltas)``), so failover replay is
    bit-exact — same faults, same epoch, same tables.
    """

    dimension: int
    tie_break: str
    priority: int
    initial: FaultSet
    deltas: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = \
        field(default_factory=list)
    generation: int = 0

    def recovered_faults(self) -> FaultSet:
        """The fault set the journal folds to (initial + all deltas)."""
        nodes = set(self.initial.nodes)
        for add, remove in self.deltas:
            nodes |= set(add)
            nodes -= set(remove)
        return FaultSet(nodes=sorted(nodes), links=self.initial.links)

    def recovered_epoch(self) -> int:
        """The epoch number a replayed service lands on."""
        return 1 + len(self.deltas)


@dataclass
class FailoverReport:
    """One completed failover: who died, who moved where, how fast."""

    shard_id: int
    detected: str                # "injected" | "inferred"
    tenants: List[str]           # tenants that were on the dead shard
    moved: Dict[str, int]        # tenant -> new shard (empty: no survivors)
    epochs_replayed: int         # journal deltas replayed across tenants
    failover_ms: float


class ShardRouter:
    """Front-end multiplexing many tenant cubes over a shard pool.

    Use as an async context manager::

        async with ShardRouter(shards=2) as router:
            await router.add_tenant("blue", dimension=8, faults=faults)
            resp = await router.route("blue", src, dst)
            block = await router.route_block("blue", srcs, dsts)
            await router.kill_shard(router.shard_of("blue"))   # chaos

    ``auto_failover=True`` makes :meth:`kill_shard` migrate the dead
    shard's tenants to survivors instead of leaving them down (and is
    what the :class:`~repro.service.health.FailureDetector` assumes when
    it confirms an inferred death).  ``max_tenant_inflight`` (rows)
    switches on per-tenant admission control.
    """

    def __init__(
        self,
        shards: int = 2,
        workers: int = 0,
        max_batch: int = ServiceConfig.max_batch,
        window_us: int = ServiceConfig.window_us,
        auto_failover: bool = False,
        max_tenant_inflight: Optional[int] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        # Kept only because perfbench/launcher.py passes workers=0.
        if workers != 0:
            raise ValueError(
                f"workers={workers}: the process-pool backend was removed; "
                f"kernel calls run on the event loop's thread")
        if max_tenant_inflight is not None and max_tenant_inflight < 1:
            raise ValueError("max_tenant_inflight must be >= 1 (or None)")
        self.auto_failover = auto_failover
        self.max_tenant_inflight = max_tenant_inflight
        self._defaults = dict(max_batch=max_batch, window_us=window_us)
        self.shards: Dict[int, Shard] = {
            sid: Shard(shard_id=sid) for sid in range(shards)}
        self._ring = HashRing(sorted(self.shards))
        self._placement: Dict[str, int] = {}
        self._journals: Dict[str, TenantJournal] = {}
        self._inflight: Dict[str, int] = {}
        #: ("down" | "failover", shard id) -> the outcome every caller of
        #: that shard's one death confirmation / failover awaits.
        self._flights: Dict[Tuple[str, int], asyncio.Future] = {}
        self.failovers: List[FailoverReport] = []
        self.shed = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    async def __aenter__(self) -> "ShardRouter":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def close(self) -> None:
        """Drain every live tenant; stop the others."""
        if self._closed:
            return
        self._closed = True
        for shard in self.shards.values():
            for svc in shard.tenants.values():
                if shard.alive and shard.responsive:
                    await svc.close()
                else:
                    svc.terminate()

    # -- tenants -------------------------------------------------------------

    async def add_tenant(
        self,
        name: str,
        dimension: int,
        faults: Optional[FaultSet] = None,
        tie_break: str = "lowest-dim",
        name_token: Optional[str] = None,
        priority: int = 0,
    ) -> int:
        """Register a tenant cube; returns the shard it was placed on.

        ``priority`` scales the tenant's admission budget (limit ×
        (priority + 1)) when ``max_tenant_inflight`` is set.
        ``name_token`` is accepted and unused (perfbench/launcher.py
        passes it).
        """
        if self._closed:
            raise RuntimeError("router is closed")
        if name in self._placement:
            raise ValueError(f"tenant {name!r} already registered")
        if priority < 0:
            raise ValueError(f"priority must be >= 0, got {priority}")
        try:
            sid = self._ring.place(name)
        except LookupError:
            raise ShardDownError(
                f"tenant {name!r} cannot be placed: no live shards") from None
        shard = self.shards[sid]
        if not shard.alive:
            # Unreachable once dead shards leave the ring, but the check
            # stays: placing a tenant on a corpse must never be silent.
            raise ShardDownError(
                f"tenant {name!r} places on shard {sid}, which is down")
        config = ServiceConfig(dimension=dimension, tie_break=tie_break,
                               **self._defaults)
        svc = RoutingService(config, faults=faults)
        await svc.__aenter__()
        shard.tenants[name] = svc
        self._placement[name] = sid
        self._journals[name] = TenantJournal(
            dimension=dimension, tie_break=tie_break, priority=priority,
            initial=faults if faults is not None else FaultSet())
        return sid

    def shard_of(self, tenant: str) -> int:
        """The shard a registered tenant lives on (dead or alive)."""
        try:
            return self._placement[tenant]
        except KeyError:
            raise UnknownTenantError(
                f"tenant {tenant!r} is not registered") from None

    def service_of(self, tenant: str) -> RoutingService:
        """The tenant's service; raises if unknown or its shard is down."""
        return self._resolve(tenant)[1]

    def _resolve(self, tenant: str) -> Tuple[int, RoutingService]:
        sid = self.shard_of(tenant)
        shard = self.shards[sid]
        if not shard.alive:
            record_shard_request(tenant, routes=0, error=True)
            raise self._translate_down(tenant, ShardDownError(
                f"tenant {tenant!r} is on shard {sid}, which is down"))
        if not shard.responsive:
            # Crashed but not yet confirmed dead: the only honest answer
            # is "retry" — the detector will rule, then failover moves us.
            record_shard_request(tenant, routes=0, error=True)
            raise self._translate_down(tenant, ShardRetryError(
                f"tenant {tenant!r} is on shard {sid}, "
                f"which stopped responding"))
        return sid, shard.tenants[tenant]

    def tenants(self) -> Dict[str, int]:
        """tenant name -> shard id, every registration (dead shards too)."""
        return dict(self._placement)

    def set_priority(self, tenant: str, priority: int) -> None:
        """Adjust a tenant's admission priority (QoS knob)."""
        if priority < 0:
            raise ValueError(f"priority must be >= 0, got {priority}")
        self.shard_of(tenant)  # raises UnknownTenantError if absent
        self._journals[tenant].priority = priority

    # -- admission control ---------------------------------------------------

    def admission_limit(self, tenant: str) -> Optional[int]:
        """The tenant's in-flight row budget (None: admission disabled)."""
        if self.max_tenant_inflight is None:
            return None
        journal = self._journals.get(tenant)
        priority = journal.priority if journal is not None else 0
        return self.max_tenant_inflight * (priority + 1)

    def _admit(self, tenant: str, rows: int, singles: bool) -> int:
        """Admit ``rows`` in-flight rows for ``tenant``; returns how many.

        A block is one request: admitted whole or shed.  With ``singles``
        every row is a request of its own, as if each had arrived alone:
        the leading rows that fit the budget are admitted and each row
        past it is shed (and counted) by itself.  Nothing admitted raises
        :class:`OverloadError`.
        """
        limit = self.admission_limit(tenant)
        if limit is None:
            return rows
        current = self._inflight.get(tenant, 0)
        admitted = rows
        if current + rows > limit:
            admitted = max(0, limit - current) if singles else 0
            shed = rows - admitted if singles else 1
            self.shed += shed
            for _ in range(shed):
                record_shed_request(tenant, rows=1 if singles else rows)
        if not admitted:
            raise OverloadError(
                f"tenant {tenant!r} over its admission budget "
                f"({current}+{rows} > {limit} in-flight rows); shed")
        self._inflight[tenant] = current + admitted
        return admitted

    def _release(self, tenant: str, rows: int) -> None:
        if self.max_tenant_inflight is None:
            return
        self._inflight[tenant] = max(
            0, self._inflight.get(tenant, 0) - rows)

    # -- the request path ----------------------------------------------------

    def _translate_down(self, tenant: str, exc: Exception) -> Exception:
        """Decide what a caller hears when its request died under a shard.

        If the tenant has already been re-placed on a live, responsive
        shard the answer is "moved" (retry immediately); if failover is
        pending the answer is "retry" (back off first); otherwise the
        original terminal error stands.
        """
        sid = self._placement.get(tenant)
        if sid is not None:
            shard = self.shards[sid]
            if shard.alive and shard.responsive and tenant in shard.tenants:
                return TenantMovedError(
                    f"tenant {tenant!r} moved to shard {sid}; retry there")
        if isinstance(exc, ShardRetryError):
            return exc
        if self.auto_failover and isinstance(exc, ShardDownError):
            return ShardRetryError(f"{exc} (failover pending; retry)")
        return exc

    def _died_under(self, tenant: str, sid: int,
                    exc: Exception) -> Exception:
        """Classify a request failure by what happened to its shard.

        A request caught under a crash can surface the teardown's raw
        debris (a closed epoch manager) instead of the structured abort
        — if the shard that served it is no longer live, the honest
        answer is the same retryable taxonomy, not the debris.  A failure
        on a healthy shard is a real bug and propagates unchanged.
        """
        if isinstance(exc, (ShardDownError, ShardRetryError)):
            return self._translate_down(tenant, exc)
        shard = self.shards[sid]
        if not (shard.alive and shard.responsive):
            return self._translate_down(tenant, ShardRetryError(
                f"tenant {tenant!r}'s shard {sid} died mid-request "
                f"({type(exc).__name__}: {exc})"))
        return exc

    async def _serve(self, tenant: str, rows: int, call,
                     singles: bool = False):
        """Resolve, admit ``rows``, await ``call(svc, admitted)``, release:
        the one request path under :meth:`route` and :meth:`route_block`."""
        sid, svc = self._resolve(tenant)
        admitted = self._admit(tenant, rows, singles)
        try:
            result = await call(svc, admitted)
        except Exception as exc:
            record_shard_request(tenant, routes=0, error=True)
            raise self._died_under(tenant, sid, exc) from None
        finally:
            self._release(tenant, admitted)
        record_shard_request(tenant, routes=admitted)
        return result

    async def route(self, tenant: str, src: int, dst: int) -> ServiceResponse:
        return await self._serve(tenant, 1,
                                 lambda svc, _rows: svc.route(src, dst))

    async def route_block(
        self, tenant: str, srcs: Sequence[int], dsts: Sequence[int], *,
        singles: bool = False,
    ) -> BlockResponse:
        """Route ``srcs[i] -> dsts[i]`` as one block against one epoch.

        ``srcs``/``dsts`` are numpy vectors or lists of ints.  The block
        is one request to admission control, admitted whole or shed.
        ``singles=True`` (a server's run of ROUTE frames) makes each row
        a request of its own: the rows within the tenant's budget are
        routed, each row past it is shed alone, and the response covers
        only the admitted leading rows.
        """
        rows = len(srcs)

        def call(svc, admitted):
            if admitted < rows:
                return svc.route_block(srcs[:admitted], dsts[:admitted])
            return svc.route_block(srcs, dsts)

        return await self._serve(tenant, rows, call, singles)

    async def inject_faults(
        self, tenant: str, add: Sequence[int] = (),
        remove: Sequence[int] = ()
    ) -> EpochSwap:
        sid, svc = self._resolve(tenant)
        try:
            swap = await svc.inject_faults(add=add, remove=remove)
        except Exception as exc:
            raise self._died_under(tenant, sid, exc) from None
        # Journal only applied deltas (no await between return and append,
        # so a concurrent crash cannot split the two): replaying
        # initial + deltas reproduces the fault set AND the epoch number.
        self._journals[tenant].deltas.append((
            tuple(int(x) for x in add), tuple(int(x) for x in remove)))
        return swap

    # -- failure domains -----------------------------------------------------

    def probe_shard(self, shard_id: int) -> Optional[int]:
        """One liveness probe: a fresh heartbeat count, or None (no answer).

        This is the seam the :class:`~repro.service.health.FailureDetector`
        polls.  A killed or crashed shard returns None — from the
        prober's side a timeout and a corpse look identical, which is
        exactly why death must be *inferred* via the suspect window.
        """
        shard = self.shards[shard_id]
        if not shard.alive or not shard.responsive:
            return None
        shard.beats += 1
        return shard.beats

    async def _halt_tenants(self, shard: Shard, retryable: bool) -> None:
        """Abort queued work and tear down every service on a shard."""
        # A snapshot: a failover may re-place tenants between the awaits.
        for name, svc in list(shard.tenants.items()):
            if retryable:
                exc: Exception = ShardRetryError(
                    f"shard {shard.shard_id} (tenant {name!r}) is down; "
                    f"failover pending")
            else:
                exc = ShardDownError(
                    f"shard {shard.shard_id} (tenant {name!r}) was killed")
            svc.batcher.abort(exc)
            # Let in-flight flush tasks settle before the service stops.
            await asyncio.sleep(0)
            svc.terminate()

    async def crash_shard(self, shard_id: int) -> List[str]:
        """Simulate a fail-stop crash: the shard stops answering, but the
        router is *not told* — ``alive`` stays True, placement stays put,
        the ring keeps the vnodes.  Only the failure detector's probes
        can establish death and trigger failover.  Queued requests fail
        with the retryable :class:`ShardRetryError` (the shard's state is
        unknown, so "retry" is the only honest verdict).
        """
        shard = self.shards[shard_id]
        if not shard.alive or not shard.responsive:
            return sorted(shard.tenants)
        shard.responsive = False
        downed = sorted(shard.tenants)
        await self._halt_tenants(shard, retryable=True)
        return downed

    async def _once(self, key: Tuple[str, int],
                    body: Callable[[], Awaitable]):
        """Single-flight per ``key``.  The first caller files a future
        before any await, then runs ``body()`` itself, so it starts at
        once as a plain call would; every concurrent or later caller
        awaits that future and gets the same result."""
        flight = self._flights.get(key)
        if flight is not None:
            # Shielded: a cancelled waiter must not cancel the others'.
            return await asyncio.shield(flight)
        flight = self._flights[key] = \
            asyncio.get_running_loop().create_future()
        try:
            result = await body()
        except BaseException as exc:
            # Waiters hear why; a later call starts afresh.
            del self._flights[key]
            flight.set_exception(exc)
            flight.exception()  # retrieved: waiters re-raise, none logs it
            raise
        flight.set_result(result)
        return result

    async def _confirm_down(self, shard_id: int, retryable: bool) -> List[str]:
        """Establish a shard as dead, once: mark it, pull its vnodes from
        the ring (a corpse must never receive a new tenant), abort
        queued work, count the death.  Concurrent callers share the
        first one's confirmation and get its tenant list."""
        return await self._once(("down", shard_id),
                                lambda: self._mark_down(shard_id, retryable))

    async def _mark_down(self, shard_id: int, retryable: bool) -> List[str]:
        shard = self.shards[shard_id]
        already_halted = not shard.responsive  # crash tore services down
        shard.alive = False
        shard.responsive = False
        self._ring.remove(shard_id)
        downed = sorted(shard.tenants)
        if not already_halted:
            await self._halt_tenants(shard, retryable=retryable)
        record_shard_down(shard_id, tenants=len(downed))
        return downed

    async def kill_shard(
        self, shard_id: int, failover: Optional[bool] = None
    ) -> List[str]:
        """Kill one failure domain; returns the tenant names taken down.

        Queued requests on the shard's batchers fail immediately
        (:class:`ShardDownError`, or the retryable
        :class:`ShardRetryError` when failover will follow); in-flight
        kernel calls resolve (or fail) on their own, and the shard's
        virtual nodes leave the hash ring so new tenants place on
        survivors.  With ``failover`` (default: the router's
        ``auto_failover``), tenants are immediately re-placed via
        :meth:`fail_over_shard`.
        """
        do_failover = self.auto_failover if failover is None else failover
        downed = await self._confirm_down(shard_id, retryable=do_failover)
        if do_failover:
            await self.fail_over_shard(shard_id, detected="injected")
        return downed

    async def fail_over_shard(
        self, shard_id: int, detected: str = "inferred"
    ) -> FailoverReport:
        """Migrate a dead shard's tenants to survivors, exactly.

        For each tenant: rebuild its service from the journal's initial
        fault set, replay every journaled ``inject_faults`` delta through
        the fresh epoch manager — the recovered epoch number and fault
        state match the lost shard's bit-for-bit — then place it on the
        survivor ring.  The replay runs on the loop's thread and yields
        after each delta, so other tenants are served meanwhile; placing
        only after it means a shard killed during the replay is never
        chosen.  Runs once per shard: a concurrent or later call returns
        the first call's report.  A tenant with no survivor left is
        stranded: it stays down and is absent from ``moved``.
        """
        return await self._once(("failover", shard_id),
                                lambda: self._fail_over(shard_id, detected))

    async def _fail_over(self, shard_id: int, detected: str) -> FailoverReport:
        start = time.perf_counter()
        shard = self.shards[shard_id]
        await self._confirm_down(shard_id, retryable=True)
        names = sorted(shard.tenants)
        moved: Dict[str, int] = {}
        epochs_replayed = 0
        for name in names:
            if not any(s.alive for s in self.shards.values()):
                break
            journal = self._journals[name]
            config = ServiceConfig(
                dimension=journal.dimension, tie_break=journal.tie_break,
                **self._defaults)
            svc = RoutingService(config, faults=journal.initial)
            await svc.__aenter__()
            for add, remove in tuple(journal.deltas):
                svc.epochs.apply_fault_event(add=add, remove=remove)
                epochs_replayed += 1
                # other tenants are served between deltas
                await asyncio.sleep(0)
            try:
                new_sid = self._ring.place(name)
            except LookupError:  # every survivor died during the replay
                svc.terminate()
                break
            # no await from placing to registering: the shard is alive
            journal.generation += 1
            del shard.tenants[name]
            self.shards[new_sid].tenants[name] = svc
            self._placement[name] = new_sid
            moved[name] = new_sid
        failover_ms = (time.perf_counter() - start) * 1e3
        report = FailoverReport(
            shard_id=shard_id, detected=detected, tenants=names,
            moved=moved, epochs_replayed=epochs_replayed,
            failover_ms=failover_ms)
        self.failovers.append(report)
        record_shard_failover(
            shard_id, tenants=len(names), moved=len(moved),
            failover_ms=failover_ms, epochs_replayed=epochs_replayed,
            detected=detected)
        return report

    def journal_of(self, tenant: str) -> TenantJournal:
        """The tenant's fault journal (read-mostly; tests and the soak
        use it to derive the expected recovered epoch offline)."""
        self.shard_of(tenant)  # raises UnknownTenantError if absent
        return self._journals[tenant]

    def live_shards(self) -> List[int]:
        return sorted(s.shard_id for s in self.shards.values() if s.alive)
