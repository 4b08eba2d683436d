"""Resilient unicast delivery: the Section 3.2 protocol hardened for
mid-flight faults.

:mod:`repro.routing.distributed` runs the paper's algorithm verbatim —
correct under the static fault model, but a message that meets a fault
injected *after* GS stabilized is silently lost.  This module wraps the
same source/intermediate rules in a delivery protocol that turns every
loss into either a successful re-route or a *detected* failure:

* **hop-level ACKs** — every data transmission is acknowledged by the
  receiving hop; a missing ACK makes the forwarder *suspect* that
  neighbor (the paper's local fault detection, extended to links) and
  NACK back to the source along the traversed path;
* **source-side timeout + bounded exponential backoff** — the source
  backstops lost NACKs with an attempt timer and retries after
  ``backoff_base * 2**retry`` ticks (capped);
* **re-route after reconvergence** — before each retry the source
  refreshes safety levels from the live fault picture (warm-started GS,
  see :class:`repro.safety.dynamic.IncrementalLevelView`), unless a
  chaos staleness window forbids it (then the re-route runs on stale
  levels and is counted);
* **graceful degradation** — optimal (C1/C2) → suboptimal (C3) →
  DFS-backtrack source-routing → *detected* failure.  The run never
  ends in silence: the destination either accepted the payload exactly
  once, or the source knows delivery failed.

The protocol degenerates exactly to the paper's algorithm when all
faults predate ``start()``: same feasibility draws, same walk, same
path (a property test asserts this against
:func:`~repro.routing.distributed.route_unicast_distributed`).

Intermediate nodes keep the paper's local-information discipline: own
level, neighbor levels, the carried navigation vector — plus a *local*
suspicion set fed only by their own failure detections.  The carried
path is consulted for exactly two resilience duties the static protocol
lacks: routing NACK/DLV notifications backward, and never re-entering a
node already visited by this attempt (which preserves the Theorem 3
``H + 2`` bound per attempt even under suspicion-filtered choices).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..chaos import ChaosController, ChaosPlan, check_chaos_invariants
from ..core.fault_models import RngLike, as_rng
from ..obs.instruments import record
from ..results import base_record
from ..safety.dynamic import IncrementalLevelView
from ..safety.levels import SafetyLevels
from ..simcore.errors import DeliveryTimeout
from ..simcore.message import Message
from ..simcore.network import Network
from ..simcore.node import NodeProcess
from . import navigation as nav
from .baselines.dfs_backtrack import route_dfs
from .result import RouteResult, RouteStatus, SourceCondition

__all__ = [
    "ResilientUnicastProcess",
    "AttemptRecord",
    "ResilientResult",
    "route_unicast_resilient",
    "KIND_DATA",
    "KIND_DFS",
    "KIND_ACK",
    "KIND_NACK",
    "KIND_DLV",
]

ROUTER_NAME = "safety-level-resilient"

KIND_DATA = "runi-data"   #: level-routed payload hop
KIND_DFS = "runi-dfs"     #: source-routed payload hop (fallback stage)
KIND_ACK = "runi-ack"     #: hop-level acknowledgement
KIND_NACK = "runi-nack"   #: failure notice routed back to the source
KIND_DLV = "runi-dlv"     #: delivery notice routed back to the source

#: Ladder stages, in descent order.
STAGE_OPTIMAL = "optimal"
STAGE_SUBOPTIMAL = "suboptimal"
STAGE_DFS = "dfs"


# ---------------------------------------------------------------------------
# result objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttemptRecord:
    """One delivery attempt, as verified post-run from receiver logs.

    ``path`` is the longest receipt-confirmed prefix the attempt's data
    message traversed (ground truth from process logs, not the source's
    belief); ``hops`` is its link count.
    """

    index: int
    stage: str               # optimal / suboptimal / dfs
    condition: SourceCondition
    outcome: str             # delivered / nack / timeout / superseded
    path: List[int]
    hops: int
    reason: Optional[str] = None


@dataclass(frozen=True)
class ResilientResult:
    """Outcome of one resilient unicast (satisfies ``ResultLike``).

    ``status`` is ground truth measured at the destination after the
    run — ``"delivered"`` iff the destination accepted the payload
    (exactly once), ``"failed-detected"`` otherwise.  A delivery whose
    confirmation was lost still counts as delivered; the protocol never
    reports a *silent* outcome either way.
    """

    source: int
    dest: int
    n: int
    hamming: int
    status: str                        # delivered / failed-detected
    stage: str                         # stage that ended the run, or "none"
    attempts: List[AttemptRecord] = field(default_factory=list)
    deliveries: int = 0
    duplicates: int = 0
    node_kills: int = 0
    link_kills: int = 0
    tampered: int = 0
    stale_reroutes: int = 0
    latency: Optional[int] = None
    gs_rounds: int = 0
    gs_messages: int = 0
    detail: Optional[str] = None
    router: str = ROUTER_NAME

    @property
    def delivered(self) -> bool:
        return self.status == "delivered"

    @property
    def retries(self) -> int:
        return max(0, len(self.attempts) - 1)

    @property
    def hops(self) -> int:
        """Data-message links traversed, summed over all attempts."""
        return sum(a.hops for a in self.attempts)

    def chaos_record(self) -> Dict[str, Any]:
        """The flat payload of one ``chaos_run`` telemetry event."""
        record: Dict[str, Any] = {
            "n": self.n,
            "hamming": self.hamming,
            "status": self.status,
            "stage": self.stage,
            "attempts": len(self.attempts),
            "retries": self.retries,
            "node_kills": self.node_kills,
            "link_kills": self.link_kills,
            "tampered": self.tampered,
            "duplicates": self.duplicates,
            "stale_reroutes": self.stale_reroutes,
            "hops": self.hops,
        }
        if self.latency is not None:
            record["latency"] = self.latency
        return record

    def to_route_result(self) -> RouteResult:
        """Project onto the static routers' result type for comparisons.

        Delivered runs map to ``DELIVERED`` with the accepted path;
        zero-attempt failures map to ``ABORTED_AT_SOURCE`` (the source
        rule detected infeasibility and never injected the message);
        other failures map to ``STUCK`` with the last verified path.
        """
        if self.delivered:
            last = next(a for a in self.attempts if a.outcome == "delivered")
            return RouteResult(
                router=self.router, source=self.source, dest=self.dest,
                hamming=self.hamming, status=RouteStatus.DELIVERED,
                path=list(last.path), condition=last.condition,
            )
        if not self.attempts:
            return RouteResult(
                router=self.router, source=self.source, dest=self.dest,
                hamming=self.hamming, status=RouteStatus.ABORTED_AT_SOURCE,
                detail=self.detail or "C1, C2 and C3 all fail at the source",
            )
        last = self.attempts[-1]
        return RouteResult(
            router=self.router, source=self.source, dest=self.dest,
            hamming=self.hamming, status=RouteStatus.STUCK,
            path=list(last.path), condition=last.condition,
            detail=self.detail or f"attempt {last.index} {last.outcome}",
        )

    def to_dict(self) -> Dict[str, Any]:
        return base_record(
            self,
            router=self.router,
            source=self.source,
            dest=self.dest,
            n=self.n,
            hamming=self.hamming,
            stage=self.stage,
            attempts=[
                {
                    "index": a.index, "stage": a.stage,
                    "condition": a.condition, "outcome": a.outcome,
                    "path": list(a.path), "hops": a.hops,
                    "reason": a.reason,
                }
                for a in self.attempts
            ],
            retries=self.retries,
            hops=self.hops,
            deliveries=self.deliveries,
            duplicates=self.duplicates,
            node_kills=self.node_kills,
            link_kills=self.link_kills,
            tampered=self.tampered,
            stale_reroutes=self.stale_reroutes,
            latency=self.latency,
            gs_rounds=self.gs_rounds,
            gs_messages=self.gs_messages,
            detail=self.detail,
        )

    def summary(self) -> str:
        head = (
            f"{self.router}: {self.source} -> {self.dest} "
            f"[H={self.hamming}] {self.status}"
        )
        tail = (
            f"{len(self.attempts)} attempt(s), stage {self.stage}, "
            f"{self.node_kills}+{self.link_kills} kills, "
            f"{self.tampered} tampered"
        )
        if self.latency is not None:
            tail += f", latency {self.latency}"
        return f"{head} ({tail})"


# ---------------------------------------------------------------------------
# the node process
# ---------------------------------------------------------------------------


class ResilientUnicastProcess(NodeProcess):
    """Level-based forwarding plus the hop-ACK delivery machinery.

    Every node runs the same code; the node the driver calls
    :meth:`begin_delivery` on additionally plays the source role
    (attempt ladder, retries, backoff).  Post-run, the driver reads
    ``data_log`` / ``accepted*`` / ``duplicates`` as measurement — the
    protocol itself never peeks across nodes.
    """

    def __init__(self, n: int, own_level: int,
                 level_of_neighbor: Dict[int, int],
                 tie_break: nav.TieBreak, rng) -> None:
        super().__init__()
        self.n = n
        self.own_level = own_level
        self.level_of_neighbor = level_of_neighbor
        self.tie_break = tie_break
        self._rng = rng
        #: Neighbors this node locally believes unreachable (dead node,
        #: dead link, or hop-ACK timeout).  Never shared between nodes.
        self.suspected: Set[int] = set()
        # hop-dedup keys (attempt, position) of primary data receipts
        self._seen: Set[Tuple[int, int]] = set()
        #: (attempt, path-so-far) for every primary data receipt.
        self.data_log: List[Tuple[int, Tuple[int, ...]]] = []
        # destination-role state
        self.accepted = False
        self.accepted_attempt: Optional[int] = None
        self.accepted_path: Optional[Tuple[int, ...]] = None
        self.accepted_time: Optional[int] = None
        self.duplicates = 0
        # in-flight transmissions awaiting a hop ACK:
        # (attempt, token) -> (next_hop, back_path)
        self._pending: Dict[Tuple[int, int], Tuple[int, Tuple[int, ...]]] = {}
        self.ack_timeout = 3
        # source-role state (populated by begin_delivery)
        self._is_source = False
        self.dest: Optional[int] = None
        self.stale_reroutes = 0

    # -- failure detection ----------------------------------------------------

    def on_neighbor_failure(self, neighbor: int) -> None:
        self.suspected.add(neighbor)

    def on_link_failure(self, neighbor: int) -> None:
        self.suspected.add(neighbor)

    # -- source role ----------------------------------------------------------

    def begin_delivery(
        self,
        dest: int,
        *,
        max_attempts: int,
        fallback_attempts: int,
        ack_timeout: int,
        hop_ticks: int,
        attempt_slack: int,
        backoff_base: int,
        backoff_cap: int,
        reconverge_cb: Optional[Callable[[], None]] = None,
        stale_cb: Optional[Callable[[], bool]] = None,
        dfs_cb: Optional[Callable[[], Optional[List[int]]]] = None,
    ) -> None:
        """Start delivering one payload to ``dest`` (source role)."""
        self._is_source = True
        self.dest = dest
        self.max_attempts = max_attempts
        self.fallback_left = fallback_attempts
        self.ack_timeout = ack_timeout
        self.hop_ticks = hop_ticks
        self.attempt_slack = attempt_slack
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.reconverge_cb = reconverge_cb
        self.stale_cb = stale_cb
        self.dfs_cb = dfs_cb
        self.attempt_no = 0
        self.normal_used = 0
        self.normal_exhausted = False
        self.retry_count = 0
        self.done = False
        self.failed = False
        self._closed: Set[int] = set()
        #: attempt -> (stage, condition) at launch time.
        self.attempt_meta: Dict[int, Tuple[str, SourceCondition]] = {}
        #: attempt -> (outcome, reason) as known at the source.
        self.outcomes: Dict[int, Tuple[str, Optional[str]]] = {}
        if dest == self.node_id:
            self.attempt_no = 1
            self.attempt_meta[1] = (STAGE_OPTIMAL, SourceCondition.C1)
            self._accept(1, (self.node_id,))
            return
        self._launch_next()

    def _feasibility(self) -> Tuple[SourceCondition, Optional[int]]:
        """The paper's C1/C2/C3 source tests over *usable* neighbors.

        With an empty suspicion set this consumes draws and returns
        results identical to
        :func:`repro.routing.safety_unicast.check_feasibility` — the
        degenerate-equivalence property depends on it.
        """
        vector = nav.initial_vector(self.node_id, self.dest)
        h = vector.bit_count()
        preferred = []
        for dim in nav.preferred_dims(vector, self.n):
            nb = self.node_id ^ (1 << dim)
            if nb in self.suspected:
                continue
            preferred.append((dim, self.level_of_neighbor[nb]))
        best = nav.pick_extreme(preferred, self.tie_break, self._rng)
        if best is not None and (self.own_level >= h or best[1] >= h - 1):
            condition = (SourceCondition.C1 if self.own_level >= h
                         else SourceCondition.C2)
            return condition, best[0]
        spare = []
        for dim in nav.spare_dims(vector, self.n):
            nb = self.node_id ^ (1 << dim)
            if nb in self.suspected:
                continue
            spare.append((dim, self.level_of_neighbor[nb]))
        best_spare = nav.pick_extreme(spare, self.tie_break, self._rng)
        if best_spare is not None and best_spare[1] >= h + 1:
            return SourceCondition.C3, best_spare[0]
        return SourceCondition.NONE, None

    def _launch_next(self) -> None:
        if self.done or self.failed:
            return
        if self.attempt_no > 0:
            # Re-route decision point: refresh levels unless a staleness
            # window pins us to the old assignment.
            if self.stale_cb is not None and self.stale_cb():
                self.stale_reroutes += 1
            elif self.reconverge_cb is not None:
                self.reconverge_cb()
        if not self.normal_exhausted:
            if self.normal_used >= self.max_attempts:
                self.normal_exhausted = True
            else:
                condition, dim = self._feasibility()
                if condition is not SourceCondition.NONE:
                    self._launch_level_attempt(condition, dim)
                    return
                # Source rule finds no guaranteed route: descend the
                # ladder for good (levels only get worse under failures).
                self.normal_exhausted = True
        if self.fallback_left > 0:
            self.fallback_left -= 1
            route = self.dfs_cb() if self.dfs_cb is not None else None
            if route is not None and len(route) > 1:
                self._launch_dfs_attempt(route)
                return
        self.failed = True
        self.trace("runi-failed", self.attempt_no)

    def _launch_level_attempt(self, condition: SourceCondition,
                              dim: int) -> None:
        self.attempt_no += 1
        self.normal_used += 1
        k = self.attempt_no
        stage = (STAGE_OPTIMAL
                 if condition in (SourceCondition.C1, SourceCondition.C2)
                 else STAGE_SUBOPTIMAL)
        self.attempt_meta[k] = (stage, condition)
        vector = nav.cross(nav.initial_vector(self.node_id, self.dest), dim)
        nxt = self.node_id ^ (1 << dim)
        path = (self.node_id, nxt)
        self._transmit(KIND_DATA, nxt, k, token=1,
                       payload=(k, vector, path), back=(self.node_id,))
        h = nav.initial_vector(self.node_id, self.dest).bit_count()
        budget = 2 * (h + 2) * self.hop_ticks + self.ack_timeout \
            + self.attempt_slack
        self.after(budget, lambda: self._attempt_timeout(k))

    def _launch_dfs_attempt(self, route: List[int]) -> None:
        self.attempt_no += 1
        k = self.attempt_no
        self.attempt_meta[k] = (STAGE_DFS, SourceCondition.NONE)
        route_t = tuple(route)
        self._transmit(KIND_DFS, route_t[1], k, token=1,
                       payload=(k, route_t, 1), back=(self.node_id,))
        budget = 2 * len(route_t) * self.hop_ticks + self.ack_timeout \
            + self.attempt_slack
        self.after(budget, lambda: self._attempt_timeout(k))

    def _attempt_failed(self, k: int, reason: Optional[str]) -> None:
        if self.done or self.failed or k in self._closed \
                or k != self.attempt_no:
            return
        self._closed.add(k)
        self.outcomes[k] = ("nack", reason)
        delay = min(self.backoff_base * (2 ** self.retry_count),
                    self.backoff_cap)
        self.retry_count += 1
        self.after(delay, self._launch_next)

    def _attempt_timeout(self, k: int) -> None:
        if self.done or self.failed or k in self._closed \
                or k != self.attempt_no:
            return
        self._closed.add(k)
        self.outcomes[k] = ("timeout", "attempt budget exhausted")
        # The budget already waited out the worst round-trip; retry now.
        self._launch_next()

    def _confirmed(self, k: int) -> None:
        if self.done:
            return
        self.done = True
        self.trace("runi-confirmed", k)

    # -- shared delivery machinery --------------------------------------------

    def _transmit(self, kind: str, nxt: int, k: int, token: int,
                  payload: Any, back: Tuple[int, ...]) -> None:
        units = len(payload[1]) if kind == KIND_DFS else 1
        self.send(nxt, kind, payload, payload_units=units)
        self._pending[(k, token)] = (nxt, back)
        self.after(self.ack_timeout, lambda: self._ack_deadline(k, token))

    def _ack_deadline(self, k: int, token: int) -> None:
        entry = self._pending.pop((k, token), None)
        if entry is None:
            return  # acknowledged in time
        nxt, back = entry
        self.suspected.add(nxt)
        self.trace("runi-suspect", nxt)
        self._route_back(KIND_NACK, k, back, len(back) - 1, "no-ack")

    def _route_back(self, kind: str, k: int, path: Tuple[int, ...],
                    idx: int, reason: Optional[str]) -> None:
        """Carry a NACK/DLV one step toward the source; ``path[idx]`` is
        this node.  Unacknowledged best-effort — the source's attempt
        timer backstops a lost notification."""
        if idx == 0:
            if kind == KIND_NACK:
                self._attempt_failed(k, reason)
            else:
                self._confirmed(k)
            return
        self.send(path[idx - 1], kind, (k, path, idx - 1, reason))

    def _accept(self, k: int, path: Tuple[int, ...]) -> None:
        """Destination role: accept once, suppress and count duplicates,
        confirm backward each time."""
        if self.accepted:
            self.duplicates += 1
            k = self.accepted_attempt  # confirm the accepted attempt
        else:
            self.accepted = True
            self.accepted_attempt = k
            self.accepted_path = path
            self.accepted_time = self.now
            self.trace("runi-accepted", path)
        self._route_back(KIND_DLV, k, path, len(path) - 1, None)

    # -- message handlers -----------------------------------------------------

    def on_message(self, msg: Message) -> None:
        if msg.kind == KIND_DATA:
            self._handle_data(msg)
        elif msg.kind == KIND_DFS:
            self._handle_dfs(msg)
        elif msg.kind == KIND_ACK:
            k, token = msg.payload
            self._pending.pop((k, token), None)
        elif msg.kind in (KIND_NACK, KIND_DLV):
            k, path, idx, reason = msg.payload
            self._route_back(msg.kind, k, path, idx, reason)
        else:  # pragma: no cover - protocol bug guard
            raise ValueError(f"unknown message kind {msg.kind!r}")

    def _handle_data(self, msg: Message) -> None:
        k, vector, path = msg.payload
        token = len(path) - 1
        self.send(msg.src, KIND_ACK, (k, token))
        if (k, token) in self._seen:
            # Duplicate of a hop already processed: re-ACKed above; only
            # the destination needs to account for it.
            if nav.is_complete(vector):
                self._accept(k, path)
            return
        self._seen.add((k, token))
        self.data_log.append((k, path))
        if nav.is_complete(vector):
            self._accept(k, path)
            return
        candidates = []
        for dim in nav.preferred_dims(vector, self.n):
            nb = self.node_id ^ (1 << dim)
            if nb in self.suspected or nb in path:
                continue
            candidates.append((dim, self.level_of_neighbor[nb]))
        choice = nav.pick_extreme(candidates, self.tie_break, self._rng)
        if choice is None:
            self._route_back(KIND_NACK, k, path, len(path) - 1, "stuck")
            return
        dim, level = choice
        nxt = self.node_id ^ (1 << dim)
        crossed = nav.cross(vector, dim)
        if level == 0 and not nav.is_complete(crossed):
            # The walk's stuck rule: every usable preferred neighbor is
            # 0-safe (faulty) and none is the destination.
            self._route_back(KIND_NACK, k, path, len(path) - 1, "stuck")
            return
        self._transmit(KIND_DATA, nxt, k, token=len(path),
                       payload=(k, crossed, path + (nxt,)), back=path)

    def _handle_dfs(self, msg: Message) -> None:
        k, route, idx = msg.payload
        self.send(msg.src, KIND_ACK, (k, idx))
        if (k, idx) in self._seen:
            if idx == len(route) - 1:
                self._accept(k, route[:idx + 1])
            return
        self._seen.add((k, idx))
        self.data_log.append((k, route[:idx + 1]))
        if idx == len(route) - 1:
            self._accept(k, route[:idx + 1])
            return
        self._transmit(KIND_DFS, route[idx + 1], k, token=idx + 1,
                       payload=(k, route, idx + 1), back=route[:idx + 1])


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def route_unicast_resilient(
    sl: SafetyLevels,
    source: int,
    dest: int,
    *,
    plan: Optional[ChaosPlan] = None,
    tie_break: nav.TieBreak = "lowest-dim",
    rng: RngLike = None,
    max_attempts: Optional[int] = None,
    fallback_attempts: int = 1,
    ack_timeout: Optional[int] = None,
    attempt_slack: int = 4,
    backoff_base: int = 2,
    backoff_cap: int = 16,
    reconverge: bool = True,
    trace: bool = False,
    strict: bool = False,
) -> Tuple[ResilientResult, Network]:
    """Deliver one unicast resiliently, optionally under a chaos plan.

    Returns ``(result, network)``.  The run-level invariants (no silent
    loss, at-most-once delivery, valid bounded paths) are asserted on
    the result before it is returned, and every run reports through the
    ``chaos_run`` observability hook.  ``strict=True`` raises
    :class:`~repro.simcore.errors.DeliveryTimeout` instead of returning
    a detected failure.

    ``max_attempts`` defaults to ``n + 1`` safety-level attempts —
    enough for every fault of a ``< n``-fault scenario to burn at most
    one attempt and still leave one for the post-reconvergence route
    that Property 2 guarantees feasible.
    """
    topo, faults = sl.topo, sl.faults
    topo.validate_node(source)
    topo.validate_node(dest)
    if faults.is_node_faulty(source):
        raise ValueError(f"source {topo.format_node(source)} is faulty")
    if faults.is_node_faulty(dest):
        raise ValueError(f"destination {topo.format_node(dest)} is faulty")
    n = topo.dimension
    h = topo.distance(source, dest)
    gen = as_rng(rng) if tie_break == "random" else None
    if max_attempts is None:
        max_attempts = n + 1

    # Timer budgets scale with the worst per-hop latency chaos can add.
    hop_ticks = 1
    if plan is not None:
        for tamper in plan.tampers:
            if tamper.delay_p > 0:
                hop_ticks = max(hop_ticks, 1 + tamper.max_extra_delay)
            if tamper.dup_p > 0:
                hop_ticks = max(hop_ticks, 2)
    if ack_timeout is None:
        ack_timeout = 2 * hop_ticks + 1

    procs: Dict[int, ResilientUnicastProcess] = {}

    def factory(node: int) -> ResilientUnicastProcess:
        proc = ResilientUnicastProcess(
            n=n,
            own_level=sl.level(node),
            level_of_neighbor={v: sl.level(v) for v in topo.neighbors(node)},
            tie_break=tie_break,
            rng=gen,
        )
        procs[node] = proc
        return proc

    net = Network(topo, faults, factory, trace=trace)
    controller = (ChaosController(net, plan).arm()
                  if plan is not None else None)

    # Harness-level reconvergence: stands in for the state-change-driven
    # GS re-stabilization.  Each mid-run kill pushes its single-node
    # delta into the incremental engine the moment it happens (the
    # paper's nodes react to a neighbor failure immediately, whether or
    # not the source ever re-routes), so the accumulated rounds/messages
    # are the per-event wire cost; reconverge_cb then only redistributes
    # the already-stable assignment to the surviving processes.
    view_box: List[Optional[IncrementalLevelView]] = [None]

    def on_node_fault(node: int, _time: int) -> None:
        if view_box[0] is None:
            view_box[0] = IncrementalLevelView(topo, faults)
        view_box[0].engine.apply_delta(add=[node])

    if reconverge:
        net.add_fault_listener(on_node_fault)

    def reconverge_cb() -> None:
        if not net.dead_nodes:
            return  # level assignment unchanged (links are not modeled)
        if view_box[0] is None:
            view_box[0] = IncrementalLevelView(topo, faults)
        fresh = view_box[0].refresh(faults.with_nodes(net.dead_nodes))
        for node, proc in procs.items():
            if node in net.processes:
                proc.own_level = fresh.level(node)
                proc.level_of_neighbor = {
                    v: fresh.level(v) for v in topo.neighbors(node)
                }

    def dfs_cb() -> Optional[List[int]]:
        live = faults.with_nodes(net.dead_nodes)
        if live.is_node_faulty(source) or live.is_node_faulty(dest):
            return None
        result = route_dfs(topo, live, source, dest)
        return list(result.path) \
            if result.status is RouteStatus.DELIVERED else None

    net.start()
    src = procs[source]
    src.begin_delivery(
        dest,
        max_attempts=max_attempts,
        fallback_attempts=fallback_attempts,
        ack_timeout=ack_timeout,
        hop_ticks=hop_ticks,
        attempt_slack=attempt_slack,
        backoff_base=backoff_base,
        backoff_cap=backoff_cap,
        reconverge_cb=reconverge_cb if reconverge else None,
        stale_cb=controller.is_stale if controller is not None else None,
        dfs_cb=dfs_cb,
    )
    net.run()

    # -- post-run measurement (harness-side, omniscient by design) ----------
    dst_proc = procs[dest]
    best_path: Dict[int, Tuple[int, ...]] = {}
    for proc in procs.values():
        for k, path in proc.data_log:
            if k not in best_path or len(path) > len(best_path[k]):
                best_path[k] = path

    attempts: List[AttemptRecord] = []
    for k in range(1, src.attempt_no + 1):
        stage, condition = src.attempt_meta[k]
        if dst_proc.accepted and dst_proc.accepted_attempt == k:
            outcome, reason = "delivered", None
            path = tuple(dst_proc.accepted_path or (source,))
        else:
            known = src.outcomes.get(k)
            outcome, reason = known if known is not None \
                else ("superseded", "run ended with attempt open")
            path = best_path.get(k, (source,))
        attempts.append(AttemptRecord(
            index=k, stage=stage, condition=condition, outcome=outcome,
            path=list(path), hops=len(path) - 1, reason=reason,
        ))

    delivered = dst_proc.accepted
    if delivered:
        stage = next(a.stage for a in attempts if a.outcome == "delivered")
    else:
        stage = attempts[-1].stage if attempts else "none"
    detail = None
    if not delivered:
        detail = ("no source condition held and DFS found no route"
                  if not attempts else
                  f"retry ladder exhausted after {len(attempts)} attempt(s)")
    result = ResilientResult(
        source=source, dest=dest, n=n, hamming=h,
        status="delivered" if delivered else "failed-detected",
        stage=stage,
        attempts=attempts,
        deliveries=1 if delivered else 0,
        duplicates=dst_proc.duplicates,
        node_kills=len(net.dead_nodes),
        link_kills=len(net.dead_links),
        tampered=controller.tampered if controller is not None else 0,
        stale_reroutes=src.stale_reroutes,
        latency=dst_proc.accepted_time if delivered else None,
        gs_rounds=view_box[0].gs_rounds if view_box[0] is not None else 0,
        gs_messages=view_box[0].gs_messages if view_box[0] is not None else 0,
        detail=detail,
    )
    check_chaos_invariants(result, topo, faults)
    record("chaos_run", **result.chaos_record())
    if strict and not delivered:
        raise DeliveryTimeout(
            f"unicast {topo.format_node(source)} -> "
            f"{topo.format_node(dest)} failed after "
            f"{len(attempts)} attempt(s): {detail}"
        )
    return result, net
