"""The network: topology + faults + node processes + message delivery.

The network enforces the fault model:

* faulty nodes host no process; anything sent to them is dropped,
* faulty links silently drop traffic in both directions,
* nonfaulty nodes may only send to direct neighbors (anything else is a
  protocol bug and raises :class:`ProtocolError`).

Messages take exactly one tick per hop.  Determinism: deliveries scheduled
at the same tick fire in send order.

Beyond the static fault set, two live-injection entry points model the
Section 2.2 dynamic regime: :meth:`Network.schedule_node_failure` and
:meth:`Network.schedule_link_failure` fail a healthy node/link at an
absolute tick, dropping traffic already in flight toward it.  A chaos
layer (:mod:`repro.chaos`) may additionally install a message
*interceptor* that rewrites each send into explicit deliver/drop fates —
drops, delays and duplicates — while the network keeps exact per-cause
accounting (every sent message is delivered or dropped with a reason,
and every drop reason surfaces as a ``sim.dropped.<reason>`` counter
through :mod:`repro.obs`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.faults import FaultSet, normalize_link
from ..core.topology import Topology
from ..obs.instruments import record
from .engine import Engine
from .errors import InjectionError, ProtocolError, SimError
from .message import (
    DROP_FAULTY_LINK,
    DROP_FAULTY_NODE,
    DROP_LINK_DOWN,
    DroppedMessage,
    Message,
)
from .node import NodeProcess
from .stats import NetworkStats
from .trace import Trace

__all__ = ["Network", "LINK_LATENCY", "FATE_DELIVER", "FATE_DROP",
           "Interceptor"]

#: Ticks for one link traversal.
LINK_LATENCY = 1

#: Fate tags an interceptor may return (see :meth:`Network.set_interceptor`).
FATE_DELIVER = "deliver"
FATE_DROP = "drop"

#: ``interceptor(msg, delay) -> [(FATE_DELIVER, ticks) | (FATE_DROP, reason)]``
Interceptor = Callable[[Message, int], Sequence[Tuple[str, Any]]]


class Network:
    """A simulated faulty-hypercube machine.

    Parameters
    ----------
    topo:
        The interconnect.
    faults:
        Failed nodes/links.  Processes are instantiated only at healthy
        nodes.
    process_factory:
        Called as ``factory(node_id)`` for each healthy node to create its
        :class:`NodeProcess`.
    trace:
        Record per-message events.  Off by default: traces of Monte-Carlo
        sweeps would dominate memory.
    latency:
        Per-hop delay policy: ``latency(src, dst) -> int ticks`` (>= 1).
        Default is the constant ``LINK_LATENCY``.  Deterministic functions
        keep runs reproducible; pass a seeded-rng closure for jitter (the
        asynchronous-GS tests do).
    """

    def __init__(
        self,
        topo: Topology,
        faults: FaultSet,
        process_factory: Callable[[int], NodeProcess],
        trace: bool = False,
        latency: Optional[Callable[[int, int], int]] = None,
    ) -> None:
        faults.validate(topo)
        self.topo = topo
        self.faults = faults
        self.engine = Engine()
        self.stats = NetworkStats()
        self.trace = Trace(enabled=trace)
        self.dropped: List[DroppedMessage] = []
        self._latency = latency
        self._interceptor: Optional[Interceptor] = None
        self.processes: Dict[int, NodeProcess] = {}
        #: Nodes killed mid-run via schedule_node_failure.
        self.dead_nodes: set = set()
        #: Links killed mid-run via schedule_link_failure (normalized pairs).
        self.dead_links: Set[Tuple[int, int]] = set()
        self._started = False
        self._fault_listeners: List[Callable[[int, int], None]] = []
        for node in topo.iter_nodes():
            if not faults.is_node_faulty(node):
                proc = process_factory(node)
                proc.attach(node, _Context(self))
                self.processes[node] = proc

    def add_fault_listener(self, listener: Callable[[int, int], None]) -> None:
        """Register ``listener(node, time)`` for mid-run node failures.

        Fired from the kill path *after* the node is dead and its
        neighbors' ``on_neighbor_failure`` hooks ran, in registration
        order.  This is the fault-delta feed for incremental level
        maintenance: a listener can push the single-node delta straight
        into an :class:`~repro.safety.incremental.IncrementalLevelEngine`
        instead of diffing whole fault sets after the fact.  Link
        failures do not fire it — node safety levels do not model them.
        """
        self._fault_listeners.append(listener)

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Fire every process's ``on_start`` hook (idempotent guard)."""
        if self._started:
            raise SimError("network already started")
        self._started = True
        for node in sorted(self.processes):
            self.processes[node].on_start()

    def run(self, until: Optional[int] = None,
            max_events: int = 10_000_000) -> int:
        """Start if needed, then drain the event loop.  Returns end time."""
        if not self._started:
            self.start()
        end = self.engine.run(until=until, max_events=max_events)
        if until is None:
            self.stats.check_conserved()
        return end

    # -- live fault injection -----------------------------------------------------

    def schedule_node_failure(self, node: int, time: int) -> None:
        """Fail a currently-healthy node at absolute tick ``time``.

        Models the Section 2.2 dynamic setting: at the scheduled tick the
        node's process is removed (all traffic to it is dropped from then
        on) and every healthy neighbor gets its
        :meth:`NodeProcess.on_neighbor_failure` hook invoked — the local
        fault detection the paper assumes.  Messages already in flight
        toward the node are lost (fail-stop).
        """
        self.topo.validate_node(node)
        if node not in self.processes:
            raise SimError(
                f"{self.topo.format_node(node)} has no live process to fail"
            )
        self.engine.schedule_at(time, lambda: self._kill(node))

    def schedule_link_failure(self, u: int, v: int, time: int) -> None:
        """Fail the healthy ``u``–``v`` link at absolute tick ``time``.

        The symmetric counterpart of :meth:`schedule_node_failure` for the
        Section 4.1 fault class: from the scheduled tick on, traffic over
        the link — including messages already in flight — is dropped with
        reason ``"link_down"``, and both (still-living) endpoints get
        their :meth:`NodeProcess.on_link_failure` hook invoked, modeling
        the local link-fault detection that distinguishes a dead link
        from a dead neighbor.
        """
        self.topo.validate_node(u)
        self.topo.validate_node(v)
        if v not in self.topo.neighbors(u):
            raise InjectionError(
                f"({self.topo.format_node(u)}, {self.topo.format_node(v)}) "
                "is not a link of the topology"
            )
        if self.faults.is_link_faulty(u, v):
            raise InjectionError(
                f"link {self.topo.format_node(u)}-{self.topo.format_node(v)} "
                "is already faulty; nothing to fail"
            )
        self.engine.schedule_at(time, lambda: self._kill_link(u, v))

    def _kill(self, node: int) -> None:
        proc = self.processes.pop(node, None)
        if proc is None:
            return  # already dead (two schedules for the same node)
        self.dead_nodes.add(node)
        self.trace.record(self.engine.now, "fail", node, None)
        for w in self.topo.neighbors(node):
            neighbor_proc = self.processes.get(w)
            if neighbor_proc is not None:
                neighbor_proc.on_neighbor_failure(node)
        # Snapshot before dispatch: a listener may register further
        # listeners while handling the event (the resilient router
        # re-arming is the canonical case), and those must not mutate
        # this iteration — they see the *next* failure, not this one.
        for listener in tuple(self._fault_listeners):
            listener(node, self.engine.now)

    def _kill_link(self, u: int, v: int) -> None:
        link = normalize_link(u, v)
        if link in self.dead_links:
            return  # already dead (two schedules for the same link)
        self.dead_links.add(link)
        self.trace.record(self.engine.now, "link-fail", u, link)
        for end, other in ((u, v), (v, u)):
            proc = self.processes.get(end)
            if proc is not None:
                proc.on_link_failure(other)

    def is_link_down(self, a: int, b: int) -> bool:
        """True if the ``a``–``b`` link was killed mid-run."""
        return normalize_link(a, b) in self.dead_links

    # -- chaos interception -------------------------------------------------------

    def set_interceptor(self, interceptor: Optional[Interceptor]) -> None:
        """Install (or clear) the message interceptor.

        The interceptor sees every submitted message and its nominal delay
        and returns the list of *fates* the wire applies: each
        ``(FATE_DELIVER, ticks)`` entry schedules one delivery (extra
        entries are duplicates, larger ticks are delays), each
        ``(FATE_DROP, reason)`` entry records one loss.  Every fate counts
        as a send, so the conservation invariant (sent = delivered +
        dropped) survives any interception.  Returning an empty list
        raises :class:`InjectionError` — chaos must never lose a message
        silently.
        """
        self._interceptor = interceptor

    # -- message path (used by node contexts) ----------------------------------

    def submit(self, msg: Message, payload_units: int = 0) -> None:
        """Validate, count, and schedule a single-hop message."""
        src, dst = msg.src, msg.dst
        if src not in self.processes:
            raise ProtocolError(f"send from unknown/faulty node {src}")
        if dst not in self.topo.neighbors(src):
            raise ProtocolError(
                f"{self.topo.format_node(src)} tried to send to "
                f"non-neighbor {self.topo.format_node(dst)}"
            )
        now = self.engine.now
        delay = LINK_LATENCY if self._latency is None \
            else int(self._latency(src, dst))
        if delay < 1:
            raise ProtocolError(
                f"latency policy returned {delay}; hops take >= 1 tick"
            )
        fates: Sequence[Tuple[str, Any]] = ((FATE_DELIVER, delay),)
        if self._interceptor is not None:
            fates = list(self._interceptor(msg, delay))
            if not fates:
                raise InjectionError(
                    "interceptor returned no fates; drops must be explicit "
                    "(FATE_DROP, reason) entries"
                )
        for fate, arg in fates:
            if fate == FATE_DELIVER:
                ticks = int(arg)
                if ticks < 1:
                    raise InjectionError(
                        f"interceptor returned delay {ticks}; "
                        "hops take >= 1 tick"
                    )
                stamped = msg.stamped(send_time=now, deliver_time=now + ticks)
                self.stats.record_send(msg.kind, payload_units)
                self.trace.record(now, "send", src, stamped)
                self.engine.schedule_after(
                    ticks, lambda m=stamped: self._deliver(m)
                )
            elif fate == FATE_DROP:
                stamped = msg.stamped(send_time=now, deliver_time=now)
                self.stats.record_send(msg.kind, payload_units)
                self.trace.record(now, "send", src, stamped)
                self._drop(stamped, str(arg), now)
            else:
                raise InjectionError(f"unknown message fate {fate!r}")

    def _deliver(self, msg: Message) -> None:
        now = self.engine.now
        if self.faults.is_link_declared_faulty(msg.src, msg.dst):
            self._drop(msg, DROP_FAULTY_LINK, now)
            return
        if normalize_link(msg.src, msg.dst) in self.dead_links:
            self._drop(msg, DROP_LINK_DOWN, now)
            return
        proc = self.processes.get(msg.dst)
        if proc is None:
            self._drop(msg, DROP_FAULTY_NODE, now)
            return
        self.stats.record_delivery(msg.kind)
        self.trace.record(now, "deliver", msg.dst, msg)
        proc.on_message(msg)

    def _drop(self, msg: Message, reason: str, now: int) -> None:
        self.stats.record_drop(reason)
        record("sim_drop", reason=reason)
        self.dropped.append(DroppedMessage(message=msg, reason=reason, time=now))
        self.trace.record(now, "drop", msg.dst, (reason, msg))

    # -- timers (used by node contexts) -----------------------------------------

    def schedule_timer(self, node: int, delay: int,
                       callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` ticks, if ``node`` still lives.

        The liveness guard is what makes timers safe under live fault
        injection: a node killed while its retransmission timer is armed
        must not rise from the dead to act on it.
        """
        if delay < 0:
            raise SimError(f"negative timer delay {delay}")
        self.engine.schedule_after(
            delay,
            lambda: callback() if node in self.processes else None,
        )

    # -- conveniences -----------------------------------------------------------

    def process(self, node: int) -> NodeProcess:
        """The process at ``node`` (raises for faulty nodes)."""
        try:
            return self.processes[node]
        except KeyError:
            raise SimError(
                f"node {self.topo.format_node(node)} is faulty; no process"
            ) from None

    def healthy_nodes(self) -> List[int]:
        """Ids of all nodes hosting processes, ascending."""
        return sorted(self.processes)

    def live_faults(self) -> FaultSet:
        """The fault set as of *now*: static faults plus everything killed
        mid-run.  This is what a freshly re-run GS would see."""
        return self.faults.with_nodes(self.dead_nodes).with_links(
            self.dead_links)


class _Context:
    """Per-network :class:`NodeContext` implementation.

    Shared by all processes of one network; it carries no per-node state so
    a single instance would suffice, but the indirection keeps processes
    decoupled from the Network class for testing.
    """

    __slots__ = ("_net",)

    def __init__(self, net: Network) -> None:
        self._net = net

    def now(self) -> int:
        return self._net.engine.now

    def neighbors(self, node: int) -> Sequence[int]:
        return self._net.topo.neighbors(node)

    def send(self, msg: Message, payload_units: int = 0) -> None:
        self._net.submit(msg, payload_units=payload_units)

    def schedule(self, node: int, delay: int,
                 callback: Callable[[], None]) -> None:
        self._net.schedule_timer(node, delay, callback)

    def trace(self, event: str, node: int, detail: Any = None) -> None:
        self._net.trace.record(self._net.engine.now, event, node, detail)
