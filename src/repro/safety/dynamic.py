"""Keeping safety levels up to date as faults come and go (Section 2.2).

The paper sketches three maintenance policies — demand-driven, periodic,
and state-change-driven — and notes the trade-off: periodic exchanges are
"wasted when all (or most) of nodes' status remain stable", while a stale
assignment can mislead a unicast until GS re-stabilizes.

:class:`DynamicLevelTracker` replays a :class:`~repro.core.fault_models.
FaultSchedule` tick by tick under a policy and accounts for

* **GS traffic** — exact message counts of the state-change-driven
  (on-change) protocol, reproduced analytically from the vectorized sweeps
  (a level change costs one message per healthy neighbor, per round); the
  analytic count of :func:`~repro.safety.levels.relax_levels` is
  cross-validated against the simulator in the tests.
  A periodic refresh is an unconditional exchange instead: every healthy
  node sends to each healthy neighbor in every round the refresh runs
  (at least one, even when nothing changed);
* **staleness** — ticks during which the routing layer acts on levels
  that no longer match the true fixed point.

Incremental recomputation exploits locality: the view and the tracker
ride :class:`~repro.safety.incremental.IncrementalLevelEngine`, which
handles failures *and* recoveries as dirty-set deltas with accounting
bit-identical to the warm-started whole-cube loop (see that module for
the argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Literal

import numpy as np

from ..core.fault_models import FaultSchedule
from ..core.faults import FaultSet
from ..core.hypercube import Hypercube
from ..results import base_record

__all__ = [
    "IncrementalLevelView",
    "TickRecord",
    "DynamicRunResult",
    "DynamicLevelTracker",
]

Policy = Literal["state-change", "periodic"]


class IncrementalLevelView:
    """A safety assignment kept current across an arbitrary fault
    sequence by the incremental wave engine.

    This is the demand-driven maintenance policy as a reusable object:
    callers (the resilient unicast driver, chiefly) hold one view and
    call :meth:`refresh` with the fault set as of *now* whenever routing
    is about to decide.  Each refresh diffs the supplied fault set
    against the previous one and hands the delta to an
    :class:`~repro.safety.incremental.IncrementalLevelEngine`, which
    re-stabilizes only the perturbed region — recoveries included
    (recovered nodes re-enter at ``n``), so no refresh silently degrades
    to a full recompute.  The accumulated GS rounds/messages are
    bit-identical to what the full warm-started protocol run would have
    cost on the wire, so harness-level refreshes stay honest about the
    traffic they stand in for.

    Link faults in the supplied fault set are carried on the wrapped
    :class:`~repro.safety.levels.SafetyLevels` but ignored by the level
    update — node safety levels (Definition 1) do not model them;
    Section 4.1's extended levels are a separate assignment.
    """

    def __init__(self, topo: Hypercube, faults: FaultSet) -> None:
        from .incremental import IncrementalLevelEngine
        from .levels import SafetyLevels

        self.topo = topo
        self._sl_cls = SafetyLevels
        self._engine = IncrementalLevelEngine(topo, faults, _boot=False)
        self.refreshes = 0
        self.view = self._wrap(faults)

    @property
    def gs_rounds(self) -> int:
        return self._engine.gs_rounds

    @property
    def gs_messages(self) -> int:
        return self._engine.gs_messages

    @property
    def engine(self):
        """The underlying :class:`IncrementalLevelEngine` (shared state)."""
        return self._engine

    def _wrap(self, faults: FaultSet):
        levels = self._engine.levels.copy()
        levels.setflags(write=False)
        return self._sl_cls(topo=self.topo, faults=faults, levels=levels)

    def refresh(self, faults: FaultSet):
        """Reconverge on ``faults`` and return the new
        :class:`~repro.safety.levels.SafetyLevels` view (the engine
        derives failures and recoveries from the diff)."""
        self._engine.set_faults(faults)
        self.refreshes += 1
        self.view = self._wrap(faults)
        return self.view


@dataclass(frozen=True)
class TickRecord:
    """Bookkeeping for one schedule tick."""

    time: int
    fault_events: int
    recomputed: bool
    gs_rounds: int
    gs_messages: int
    #: True when the routing layer's levels equal the true fixed point.
    levels_current: bool


@dataclass
class DynamicRunResult:
    """Aggregate of a schedule replay."""

    policy: str
    ticks: List[TickRecord] = field(default_factory=list)

    @property
    def total_messages(self) -> int:
        return sum(t.gs_messages for t in self.ticks)

    @property
    def recomputations(self) -> int:
        return sum(1 for t in self.ticks if t.recomputed)

    @property
    def stale_ticks(self) -> int:
        return sum(1 for t in self.ticks if not t.levels_current)

    @property
    def horizon(self) -> int:
        return self.ticks[-1].time if self.ticks else 0

    # -- the shared result protocol (repro.results.ResultLike) --------------

    @property
    def status(self) -> str:
        """``"current"`` when the routing layer never acted on stale
        levels during the replay, else ``"stale"``."""
        return "current" if self.stale_ticks == 0 else "stale"

    def to_dict(self) -> Dict[str, Any]:
        return base_record(
            self,
            policy=self.policy,
            ticks=len(self.ticks),
            horizon=self.horizon,
            total_messages=self.total_messages,
            recomputations=self.recomputations,
            stale_ticks=self.stale_ticks,
        )

    def summary(self) -> str:
        return (
            f"dynamic[{self.policy}]: horizon {self.horizon}, "
            f"{self.recomputations} recomputations, "
            f"{self.total_messages} messages, "
            f"{self.stale_ticks} stale ticks ({self.status})"
        )


class DynamicLevelTracker:
    """Replays a fault schedule under one maintenance policy.

    Parameters
    ----------
    topo, schedule:
        The machine and its failure/recovery timeline.
    policy:
        ``"state-change"`` — recompute at every tick that carries an
        event (nodes notice a neighbor's change immediately);
        ``"periodic"`` — recompute every ``period`` ticks regardless,
        each refresh charged its full exchange (see the module
        docstring).
    period:
        Cadence for the periodic policy (ignored otherwise).
    """

    def __init__(self, topo: Hypercube, schedule: FaultSchedule,
                 policy: Policy = "state-change", period: int = 5) -> None:
        if policy not in ("state-change", "periodic"):
            raise ValueError(f"unknown policy {policy!r}")
        if period < 1:
            raise ValueError("period must be positive")
        self.topo = topo
        self.schedule = schedule
        self.policy = policy
        self.period = period

    def run(self) -> DynamicRunResult:
        from .incremental import IncrementalLevelEngine

        result = DynamicRunResult(policy=self.policy)
        topo = self.topo
        # ``known`` is what the routing layer sees (updated only when the
        # policy says so); ``truth`` tracks the real fixed point every
        # tick.  Both ride the incremental engine — the truth engine is
        # the staleness oracle, so its traffic is not charged anywhere.
        known = IncrementalLevelEngine(topo, self.schedule.at(0))
        truth = IncrementalLevelEngine(topo, self.schedule.at(0),
                                       _boot=False)
        result.ticks.append(TickRecord(
            time=0, fault_events=0, recomputed=True, gs_rounds=0,
            gs_messages=known.gs_messages, levels_current=True,
        ))
        table = topo.neighbor_table()
        events_by_time: dict = {}
        for ev in self.schedule.events:
            events_by_time.setdefault(ev.time, []).append(ev)

        for t in range(1, self.schedule.horizon + 1):
            events = events_by_time.get(t, [])
            faults_now = self.schedule.at(t)
            due = (
                bool(events) if self.policy == "state-change"
                else t % self.period == 0
            )
            rounds = messages = 0
            if due:
                # The engine diffs the absolute fault set, so ticks the
                # policy skipped are folded into the next due delta.
                stats = known.set_faults(faults_now)
                rounds, messages = stats.rounds, stats.messages
                if self.policy == "periodic":
                    healthy = ~faults_now.node_mask(topo.num_nodes)
                    links = int((healthy[table] & healthy[:, None]).sum())
                    rounds = max(1, rounds)
                    messages = rounds * links
            truth.set_faults(faults_now)
            result.ticks.append(TickRecord(
                time=t,
                fault_events=len(events),
                recomputed=due,
                gs_rounds=rounds,
                gs_messages=messages,
                levels_current=bool(np.array_equal(known.levels,
                                                   truth.levels)),
            ))
        return result
