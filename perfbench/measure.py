"""Pure measurement helpers: percentiles, open-loop accounting, failure
tallies and span self time.  No I/O and no repro imports, so the helpers
are unit-tested on their own (``test_measure.py``).
"""

from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that the tail is one or two outliers, not a rank.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile with the sample count it rests on."""

    q: float
    value: float
    samples: int
    beyond: int

    @property
    def supported(self) -> bool:
        return self.beyond >= MIN_BEYOND

    def to_dict(self) -> dict:
        return {"q": self.q, "value": self.value, "samples": self.samples,
                "beyond": self.beyond, "supported": self.supported}


def percentile(values: Sequence[float], q: float) -> Percentile:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``.

    ``beyond`` counts the samples ranked strictly above the returned one.
    An empty sample gives value 0 with nothing beyond (unsupported).
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    n = len(values)
    if n == 0:
        return Percentile(q=q, value=0.0, samples=0, beyond=0)
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    return Percentile(q=q, value=float(ordered[rank - 1]), samples=n,
                      beyond=n - rank)


def slice_values(stamps: Sequence[int], values: Sequence[float], t0: int,
                 t1: int, parts: int) -> List[List[float]]:
    """The values stamped inside each of ``parts`` equal slices of
    ``[t0, t1)``; values stamped outside the window are dropped."""
    buckets: List[List[float]] = [[] for _ in range(parts)]
    width = (t1 - t0) / parts
    for stamp, value in zip(stamps, values):
        if t0 <= stamp < t1:
            buckets[min(parts - 1, int((stamp - t0) / width))].append(value)
    return buckets


def better_quartile(figures: Sequence[float], better: str) -> float:
    """The quartile of per-slice ``figures`` on the better side: Q1 when
    lower is better, Q3 when higher is.

    Load from outside the program (other tenants of the host) only ever
    makes a slice worse, so the better quartile tracks the program and not
    the neighbours, while still resting on a quarter of the slices.
    """
    figures = list(figures)
    if not figures:
        return 0.0
    if len(figures) == 1:
        return figures[0]
    q1, _, q3 = statistics.quantiles(figures, n=4)
    return q1 if better == "lower" else q3


def worse_decile(figures: Sequence[float], better: str) -> float:
    """The decile of per-slice ``figures`` on the worse side: the ninth
    when lower is better, the first when higher is.

    The steadier choice for CPU-bound work when the host's CPU speed has a
    fast state that comes and goes over minutes: nearly every run spends a
    tenth of its slices in the slow state, while how much of a run the
    fast state covers, and so its median, changes from run to run.  It
    rests on two slices, so one disturbed slice does not set it.
    """
    figures = list(figures)
    if not figures:
        return 0.0
    if len(figures) == 1:
        return figures[0]
    deciles = statistics.quantiles(figures, n=10)
    return deciles[8] if better == "lower" else deciles[0]


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)`` gives
    the quartiles; the steadiness figure a run set is judged by."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


# -- open-loop load ----------------------------------------------------------


@dataclass(frozen=True)
class OpenLoop:
    """A fixed-rate schedule on an absolute clock (nanoseconds).

    Event ``i`` is due at ``start_ns + i / rate`` whatever happened to the
    events before it; lateness is how far behind schedule it was sent.
    """

    start_ns: int
    rate_per_s: float

    def due_ns(self, i: int) -> int:
        return self.start_ns + int(round(i * 1e9 / self.rate_per_s))

    def lateness_ns(self, i: int, sent_ns: int) -> int:
        return max(0, sent_ns - self.due_ns(i))


# -- failures ----------------------------------------------------------------


@dataclass
class Tally:
    """Attempted and failed operations, with the reason for each failure.

    Failures are error frames, timeouts, sheds and oracle mismatches; an
    operation that never completed counts as attempted and failed.
    """

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.reasons[reason] += count

    def refail(self, reason: str, count: int = 1) -> None:
        """Turn ``count`` already-attempted successes into failures (an
        oracle check that runs after the operation was counted)."""
        self.failed += count
        self.reasons[reason] += count

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "succeeded": self.succeeded,
                "failed": self.failed, "failed_ratio": self.failed_ratio,
                "reasons": dict(self.reasons)}


# -- spans -------------------------------------------------------------------

#: (span id, parent id or None, start ns, end ns)
SpanTimes = Tuple[int, Optional[int], int, int]


def covered_ns(lo: int, hi: int, intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of ``[lo, hi)`` covered by the union of ``intervals``."""
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in intervals
                     if b > lo and a < hi)
    total = 0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[SpanTimes]) -> Dict[int, int]:
    """Each span's duration minus the part its children cover.

    Children may overlap each other (concurrent work on other threads),
    so coverage is the union of their intervals clipped to the parent.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for _sid, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - covered_ns(start, end, children.get(sid, ()))
            for sid, _parent, start, end in spans}
