"""Process-global observability state and the hot-path hooks.

This module owns exactly two globals — the ambient
:class:`~repro.obs.metrics.MetricsRegistry` (disabled by default) and the
ambient :class:`~repro.obs.recorder.RunRecorder` (``None`` by default) —
plus one generic hook, :func:`record`, through which every subsystem
reports a signal declared in :data:`repro.obs.events.SIGNALS`: the spec
entry says which instruments the signal's fields feed and which of them
form its stream event.  Four thin adapters reduce a domain object to a
signal's payload: :func:`record_route_attempt` (a ``RouteResult``),
:func:`record_routing_batch` (a ``BatchRouteResult``),
:func:`record_gs_batch` (the per-trial rounds vector, as a histogram)
and :func:`record_sweep` (wall times, rounded, plus per-chunk timings).

Hooks follow one discipline: **bail out on the first line when nothing is
observing**.  With the default state each hook costs a couple of global
reads and a branch, and reads nothing from its arguments — which is what
keeps instrumented hot paths within noise of the uninstrumented seed
(asserted by the overhead-guard test and the BENCH_sweep.json
trajectory).

Sweep worker processes re-import this module fresh (spawn context), so
they always run with the defaults — observability never adds IPC to the
sweep engine, and parallel runs report through driver-side ``sweep``
events instead of interleaved worker streams.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import repeat
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple, Union

from .events import SIGNALS, STANDARD_COUNTERS, Metric
from .metrics import MetricsRegistry
from .recorder import RunRecorder

__all__ = [
    "metrics",
    "enable_metrics",
    "disable_metrics",
    "active_recorder",
    "set_recorder",
    "observed",
    "STANDARD_COUNTERS",
    "record",
    "record_route_attempt",
    "record_routing_batch",
    "record_gs_batch",
    "record_sweep",
]

_METRICS = MetricsRegistry(enabled=False)
_RECORDER: Optional[RunRecorder] = None


def metrics() -> MetricsRegistry:
    """The ambient registry every hook reports to."""
    return _METRICS


def enable_metrics() -> MetricsRegistry:
    """Switch collection on (idempotent) and preregister standard counters."""
    _METRICS.enable()
    _METRICS.preregister(counters=STANDARD_COUNTERS)
    return _METRICS


def disable_metrics() -> MetricsRegistry:
    _METRICS.disable()
    return _METRICS


def active_recorder() -> Optional[RunRecorder]:
    return _RECORDER


def set_recorder(recorder: Optional[RunRecorder]) -> Optional[RunRecorder]:
    """Install (or clear, with ``None``) the ambient recorder; returns the
    previous one so callers can restore it."""
    global _RECORDER
    previous = _RECORDER
    _RECORDER = recorder
    return previous


@contextmanager
def observed(
    metrics_out: Optional[Union[str, Path]] = None,
    tool: str = "repro",
    config: Optional[Dict[str, Any]] = None,
) -> Iterator[Tuple[MetricsRegistry, Optional[RunRecorder]]]:
    """Enable metrics (and optionally a JSONL recorder) for a code block.

    A top-level block starts from an empty registry, so its counts are
    its own run's; a block nested in another keeps counting into the
    outer run.  On exit the previous enabled/recorder state is restored;
    if a recorder was opened, a final ``metrics_snapshot`` is appended
    before the ``run_end`` record, so every ``observed`` stream is
    self-contained.
    """
    was_enabled = _METRICS.enabled
    if not was_enabled:
        _METRICS.reset()
    registry = enable_metrics()
    recorder = (
        RunRecorder(metrics_out, tool=tool, config=config)
        if metrics_out is not None else None
    )
    previous = set_recorder(recorder) if recorder is not None else None
    try:
        yield registry, recorder
    except BaseException:
        if recorder is not None:
            recorder.record_metrics(registry)
            recorder.close(status="error")
        raise
    finally:
        if recorder is not None:
            set_recorder(previous)
            if not recorder._closed:
                recorder.record_metrics(registry)
                recorder.close(status="ok")
        if not was_enabled:
            _METRICS.disable()


# -- hot-path hooks ---------------------------------------------------------


def record(kind: str, /, **fields: Any) -> None:
    """One occurrence of signal ``kind`` with payload ``fields``.

    Feeds the registry instruments the signal's spec entry names and, for
    signals with event fields, appends one ``kind`` event to the stream
    (fields in call order; ``None`` values are left out).  ``kind`` is
    positional-only, so a payload may carry a ``kind`` field.
    """
    reg, rec = _METRICS, _RECORDER
    if not reg.enabled and rec is None:
        return
    signal = SIGNALS[kind]
    if reg.enabled:
        for metric in signal.metrics:
            _feed(reg, metric, fields)
    if rec is not None and signal.fields:
        rec.emit(kind, **fields)


def _feed(reg: MetricsRegistry, metric: Metric,
          fields: Dict[str, Any]) -> None:
    kind, name, by, weight = metric
    if by is None:
        value = 1
    elif isinstance(by, str):
        value = fields.get(by)
        if value is None:
            return
    else:
        value = sum(fields[f] for f in by)
    prefix, _, key = name.partition("{")
    if key:
        keyed = fields[key[:-1]]
        pairs = keyed.items() if isinstance(keyed, dict) else ((keyed, value),)
        for k, count in pairs:
            reg.counter(prefix + str(k).replace("-", "_")).inc(count)
    elif kind == "counter":
        reg.counter(name).inc(value)
    elif kind == "gauge":
        reg.gauge(name).set(value)
    elif kind == "timer":
        reg.timer(name).observe(value)
    elif weight is None:
        reg.histogram(name).observe(value)
    else:
        reg.histogram(name).observe_many(repeat(value, fields[weight]))


def record_route_attempt(result: Any) -> None:
    """One unicast attempt.  ``result`` is a
    :class:`repro.routing.result.RouteResult`; the hook only reads it,
    and reads nothing at all when observability is off."""
    if not _METRICS.enabled and _RECORDER is None:
        return
    record(
        "route_attempt",
        router=result.router,
        status=result.status.value,
        condition=result.condition.value,
        hamming=result.hamming,
        hops=result.hops,
        detour=result.detour,
    )


def record_routing_batch(result: Any) -> None:
    """One batched routing kernel call: ``result`` is a
    :class:`repro.routing.batch.BatchRouteResult`, reduced to its shape,
    kernel and per-status/per-condition counts.  The batch kernel does
    not fire per-attempt hooks — one call can cover 10^5 routes."""
    if not _METRICS.enabled and _RECORDER is None:
        return
    record(
        "routing_batch",
        n=result.topo.dimension,
        trials=result.trials,
        pairs=result.pairs,
        routes=result.routes,
        tie_break=result.tie_break,
        kernel=result.kernel,
        statuses=result.status_counts(),
        conditions=result.condition_counts(),
        hops_sum=int(result.hops.sum()),
    )


def record_gs_batch(n: int, batch: int, kernel: str, rounds: Any) -> None:
    """One batched safety-level kernel call.

    ``rounds`` is the per-trial stabilization-round vector the kernel
    already computed; the hook reduces it to a bounded histogram (rounds
    never exceed ``n - 1``), so event size is O(n) regardless of batch.
    """
    if not _METRICS.enabled and _RECORDER is None:
        return
    import numpy as np

    counts = np.bincount(np.asarray(rounds, dtype=np.int64))
    hist = {int(r): int(c) for r, c in enumerate(counts) if c}
    record(
        "gs_batch",
        n=n,
        batch=batch,
        kernel=kernel,
        rounds_hist=hist,
        rounds_max=int(max(hist)) if hist else 0,
        rounds_sum=int(sum(r * c for r, c in hist.items())),
    )


def record_sweep(
    master_seed: int,
    trials: int,
    jobs: int,
    chunks: int,
    elapsed_s: float,
    chunk_seconds: Sequence[float] = (),
) -> None:
    """One sweep-engine run (one Monte-Carlo cell): throughput telemetry.

    ``chunk_seconds`` feed the ``sweep.chunk`` timer only; the event
    carries the run's wall time and throughput, rounded.
    """
    reg = _METRICS
    if not reg.enabled and _RECORDER is None:
        return
    if reg.enabled:
        reg.timer("sweep.chunk").histogram.observe_many(chunk_seconds)
    record(
        "sweep",
        master_seed=master_seed,
        trials=trials,
        jobs=jobs,
        chunks=chunks,
        elapsed_s=round(elapsed_s, 6),
        trials_per_s=round(trials / elapsed_s, 3) if elapsed_s > 0 else 0.0,
    )
