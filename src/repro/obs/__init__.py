"""repro.obs — metrics and structured telemetry for experiment runs.

The observability layer has three parts, all dependency-free below the
rest of the package so every subsystem may report through it:

* :mod:`repro.obs.metrics` — an in-process :class:`MetricsRegistry`
  (counters, gauges, histograms, timers) that costs one branch per hook
  when disabled;
* :mod:`repro.obs.events` — :data:`SIGNALS`, the one declaration of
  every telemetry signal: its event fields, the instruments it feeds and
  the value domains of its keyed counters;
* :mod:`repro.obs.recorder` — the schema-versioned JSONL event stream: a
  :class:`RunRecorder` frames each run with a provenance manifest (run
  id, fresh entropy, config, git revision) and a ``run_end`` envelope,
  validating every record at emit time;
* :mod:`repro.obs.runstats` — offline aggregation: ``repro stats
  run.jsonl`` folds a stream back into the run's headline numbers.

Hot paths report through :func:`record` (``record("sim_drop",
reason=...)``) or one of the adapters in :mod:`repro.obs.instruments`
that reduce a domain object first (:func:`record_route_attempt`,
:func:`record_gs_batch`, ...); turn collection on around any code block
with::

    from repro import obs

    with obs.observed("run.jsonl", config={"experiment": "fig2"}) as (reg, rec):
        ...  # routed unicasts, kernel batches and sweeps are recorded
    print(obs.render_stats(obs.summarize_run("run.jsonl")))

The CLI exposes the same switch as ``--metrics-out PATH``.
"""

from .events import (
    EVENT_TYPES,
    SCHEMA_VERSION,
    SIGNALS,
    STANDARD_COUNTERS,
    SchemaError,
    validate_event,
    validate_stream,
)
from .instruments import (
    active_recorder,
    disable_metrics,
    enable_metrics,
    metrics,
    observed,
    record,
    record_gs_batch,
    record_route_attempt,
    record_sweep,
    set_recorder,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, Timer
from .recorder import (
    RunRecorder,
    current_git_rev,
    iter_events,
    read_events,
    validate_run,
)
from .runstats import RunStats, render_stats, summarize_run

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_TYPES",
    "SIGNALS",
    "SchemaError",
    "validate_event",
    "validate_stream",
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "RunRecorder",
    "current_git_rev",
    "iter_events",
    "read_events",
    "validate_run",
    "RunStats",
    "summarize_run",
    "render_stats",
    "STANDARD_COUNTERS",
    "metrics",
    "enable_metrics",
    "disable_metrics",
    "active_recorder",
    "set_recorder",
    "observed",
    "record",
    "record_route_attempt",
    "record_gs_batch",
    "record_sweep",
]
