"""Typed, schema-versioned telemetry: every signal declared once.

Every record in a run's JSONL stream is a flat JSON object with three
envelope fields plus per-type payload fields:

``v``
    Schema version (integer).  Consumers must reject streams whose major
    version they do not know; see the version policy in DESIGN.md's
    Observability section.
``seq``
    0-based position in the stream — monotonically increasing, assigned
    by the recorder.  Lets consumers detect truncated or interleaved
    streams without trusting file order.
``type``
    One of :data:`EVENT_TYPES`.

:data:`SIGNALS` is the single source of truth.  Each entry declares a
signal's event fields (field -> required?; none for counter-only
signals), the registry instruments it feeds (named by field), the value
domains its keyed counter names range over, and whether ``repro stats``
lists its records whole instead of folding them.  Everything else is
derived from it: :data:`EVENT_TYPES` and validation here,
:data:`STANDARD_COUNTERS`, the generic
:func:`~repro.obs.instruments.record` hook and the
:func:`~repro.obs.runstats.summarize_run` fold.  Adding a metric or an
event type means editing one entry plus its call site.

New event types or *optional* fields are a compatible (same-version)
change, while removing or re-typing a required field bumps
:data:`SCHEMA_VERSION`.
"""

from __future__ import annotations

from typing import (Any, Dict, Iterable, Mapping, NamedTuple, Optional,
                    Tuple, Union)

__all__ = [
    "SCHEMA_VERSION",
    "Metric",
    "Signal",
    "SIGNALS",
    "EVENT_TYPES",
    "STANDARD_COUNTERS",
    "SchemaError",
    "validate_event",
    "validate_stream",
]

#: Version stamped into (and required of) every event envelope.
SCHEMA_VERSION = 1


class Metric(NamedTuple):
    """One registry instrument a signal feeds.

    ``kind`` is ``counter``, ``gauge``, ``histogram`` or ``timer``.  A
    ``name`` ending in ``{field}`` is keyed by that field's value, with
    ``-`` written as ``_``; a count-map field gives one counter per key,
    incremented by its count.  ``by`` is what one record contributes:
    ``None`` for 1, a field's value (skipped when absent), or the sum of
    a tuple of fields.  ``weight`` names a field holding how many times
    a histogram observes the value.
    """

    kind: str
    name: str
    by: Union[None, str, Tuple[str, ...]] = None
    weight: Optional[str] = None


def _counter(name: str, by: Union[None, str, Tuple[str, ...]] = None,
             ) -> Metric:
    return Metric("counter", name, by)


def _histogram(name: str, by: Union[str, Tuple[str, ...]],
               weight: Optional[str] = None) -> Metric:
    return Metric("histogram", name, by, weight)


class Signal(NamedTuple):
    """One telemetry signal: its event fields and what it measures."""

    #: Event payload field -> required?  Empty for counter-only signals,
    #: which never reach the stream.
    fields: Mapping[str, bool] = {}
    metrics: Tuple[Metric, ...] = ()
    #: field -> the values a keyed counter name is preregistered for.
    domains: Mapping[str, Tuple[str, ...]] = {}
    #: ``repro stats`` lists these records whole instead of folding them.
    keep: bool = False


_ROUTE_STATUSES = ("delivered", "aborted-at-source", "stuck", "hop-limit")
_CONDITIONS = ("C1", "C2", "C3", "none")

SIGNALS: Dict[str, Signal] = {
    # First record of every run: identity + provenance.
    "manifest": Signal(keep=True, fields={
        "run_id": True,        # random 128-bit hex, unique per run
        "entropy": True,       # fresh OS entropy captured at open (hex)
        "started_at": True,    # wall-clock ISO-8601
        "tool": True,          # emitting program, e.g. "repro.cli"
        "git_rev": False,      # repo HEAD if resolvable
        "python": False,
        "platform": False,
        "config": False,       # free-form run configuration object
    }),
    # One unicast attempt through the safety-level router.
    "route_attempt": Signal(
        fields={
            "router": True,
            "status": True,        # RouteStatus value string
            "condition": True,     # C1 / C2 / C3 / none
            "hamming": True,
            "hops": True,
            "detour": False,       # present iff delivered
        },
        metrics=(
            _counter("route.attempts"),
            _counter("route.{status}"),
            _counter("route.condition.{condition}"),
            _histogram("route.hops", "hops"),
            _histogram("route.detour", "detour"),
        ),
        domains={"status": _ROUTE_STATUSES, "condition": _CONDITIONS},
    ),
    # One route_unicast_batch() kernel call: a (trials, pairs) matrix of
    # unicast attempts summarized as counts, not per-attempt events.  It
    # feeds the route.* counters with batch totals, so counter readers
    # see the same numbers as per-attempt routing.
    "routing_batch": Signal(
        fields={
            "n": True,             # cube dimension
            "trials": True,        # level-matrix rows in this call
            "pairs": True,         # routes per trial
            "routes": True,        # trials * pairs
            "tie_break": True,     # lowest-dim / highest-dim
            "kernel": True,        # "vectorized"
            "statuses": True,      # {RouteStatus value -> route count}
            "conditions": True,    # {C1/C2/C3/none -> route count}
            "hops_sum": True,      # total links traversed across the batch
        },
        metrics=(
            _counter("routing.batch_calls"),
            _counter("routing.batch_routes", "routes"),
            _counter("route.attempts", "routes"),
            _counter("route.{statuses}"),
            _counter("route.condition.{conditions}"),
            _histogram("routing.batch_size", "routes"),
        ),
        domains={"statuses": _ROUTE_STATUSES, "conditions": _CONDITIONS},
    ),
    # One compute_safety_levels_batch kernel call.
    "gs_batch": Signal(
        fields={
            "n": True,             # cube dimension
            "batch": True,         # trials in this call
            "kernel": True,        # "swar" | "packed"
            "rounds_hist": True,   # {stabilization round -> trial count}
            "rounds_max": True,
            "rounds_sum": True,
        },
        metrics=(
            _counter("gs.batch_calls"),
            _counter("gs.trials", "batch"),
            _counter("gs.kernel.{kernel}"),
            _histogram("gs.batch_size", "batch"),
        ),
        domains={"kernel": ("swar", "packed")},
    ),
    # One fault delta applied by the incremental level engine.  The
    # dirty-seed and wave histograms make the engine's claim auditable:
    # dirty sets stay small while the message accounting matches the
    # full protocol.
    "incremental_update": Signal(
        fields={
            "n": True,             # cube dimension
            "added": True,         # node faults added by this delta
            "removed": True,       # node faults removed (recoveries)
            "dirty_seed": True,    # nodes seeded dirty by the toggles
            "dirty_total": True,   # node evaluations across all waves
            "changed": True,       # level assignments that changed
            "rounds": True,        # change-bearing waves == GS rounds
            "messages": True,      # on-change protocol messages
            "fallback": True,      # True when whole-array sweeps ran instead
        },
        metrics=(
            _counter("safety.incremental_updates"),
            _counter("safety.incremental_fallbacks", "fallback"),
            _counter("safety.incremental_messages", "messages"),
            _histogram("safety.incremental_dirty", "dirty_seed"),
            _histogram("safety.incremental_waves", "rounds"),
        ),
    ),
    # One resilient unicast delivered (or detected-failed) under a chaos
    # plan: the per-scenario record of the robustness harness.
    "chaos_run": Signal(
        fields={
            "n": True,             # cube dimension
            "hamming": True,       # H(source, dest)
            "status": True,        # "delivered" | "failed-detected"
            "stage": True,         # ladder stage that ended the run:
                                   #   optimal / suboptimal / dfs / none
            "attempts": True,      # delivery attempts launched (>= 1)
            "retries": True,       # attempts - 1
            "node_kills": True,    # mid-run node failures injected
            "link_kills": True,    # mid-run link failures injected
            "tampered": True,      # messages dropped/delayed/duplicated by chaos
            "duplicates": True,    # duplicate deliveries suppressed at the dest
            "stale_reroutes": True,  # re-routes decided on stale levels
            "hops": True,          # data-message links traversed, all attempts
            "latency": False,      # ticks to first delivery (absent on failure)
        },
        metrics=(
            _counter("chaos.runs"),
            _counter("chaos.{status}"),
            _counter("chaos.retries", "retries"),
            _counter("chaos.node_kills", "node_kills"),
            _counter("chaos.link_kills", "link_kills"),
            _counter("chaos.tampered", "tampered"),
            _counter("chaos.duplicates", "duplicates"),
            _histogram("chaos.attempts", "attempts"),
            _histogram("chaos.latency", "latency"),
        ),
        domains={"status": ("delivered", "failed-detected")},
    ),
    # One message lost by the simulator network, by cause (counter-only:
    # per-message events would swamp chaos runs).
    "sim_drop": Signal(
        metrics=(_counter("sim.dropped.{reason}"),),
        domains={"reason": ("faulty-node", "faulty-link", "link_down",
                            "chaos-drop")},
    ),
    # One micro-batch flushed by the routing service: many concurrent
    # route requests aggregated into a single kernel call.  The queue and
    # exec histograms are what make the batching window tunable.
    "service_batch": Signal(
        fields={
            "n": True,             # cube dimension
            "epoch": True,         # fault epoch the batch was routed against
            "routes": True,        # requests routed through the kernel
            "rejected": True,      # requests refused (faulty endpoint) pre-kernel
            "backend": True,       # always "inline" (on the event loop)
            "queue_us": True,      # oldest request's wait in the batch window
            "exec_us": True,       # kernel + demux wall time
            "entries": False,      # batcher entries aggregated (an entry
                                   # carries one route or many); always
                                   # emitted, optional for older streams
        },
        metrics=(
            _counter("service.batches"),
            _counter("service.batch_routes", "routes"),
            _counter("service.requests", ("routes", "rejected")),
            _counter("service.rejected", "rejected"),
            _histogram("service.batch_size", ("routes", "rejected")),
            _histogram("service.queue_us", "queue_us"),
            _histogram("service.exec_us", "exec_us"),
        ),
    ),
    # A flush that met a torn level table.  Cannot happen (a flush routes
    # on its epoch's own sealed table); the counter staying 0 is the
    # audit trail the service benchmark asserts on.
    "torn_read": Signal(metrics=(_counter("service.torn_reads"),)),
    # One block submission (many pairs, one future) entering a batcher.
    "block_submission": Signal(metrics=(
        _counter("service.blocks"),
        _histogram("service.block_pairs", "pairs"),
    )),
    # ``frames`` binary RPC frames of ``payload_len`` bytes decoded (or
    # rejected) by the server, ``errors`` of them answered with an error
    # frame.  Counter-only: per-frame events would swamp the recorder.
    "wire_frame": Signal(metrics=(
        _counter("service.wire_frames", "frames"),
        _counter("service.wire_errors", "errors"),
        _histogram("service.wire_payload", "payload_len", weight="frames"),
    )),
    # Requests resolved through the shard router: ``routes`` admitted
    # rows answered, or ``errors`` refusals.
    "shard_request": Signal(metrics=(
        _counter("shard.requests", "routes"),
        _counter("shard.errors", "errors"),
    )),
    # ``requests`` requests of ``rows`` rows each refused by admission
    # control (load shed, E_OVERLOAD).  Counter-only: sheds happen when
    # the service is drowning.
    "shed_request": Signal(metrics=(
        _counter("service.shed_requests", "requests"),
        _histogram("service.shed_rows", "rows", weight="requests"),
    )),
    # One shard confirmed dead, holding ``tenants`` tenants.  Counter-only
    # so deaths show even when failover is off and tenants fail fast;
    # the recovery story is the shard_failover event.
    "shard_down": Signal(metrics=(
        _counter("service.shard_down"),
        _histogram("service.shard_down_tenants", "tenants"),
    )),
    # One fault epoch swap: the epoch manager re-stabilized the level
    # table (incrementally) and sealed a fresh read-only table.
    "epoch_swap": Signal(
        fields={
            "n": True,             # cube dimension
            "epoch": True,         # the *new* epoch number
            "added": True,         # node faults added by the triggering event
            "removed": True,       # node faults removed (recoveries)
            "faults": True,        # total faulty nodes in the new epoch
            "publish_us": True,    # re-stabilize + publish wall time
            "fallback": True,      # incremental engine fell back to full sweeps
            "spare": False,        # always true (kept for the layout)
            "flip_us": False,      # pointer-flip slice visible to requests
        },
        metrics=(
            _counter("service.epoch_swaps"),
            _histogram("service.publish_us", "publish_us"),
            _histogram("service.flip_us", "flip_us"),
        ),
    ),
    # One completed shard failover: a dead shard's tenants re-placed on
    # survivors with their fault journals replayed exactly.
    "shard_failover": Signal(
        fields={
            "shard": True,           # the shard confirmed dead
            "tenants": True,         # tenants that lived on it
            "moved": True,           # tenants successfully re-placed
            "failover_ms": True,     # confirm-death -> every tenant recovered
            "epochs_replayed": True,  # journal deltas replayed across tenants
            "detected": True,        # "injected" (kill) | "inferred" (probes)
        },
        metrics=(
            _counter("service.failover_count"),
            _histogram("service.failover_ms", "failover_ms"),
            _histogram("service.failover_tenants", "moved"),
        ),
    ),
    # One run_sweep() execution (one Monte-Carlo cell).
    "sweep": Signal(
        fields={
            "master_seed": True,
            "trials": True,
            "jobs": True,
            "chunks": True,
            "elapsed_s": True,
            "trials_per_s": True,
        },
        metrics=(
            _counter("sweep.runs"),
            _counter("sweep.trials", "trials"),
            _counter("sweep.chunks", "chunks"),
            Metric("gauge", "sweep.jobs", "jobs"),
            Metric("timer", "sweep.run", "elapsed_s"),
        ),
    ),
    # One completed campaign cell: a design point's aggregate responses.
    "campaign_cell": Signal(
        fields={
            "campaign": True,      # campaign name from the spec
            "cell_id": True,       # stable human-readable cell identity
            "index": True,         # position in the full factorial
            "dim": True,           # cube dimension factor
            "fault_model": True,   # node / link / mixed
            "faults": True,        # static fault count factor
            "chaos": True,         # chaos profile factor (none disables)
            "policy": True,        # safety / resilient / dfs / oracle
            "trials": True,        # Monte-Carlo trials evaluated
            "delivered": True,     # trials that delivered
            "delivery_rate": True,
            "mean_hops": False,    # absent when nothing delivered
            "mean_detour": False,
            "mean_retries": True,
            "mean_latency": False,
            "conditions": True,    # {condition-or-stage -> trial count}
        },
        metrics=(
            _counter("campaign.cells"),
            _counter("campaign.trials", "trials"),
            _counter("campaign.delivered", "delivered"),
            _histogram("campaign.delivery_rate", "delivery_rate"),
        ),
    ),
    # One fitted response surface from the campaign analysis stage.
    "campaign_fit": Signal(
        fields={
            "campaign": True,      # campaign name from the spec
            "dim": True,           # factor group the fit covers
            "fault_model": True,
            "chaos": True,
            "policy": True,
            "response": True,      # delivery_rate / mean_hops / ...
            "kind": True,          # "logistic" | "poly"
            "coeffs": True,        # fitted coefficients, low order first
            "r2": True,            # goodness of fit in response space
            "points": True,        # design points behind the fit
        },
        metrics=(_counter("campaign.fits"),),
    ),
    # One CLI experiment finishing.
    "experiment": Signal(keep=True, fields={
        "name": True,
        "elapsed_s": True,
        "status": True,        # "ok" | "error"
    }),
    # A structured result object (anything satisfying repro.results.ResultLike).
    "result": Signal(fields={
        "kind": True,          # result class name
        "status": True,
        "data": True,          # the result's to_dict() payload
    }),
    # A simulator trace record bridged from repro.simcore.trace.Trace.
    "sim_trace": Signal(fields={
        "time": True,
        "event": True,
        "node": True,
        "detail": False,
    }),
    # Full MetricsRegistry dump (usually once, just before run_end).
    "metrics_snapshot": Signal(keep=True, fields={
        "metrics": True,
    }),
    # Last record: closes the envelope the manifest opened.
    "run_end": Signal(keep=True, fields={
        "events": True,        # records emitted before this one
        "wall_s": True,        # seconds since manifest
        "status": True,        # "ok" | "error"
    }),
}

#: type -> {field: required?}.  Envelope fields (v, seq, type) are implicit.
EVENT_TYPES: Dict[str, Dict[str, bool]] = {
    kind: dict(signal.fields)
    for kind, signal in SIGNALS.items() if signal.fields
}


def _standard_counters() -> Tuple[str, ...]:
    names: Dict[str, None] = {}
    for signal in SIGNALS.values():
        for metric in signal.metrics:
            if metric.kind != "counter":
                continue
            prefix, _, key = metric.name.partition("{")
            if not key:
                names[metric.name] = None
                continue
            for value in signal.domains[key[:-1]]:
                names[prefix + value.replace("-", "_")] = None
    return tuple(names)


#: Counters guaranteed present (value 0 if never fired) in every snapshot
#: taken through :func:`~repro.obs.instruments.observed` — consumers key
#: on these names.  Every counter the spec declares, keyed names expanded
#: over their domains.
STANDARD_COUNTERS: Tuple[str, ...] = _standard_counters()


class SchemaError(ValueError):
    """An event (or stream) violates the telemetry schema."""


def validate_event(record: Mapping[str, Any],
                   seq: int | None = None) -> None:
    """Raise :class:`SchemaError` unless ``record`` is a valid v1 event."""
    if not isinstance(record, Mapping):
        raise SchemaError(f"event must be an object, got {type(record).__name__}")
    version = record.get("v")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema version {version!r} "
            f"(this reader understands v{SCHEMA_VERSION})"
        )
    etype = record.get("type")
    if etype not in EVENT_TYPES:
        raise SchemaError(f"unknown event type {etype!r}")
    if not isinstance(record.get("seq"), int):
        raise SchemaError(f"{etype}: missing integer 'seq'")
    if seq is not None and record["seq"] != seq:
        raise SchemaError(
            f"{etype}: sequence gap — expected seq {seq}, got {record['seq']}"
        )
    spec = EVENT_TYPES[etype]
    for field, required in spec.items():
        if required and field not in record:
            raise SchemaError(f"{etype}: missing required field {field!r}")
    extra = set(record) - set(spec) - {"v", "seq", "type", "ts"}
    if extra:
        raise SchemaError(
            f"{etype}: unknown fields {sorted(extra)} "
            "(extend SIGNALS before emitting new fields)"
        )


def validate_stream(records: Iterable[Mapping[str, Any]]) -> int:
    """Validate a whole run: per-event schema plus stream-level invariants.

    Returns the number of records.  Requires the stream to open with a
    ``manifest``, close with a ``run_end``, and carry gap-free ``seq``
    numbers.
    """
    count = 0
    last_type = None
    for i, record in enumerate(records):
        validate_event(record, seq=i)
        if i == 0 and record["type"] != "manifest":
            raise SchemaError(
                f"stream must open with a manifest, got {record['type']!r}"
            )
        if last_type == "run_end":
            raise SchemaError("records found after run_end")
        last_type = record["type"]
        count += 1
    if count == 0:
        raise SchemaError("empty stream")
    if last_type != "run_end":
        raise SchemaError(
            f"stream truncated: last record is {last_type!r}, not run_end"
        )
    return count
