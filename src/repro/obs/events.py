"""Typed, schema-versioned telemetry events.

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

The taxonomy (payload field -> required?) is deliberately small; new
event types or *optional* fields are a compatible (same-version) change,
while removing or re-typing a required field bumps :data:`SCHEMA_VERSION`.
This module is the single source of truth — the recorder emits through
it and ``repro stats`` validates against it, so the two cannot drift.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_TYPES",
    "SchemaError",
    "validate_event",
    "validate_stream",
]

#: Version stamped into (and required of) every event envelope.
SCHEMA_VERSION = 1

#: type -> {field: required?}.  Envelope fields (v, seq, type) are implicit.
EVENT_TYPES: Dict[str, Dict[str, bool]] = {
    # First record of every run: identity + provenance.
    "manifest": {
        "run_id": True,        # random 128-bit hex, unique per run
        "entropy": True,       # fresh OS entropy captured at open (hex)
        "started_at": True,    # wall-clock ISO-8601
        "tool": True,          # emitting program, e.g. "repro.cli"
        "git_rev": False,      # repo HEAD if resolvable
        "python": False,
        "platform": False,
        "config": False,       # free-form run configuration object
    },
    # One unicast attempt through the safety-level router.
    "route_attempt": {
        "router": True,
        "status": True,        # RouteStatus value string
        "condition": True,     # C1 / C2 / C3 / none
        "hamming": True,
        "hops": True,
        "detour": False,       # present iff delivered
    },
    # One compute_safety_levels_batch kernel call.
    "gs_batch": {
        "n": True,             # cube dimension
        "batch": True,         # trials in this call
        "kernel": True,        # "swar" | "packed"
        "rounds_hist": True,   # {stabilization round -> trial count}
        "rounds_max": True,
        "rounds_sum": True,
    },
    # One fault delta applied by the incremental level engine.
    "incremental_update": {
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
    # One route_unicast_batch() kernel call: a (trials, pairs) matrix of
    # unicast attempts summarized as counts, not per-attempt events.
    "routing_batch": {
        "n": True,             # cube dimension
        "trials": True,        # level-matrix rows in this call
        "pairs": True,         # routes per trial
        "routes": True,        # trials * pairs
        "tie_break": True,     # lowest-dim / highest-dim / random
        "kernel": True,        # "vectorized" | "scalar"
        "statuses": True,      # {RouteStatus value -> route count}
        "conditions": True,    # {C1/C2/C3/none -> route count}
        "hops_sum": True,      # total links traversed across the batch
    },
    # One resilient unicast delivered (or detected-failed) under a chaos
    # plan: the per-scenario record of the robustness harness.
    "chaos_run": {
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
    # One micro-batch flushed by the routing service: many concurrent
    # route requests aggregated into a single kernel call.
    "service_batch": {
        "n": True,             # cube dimension
        "epoch": True,         # fault epoch the batch was routed against
        "routes": True,        # requests routed through the kernel
        "rejected": True,      # requests refused (faulty endpoint) pre-kernel
        "backend": True,       # always "inline" (on the event loop)
        "queue_us": True,      # oldest request's wait in the batch window
        "exec_us": True,       # kernel + demux wall time
        "entries": False,      # batcher entries aggregated (block
                               # submissions carry many routes per entry)
    },
    # One fault epoch swap: the epoch manager re-stabilized the level
    # table (incrementally) and sealed a fresh read-only table.
    "epoch_swap": {
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
    # One completed shard failover: a dead shard's tenants re-placed on
    # survivors with their fault journals replayed exactly.
    "shard_failover": {
        "shard": True,           # the shard confirmed dead
        "tenants": True,         # tenants that lived on it
        "moved": True,           # tenants successfully re-placed
        "failover_ms": True,     # confirm-death -> every tenant recovered
        "epochs_replayed": True,  # journal deltas replayed across tenants
        "detected": True,        # "injected" (kill) | "inferred" (probes)
    },
    # One run_sweep() execution (one Monte-Carlo cell).
    "sweep": {
        "master_seed": True,
        "trials": True,
        "jobs": True,
        "chunks": True,
        "elapsed_s": True,
        "trials_per_s": True,
    },
    # One completed campaign cell: a design point's aggregate responses.
    "campaign_cell": {
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
    # One fitted response surface from the campaign analysis stage.
    "campaign_fit": {
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
    # One CLI experiment finishing.
    "experiment": {
        "name": True,
        "elapsed_s": True,
        "status": True,        # "ok" | "error"
    },
    # A structured result object (anything satisfying repro.results.ResultLike).
    "result": {
        "kind": True,          # result class name
        "status": True,
        "data": True,          # the result's to_dict() payload
    },
    # A simulator trace record bridged from repro.simcore.trace.Trace.
    "sim_trace": {
        "time": True,
        "event": True,
        "node": True,
        "detail": False,
    },
    # Full MetricsRegistry dump (usually once, just before run_end).
    "metrics_snapshot": {
        "metrics": True,
    },
    # Last record: closes the envelope the manifest opened.
    "run_end": {
        "events": True,        # records emitted before this one
        "wall_s": True,        # seconds since manifest
        "status": True,        # "ok" | "error"
    },
}


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
            "(extend EVENT_TYPES before emitting new fields)"
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
