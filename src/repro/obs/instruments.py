"""Process-global observability state and the hot-path hooks.

This module owns exactly two globals — the ambient
:class:`~repro.obs.metrics.MetricsRegistry` (disabled by default) and the
ambient :class:`~repro.obs.recorder.RunRecorder` (``None`` by default) —
plus one ``record_*`` hook per instrumented subsystem:

* :func:`record_route_attempt` — the Section 3.2 unicast router;
* :func:`record_routing_batch` — the batched routing kernel;
* :func:`record_gs_batch` — the batched safety-level kernel;
* :func:`record_incremental_update` — one fault delta applied by the
  incremental level engine (``safety.incremental_*`` counters, dirty-set
  and wave histograms, ``incremental_update`` events);
* :func:`record_service_batch` — one micro-batch flushed by the routing
  service (``service.*`` counters, batch-size and latency histograms,
  ``service_batch`` events);
* :func:`record_epoch_swap` — one fault-epoch swap published by the
  service's epoch manager (``epoch_swap`` events);
* :func:`record_sweep` — the Monte-Carlo sweep engine;
* :func:`record_sim_drop` — per-cause message-loss accounting from the
  simulator network (``sim.dropped.<reason>`` counters);
* :func:`record_chaos_run` — one resilient delivery under chaos
  (``chaos_run`` events + ``chaos.*`` counters).

Hooks follow one discipline: **bail out on the first line when nothing is
observing**.  With the default state each hook costs a couple of global
reads and a branch, which is what keeps instrumented hot paths within
noise of the uninstrumented seed (asserted by the overhead-guard test and
the BENCH_sweep.json trajectory).

Sweep worker processes re-import this module fresh (spawn context), so
they always run with the defaults — observability never adds IPC to the
sweep engine, and parallel runs report through driver-side ``sweep``
events instead of interleaved worker streams.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple, Union

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
    "record_route_attempt",
    "record_routing_batch",
    "record_gs_batch",
    "record_incremental_update",
    "record_service_batch",
    "record_block_submission",
    "record_wire_frame",
    "record_shard_request",
    "record_shard_down",
    "record_shard_failover",
    "record_shed_request",
    "record_epoch_swap",
    "record_sweep",
    "record_sim_drop",
    "record_chaos_run",
    "record_campaign_cell",
    "record_campaign_fit",
]

#: Counters guaranteed present (value 0 if never fired) in every snapshot
#: taken through :func:`observed` — consumers key on these names.
STANDARD_COUNTERS: Tuple[str, ...] = (
    "route.attempts",
    "route.delivered",
    "route.aborted_at_source",
    "route.stuck",
    "route.hop_limit",
    "route.condition.C1",
    "route.condition.C2",
    "route.condition.C3",
    "route.condition.none",
    "routing.batch_calls",
    "routing.batch_routes",
    "gs.batch_calls",
    "gs.trials",
    "gs.kernel.swar",
    "gs.kernel.packed",
    "safety.incremental_updates",
    "safety.incremental_fallbacks",
    "safety.incremental_messages",
    "service.requests",
    "service.batches",
    "service.batch_routes",
    "service.rejected",
    "service.epoch_swaps",
    "service.torn_reads",
    "service.blocks",
    "service.wire_frames",
    "service.wire_errors",
    "shard.requests",
    "shard.errors",
    "service.shard_down",
    "service.failover_count",
    "service.shed_requests",
    "sweep.runs",
    "sweep.trials",
    "sweep.chunks",
    "sim.dropped.faulty_node",
    "sim.dropped.faulty_link",
    "sim.dropped.link_down",
    "sim.dropped.chaos_drop",
    "chaos.runs",
    "chaos.delivered",
    "chaos.failed_detected",
    "chaos.retries",
    "chaos.node_kills",
    "chaos.link_kills",
    "chaos.tampered",
    "chaos.duplicates",
    "campaign.cells",
    "campaign.trials",
    "campaign.delivered",
    "campaign.fits",
)

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

    On exit the previous enabled/recorder state is restored; if a recorder
    was opened, a final ``metrics_snapshot`` is appended before the
    ``run_end`` record, so every ``observed`` stream is self-contained.
    """
    was_enabled = _METRICS.enabled
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


def record_route_attempt(result: Any) -> None:
    """One unicast attempt: outcome counters + an optional stream event.

    ``result`` is a :class:`repro.routing.result.RouteResult`; the hook
    only reads it, and reads nothing at all when observability is off.
    """
    reg, rec = _METRICS, _RECORDER
    if not reg.enabled and rec is None:
        return
    status = result.status.value
    condition = result.condition.value
    hops = result.hops
    detour = result.detour
    if reg.enabled:
        reg.counter("route.attempts").inc()
        reg.counter("route." + status.replace("-", "_")).inc()
        reg.counter("route.condition." + condition).inc()
        reg.histogram("route.hops").observe(hops)
        if detour is not None:
            reg.histogram("route.detour").observe(detour)
    if rec is not None:
        rec.emit(
            "route_attempt",
            router=result.router,
            status=status,
            condition=condition,
            hamming=result.hamming,
            hops=hops,
            detour=detour,
        )


def record_routing_batch(result: Any) -> None:
    """One batched routing kernel call: batch counters, one stream event.

    ``result`` is a :class:`repro.routing.batch.BatchRouteResult`.  The
    batch kernel deliberately does **not** fire per-attempt
    ``route_attempt`` hooks — a single call can cover 10^5 routes — but
    it keeps the ``route.*`` counters in sync by incrementing them with
    batch totals, so counter-based consumers see the same numbers either
    way.  The stream gets one ``routing_batch`` event carrying the batch
    shape, the dispatched kernel, and per-status/per-condition counts.
    """
    reg, rec = _METRICS, _RECORDER
    if not reg.enabled and rec is None:
        return
    statuses = result.status_counts()
    conditions = result.condition_counts()
    hops_sum = int(result.hops.sum())
    if reg.enabled:
        reg.counter("routing.batch_calls").inc()
        reg.counter("routing.batch_routes").inc(result.routes)
        reg.counter("route.attempts").inc(result.routes)
        for status, count in statuses.items():
            reg.counter("route." + status.replace("-", "_")).inc(count)
        for condition, count in conditions.items():
            reg.counter("route.condition." + condition).inc(count)
        reg.histogram("routing.batch_size").observe(result.routes)
    if rec is not None:
        rec.emit(
            "routing_batch",
            n=result.topo.dimension,
            trials=result.trials,
            pairs=result.pairs,
            routes=result.routes,
            tie_break=result.tie_break,
            kernel=result.kernel,
            statuses=statuses,
            conditions=conditions,
            hops_sum=hops_sum,
        )


def record_gs_batch(n: int, batch: int, kernel: str, rounds: Any) -> None:
    """One batched safety-level kernel call.

    ``rounds`` is the per-trial stabilization-round vector the kernel
    already computed; the hook reduces it to a bounded histogram (rounds
    never exceed ``n - 1``), so event size is O(n) regardless of batch.
    """
    reg, rec = _METRICS, _RECORDER
    if not reg.enabled and rec is None:
        return
    if reg.enabled:
        reg.counter("gs.batch_calls").inc()
        reg.counter("gs.trials").inc(batch)
        reg.counter("gs.kernel." + kernel).inc()
        reg.histogram("gs.batch_size").observe(batch)
    if rec is not None:
        import numpy as np

        counts = np.bincount(np.asarray(rounds, dtype=np.int64))
        hist = {int(r): int(c) for r, c in enumerate(counts) if c}
        rec.emit(
            "gs_batch",
            n=n,
            batch=batch,
            kernel=kernel,
            rounds_hist=hist,
            rounds_max=int(max(hist)) if hist else 0,
            rounds_sum=int(sum(r * c for r, c in hist.items())),
        )


def record_incremental_update(n: int, stats: Any) -> None:
    """One fault delta applied by the incremental level engine.

    ``stats`` is a :class:`repro.safety.incremental.DeltaStats`.  Besides
    the update/fallback counters, the dirty-seed and wave histograms are
    what make the engine's central claim auditable from ``repro stats``:
    dirty sets stay small (bounded neighborhoods) while the message
    accounting matches the full protocol.
    """
    reg, rec = _METRICS, _RECORDER
    if not reg.enabled and rec is None:
        return
    if reg.enabled:
        reg.counter("safety.incremental_updates").inc()
        reg.counter("safety.incremental_messages").inc(stats.messages)
        if stats.fallback:
            reg.counter("safety.incremental_fallbacks").inc()
        reg.histogram("safety.incremental_dirty").observe(stats.dirty_seed)
        reg.histogram("safety.incremental_waves").observe(stats.rounds)
    if rec is not None:
        rec.emit(
            "incremental_update",
            n=n,
            added=stats.added,
            removed=stats.removed,
            dirty_seed=stats.dirty_seed,
            dirty_total=stats.dirty_total,
            changed=stats.changed,
            rounds=stats.rounds,
            messages=stats.messages,
            fallback=stats.fallback,
        )


def record_service_batch(
    n: int,
    epoch: int,
    routes: int,
    rejected: int,
    queue_us: int,
    exec_us: int,
    entries: Optional[int] = None,
) -> None:
    """One micro-batch flushed by the routing service.

    ``routes`` requests went through the kernel, ``rejected`` were
    refused pre-kernel (faulty endpoint at this epoch — still answered,
    never dropped).  ``queue_us`` is the oldest request's wait inside the
    batching window, ``exec_us`` the kernel-plus-demux wall time; the two
    histograms are what make the size/deadline window tunable from
    ``repro stats`` output instead of guesswork.  ``entries`` counts the
    batcher entries the flush aggregated (block submissions carry many
    routes per entry; omitted when every entry is a single pair).
    """
    reg, rec = _METRICS, _RECORDER
    if not reg.enabled and rec is None:
        return
    if reg.enabled:
        reg.counter("service.batches").inc()
        reg.counter("service.batch_routes").inc(routes)
        reg.counter("service.requests").inc(routes + rejected)
        reg.counter("service.rejected").inc(rejected)
        reg.histogram("service.batch_size").observe(routes + rejected)
        reg.histogram("service.queue_us").observe(queue_us)
        reg.histogram("service.exec_us").observe(exec_us)
    if rec is not None:
        payload = dict(
            n=n,
            epoch=epoch,
            routes=routes,
            rejected=rejected,
            backend="inline",  # required by the v1 schema; on the loop
            queue_us=queue_us,
            exec_us=exec_us,
        )
        if entries is not None:
            payload["entries"] = entries
        rec.emit("service_batch", **payload)


def record_block_submission(pairs: int) -> None:
    """One block submission (many pairs, one future) entering a batcher."""
    reg = _METRICS
    if not reg.enabled:
        return
    reg.counter("service.blocks").inc()
    reg.histogram("service.block_pairs").observe(pairs)


def record_wire_frame(op: int, payload_len: int, error: bool = False) -> None:
    """One binary RPC frame decoded (or rejected) by the server.

    Counter-only — per-frame stream events would swamp the recorder at
    wire rates.  ``error`` covers both framing violations and dispatch
    failures answered with an error frame.
    """
    reg = _METRICS
    if not reg.enabled:
        return
    reg.counter("service.wire_frames").inc()
    if error:
        reg.counter("service.wire_errors").inc()
    reg.histogram("service.wire_payload").observe(payload_len)


def record_shard_request(tenant: str, routes: int, error: bool = False) -> None:
    """One request resolved through the shard router, by tenant outcome."""
    reg = _METRICS
    if not reg.enabled:
        return
    reg.counter("shard.requests").inc(routes)
    if error:
        reg.counter("shard.errors").inc()


def record_shard_down(shard_id: int, tenants: int) -> None:
    """One shard confirmed dead by the router (injected or inferred).

    Counter-only: the full story (who moved where, how fast) belongs to
    the ``shard_failover`` event fired by :func:`record_shard_failover`
    once recovery completes; this counter exists so dashboards can see
    deaths even when failover is disabled and tenants fail fast.
    """
    reg = _METRICS
    if not reg.enabled:
        return
    reg.counter("service.shard_down").inc()
    reg.histogram("service.shard_down_tenants").observe(tenants)


def record_shard_failover(
    shard_id: int,
    tenants: int,
    moved: int,
    failover_ms: float,
    epochs_replayed: int,
    detected: str,
) -> None:
    """One completed shard failover: tenants re-placed on survivors.

    ``failover_ms`` spans confirm-death → every tenant re-placed with
    its fault journal replayed (the recovery-time metric the bench soak
    gates as p99).  ``detected`` says how death was established:
    ``"injected"`` (an operator ``kill_shard``) or ``"inferred"`` (the
    failure detector's probe timeouts) — the paper's oracle-vs-syndrome
    distinction one layer up.
    """
    reg, rec = _METRICS, _RECORDER
    if not reg.enabled and rec is None:
        return
    if reg.enabled:
        reg.counter("service.failover_count").inc()
        reg.histogram("service.failover_ms").observe(failover_ms)
        reg.histogram("service.failover_tenants").observe(moved)
    if rec is not None:
        rec.emit(
            "shard_failover",
            shard=shard_id,
            tenants=tenants,
            moved=moved,
            failover_ms=round(failover_ms, 3),
            epochs_replayed=epochs_replayed,
            detected=detected,
        )


def record_shed_request(tenant: str, rows: int) -> None:
    """One request refused by admission control (load shed, E_OVERLOAD).

    Counter-only by design: sheds happen exactly when the service is
    drowning, so the hook must stay as close to free as a counter bump.
    """
    reg = _METRICS
    if not reg.enabled:
        return
    reg.counter("service.shed_requests").inc()
    reg.histogram("service.shed_rows").observe(rows)


def record_epoch_swap(
    n: int,
    epoch: int,
    added: int,
    removed: int,
    faults: int,
    publish_us: int,
    fallback: bool,
    flip_us: int = 0,
) -> None:
    """One fault-epoch swap published by the service's epoch manager.

    Fired after the new read-only table is sealed and the service
    reference has swapped — every batch flushed from this point routes
    against epoch ``epoch``.  ``publish_us`` is the re-stabilize + seal
    cost and ``flip_us`` the reference swap; the event's ``spare`` field
    is always True, kept so the event layout does not change.  The delta
    bookkeeping itself (dirty sets, waves, protocol messages) is already
    covered by the engine's ``incremental_update`` event; this one
    records the *service-level* transition and its latency split.
    """
    reg, rec = _METRICS, _RECORDER
    if not reg.enabled and rec is None:
        return
    if reg.enabled:
        reg.counter("service.epoch_swaps").inc()
        reg.histogram("service.publish_us").observe(publish_us)
        reg.histogram("service.flip_us").observe(flip_us)
    if rec is not None:
        rec.emit(
            "epoch_swap",
            n=n,
            epoch=epoch,
            added=added,
            removed=removed,
            faults=faults,
            publish_us=publish_us,
            fallback=fallback,
            spare=True,
            flip_us=flip_us,
        )


def record_sim_drop(reason: str) -> None:
    """One message lost by the simulator network, by cause.

    Fired from ``Network._drop`` for every refused delivery, so lost
    messages show up in ``repro stats`` as ``sim.dropped.<reason>``
    counters instead of vanishing into the (usually disabled) trace.
    Counter-only: per-message stream events would swamp chaos runs.
    """
    reg = _METRICS
    if not reg.enabled:
        return
    reg.counter("sim.dropped." + reason.replace("-", "_")).inc()


def record_chaos_run(record: Dict[str, Any]) -> None:
    """One resilient delivery under a chaos plan.

    ``record`` is the flat dict a
    :class:`repro.routing.resilient.ResilientResult` reduces to (see
    ``chaos_record()``) — already JSON-primitive, matching the
    ``chaos_run`` event schema.
    """
    reg, rec = _METRICS, _RECORDER
    if not reg.enabled and rec is None:
        return
    delivered = record["status"] == "delivered"
    if reg.enabled:
        reg.counter("chaos.runs").inc()
        reg.counter("chaos.delivered" if delivered
                    else "chaos.failed_detected").inc()
        reg.counter("chaos.retries").inc(record["retries"])
        reg.counter("chaos.node_kills").inc(record["node_kills"])
        reg.counter("chaos.link_kills").inc(record["link_kills"])
        reg.counter("chaos.tampered").inc(record["tampered"])
        reg.counter("chaos.duplicates").inc(record["duplicates"])
        reg.histogram("chaos.attempts").observe(record["attempts"])
        if record.get("latency") is not None:
            reg.histogram("chaos.latency").observe(record["latency"])
    if rec is not None:
        rec.emit("chaos_run", **record)


def record_campaign_cell(record: Dict[str, Any]) -> None:
    """One completed campaign design point (aggregate cell responses).

    ``record`` is the flat payload of the ``campaign_cell`` event: the
    cell's identity and factor levels plus its aggregated responses, all
    JSON primitives (the ``conditions`` histogram is a plain dict).
    """
    reg, rec = _METRICS, _RECORDER
    if not reg.enabled and rec is None:
        return
    if reg.enabled:
        reg.counter("campaign.cells").inc()
        reg.counter("campaign.trials").inc(record["trials"])
        reg.counter("campaign.delivered").inc(record["delivered"])
        reg.histogram("campaign.delivery_rate").observe(
            record["delivery_rate"])
    if rec is not None:
        rec.emit("campaign_cell", **record)


def record_campaign_fit(record: Dict[str, Any]) -> None:
    """One fitted response surface from the campaign analysis stage."""
    reg, rec = _METRICS, _RECORDER
    if not reg.enabled and rec is None:
        return
    if reg.enabled:
        reg.counter("campaign.fits").inc()
    if rec is not None:
        rec.emit("campaign_fit", **record)


def record_sweep(
    master_seed: int,
    trials: int,
    jobs: int,
    chunks: int,
    elapsed_s: float,
    chunk_seconds: Sequence[float] = (),
) -> None:
    """One sweep-engine run (one Monte-Carlo cell): throughput telemetry."""
    reg, rec = _METRICS, _RECORDER
    if not reg.enabled and rec is None:
        return
    if reg.enabled:
        reg.counter("sweep.runs").inc()
        reg.counter("sweep.trials").inc(trials)
        reg.counter("sweep.chunks").inc(chunks)
        reg.gauge("sweep.jobs").set(jobs)
        timer = reg.timer("sweep.chunk")
        for sec in chunk_seconds:
            timer.observe(sec)
        reg.timer("sweep.run").observe(elapsed_s)
    if rec is not None:
        rec.emit(
            "sweep",
            master_seed=master_seed,
            trials=trials,
            jobs=jobs,
            chunks=chunks,
            elapsed_s=round(elapsed_s, 6),
            trials_per_s=round(trials / elapsed_s, 3) if elapsed_s > 0 else 0.0,
        )
