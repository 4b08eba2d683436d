"""Offline aggregation of a recorded run: the ``repro stats`` backend.

Reads a ``--metrics-out`` JSONL file, validates it against the schema,
and folds the event stream back into the quantities the live experiment
reported — C1/C2/C3 hit rates, GS stabilization-round averages and
maxima, sweep-engine throughput — *from the events alone*.  That
round-trip (emit → aggregate → same numbers) is the contract the
telemetry layer is tested against: if ``repro stats`` cannot reproduce a
headline number, the stream is missing information.

Deliberately free of :mod:`repro.analysis` imports so the observability
layer stays at the bottom of the dependency stack (core/simcore-level);
rendering is plain text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .events import SchemaError, validate_stream
from .recorder import iter_events

__all__ = ["RunStats", "summarize_run", "render_stats"]


@dataclass
class RunStats:
    """Aggregates recovered from one run's event stream."""

    path: str
    manifest: Dict[str, Any]
    run_end: Dict[str, Any]
    total_events: int = 0
    event_counts: Dict[str, int] = field(default_factory=dict)
    #: RouteStatus value -> attempts; SourceCondition value -> attempts.
    route_status: Dict[str, int] = field(default_factory=dict)
    route_conditions: Dict[str, int] = field(default_factory=dict)
    route_hops_sum: int = 0
    #: routing_batch kernel calls and the routes they covered (the
    #: per-route outcomes are already folded into route_status /
    #: route_conditions / route_hops_sum alongside scalar attempts).
    routing_batches: int = 0
    routing_batch_routes: int = 0
    routing_kernels: Dict[str, int] = field(default_factory=dict)
    #: stabilization round -> trial count, merged over every gs_batch.
    gs_rounds_hist: Dict[int, int] = field(default_factory=dict)
    gs_kernels: Dict[str, int] = field(default_factory=dict)
    gs_batches: int = 0
    #: incremental_update aggregates: fault deltas the level engine
    #: absorbed without a full recompute.
    incr_updates: int = 0
    incr_fallbacks: int = 0
    incr_dirty_seed_sum: int = 0
    incr_dirty_total_sum: int = 0
    incr_changed_sum: int = 0
    incr_rounds_sum: int = 0
    incr_messages_sum: int = 0
    #: service_batch / epoch_swap aggregates: the routing service's
    #: micro-batched request flow and its fault-epoch transitions.
    service_batches: int = 0
    service_routes: int = 0
    service_rejected: int = 0
    #: batcher *entries* folded into those batches — a block submission
    #: is one entry covering many rows, so entries < requests measures
    #: how much the wire's BLOCK op amortized (omitted in the event when
    #: every entry was a single, i.e. entries == requests).
    service_entries: int = 0
    service_backends: Dict[str, int] = field(default_factory=dict)
    service_queue_us_sum: int = 0
    service_exec_us_sum: int = 0
    epoch_swaps: int = 0
    epoch_swap_fallbacks: int = 0
    epoch_faults_added: int = 0
    epoch_faults_removed: int = 0
    epoch_publish_us_sum: int = 0
    epoch_flip_us_sum: int = 0
    epoch_last: int = 0
    #: shard_failover aggregates: self-healing events at the shard tier.
    shard_failovers: int = 0
    failover_tenants_moved: int = 0
    failover_epochs_replayed: int = 0
    failover_ms_sum: float = 0.0
    failover_ms_max: float = 0.0
    failover_detected: Dict[str, int] = field(default_factory=dict)
    sweep_trials: int = 0
    sweep_chunks: int = 0
    sweep_elapsed_s: float = 0.0
    sweep_jobs_max: int = 0
    #: chaos_run aggregates: resilient deliveries under fault injection.
    chaos_runs: int = 0
    chaos_delivered: int = 0
    chaos_stages: Dict[str, int] = field(default_factory=dict)
    chaos_retries: int = 0
    chaos_node_kills: int = 0
    chaos_link_kills: int = 0
    chaos_tampered: int = 0
    chaos_duplicates: int = 0
    chaos_stale_reroutes: int = 0
    chaos_hops_sum: int = 0
    chaos_latency_sum: int = 0
    chaos_latency_count: int = 0
    experiments: List[Dict[str, Any]] = field(default_factory=list)
    metrics_snapshot: Optional[Dict[str, Any]] = None

    # -- derived headline numbers ------------------------------------------

    @property
    def route_attempts(self) -> int:
        return sum(self.route_status.values())

    @property
    def gs_trials(self) -> int:
        return sum(self.gs_rounds_hist.values())

    @property
    def gs_rounds_mean(self) -> float:
        trials = self.gs_trials
        if not trials:
            return 0.0
        return sum(r * c for r, c in self.gs_rounds_hist.items()) / trials

    @property
    def gs_rounds_max(self) -> int:
        return max(self.gs_rounds_hist, default=0)

    @property
    def sweep_trials_per_s(self) -> float:
        if self.sweep_elapsed_s <= 0:
            return 0.0
        return self.sweep_trials / self.sweep_elapsed_s

    @property
    def incr_dirty_seed_mean(self) -> float:
        if not self.incr_updates:
            return 0.0
        return self.incr_dirty_seed_sum / self.incr_updates

    def condition_rate(self, condition: str) -> float:
        attempts = self.route_attempts
        if not attempts:
            return 0.0
        return self.route_conditions.get(condition, 0) / attempts

    @property
    def service_requests(self) -> int:
        return self.service_routes + self.service_rejected

    @property
    def service_queue_us_mean(self) -> float:
        if not self.service_batches:
            return 0.0
        return self.service_queue_us_sum / self.service_batches

    @property
    def service_batch_size_mean(self) -> float:
        if not self.service_batches:
            return 0.0
        return self.service_requests / self.service_batches

    @property
    def chaos_delivery_rate(self) -> float:
        if not self.chaos_runs:
            return 0.0
        return self.chaos_delivered / self.chaos_runs

    @property
    def chaos_latency_mean(self) -> float:
        if not self.chaos_latency_count:
            return 0.0
        return self.chaos_latency_sum / self.chaos_latency_count


def summarize_run(path: Union[str, Path]) -> RunStats:
    """Validate ``path`` and fold its events into a :class:`RunStats`."""
    try:
        records = list(iter_events(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON Lines: {exc}") from exc
    validate_stream(records)
    stats = RunStats(path=str(path), manifest=records[0],
                     run_end=records[-1], total_events=len(records))
    for rec in records:
        etype = rec["type"]
        stats.event_counts[etype] = stats.event_counts.get(etype, 0) + 1
        if etype == "route_attempt":
            status, cond = rec["status"], rec["condition"]
            stats.route_status[status] = stats.route_status.get(status, 0) + 1
            stats.route_conditions[cond] = (
                stats.route_conditions.get(cond, 0) + 1)
            stats.route_hops_sum += rec["hops"]
        elif etype == "routing_batch":
            stats.routing_batches += 1
            stats.routing_batch_routes += rec["routes"]
            stats.routing_kernels[rec["kernel"]] = (
                stats.routing_kernels.get(rec["kernel"], 0) + 1)
            for status, count in rec["statuses"].items():
                stats.route_status[status] = (
                    stats.route_status.get(status, 0) + count)
            for cond, count in rec["conditions"].items():
                stats.route_conditions[cond] = (
                    stats.route_conditions.get(cond, 0) + count)
            stats.route_hops_sum += rec["hops_sum"]
        elif etype == "gs_batch":
            stats.gs_batches += 1
            stats.gs_kernels[rec["kernel"]] = (
                stats.gs_kernels.get(rec["kernel"], 0) + 1)
            for r, c in rec["rounds_hist"].items():
                r = int(r)  # JSON object keys arrive as strings
                stats.gs_rounds_hist[r] = stats.gs_rounds_hist.get(r, 0) + c
        elif etype == "incremental_update":
            stats.incr_updates += 1
            if rec["fallback"]:
                stats.incr_fallbacks += 1
            stats.incr_dirty_seed_sum += rec["dirty_seed"]
            stats.incr_dirty_total_sum += rec["dirty_total"]
            stats.incr_changed_sum += rec["changed"]
            stats.incr_rounds_sum += rec["rounds"]
            stats.incr_messages_sum += rec["messages"]
        elif etype == "service_batch":
            stats.service_batches += 1
            stats.service_routes += rec["routes"]
            stats.service_rejected += rec["rejected"]
            stats.service_entries += rec.get(
                "entries", rec["routes"] + rec["rejected"])
            stats.service_backends[rec["backend"]] = (
                stats.service_backends.get(rec["backend"], 0) + 1)
            stats.service_queue_us_sum += rec["queue_us"]
            stats.service_exec_us_sum += rec["exec_us"]
        elif etype == "epoch_swap":
            stats.epoch_swaps += 1
            if rec["fallback"]:
                stats.epoch_swap_fallbacks += 1
            stats.epoch_faults_added += rec["added"]
            stats.epoch_faults_removed += rec["removed"]
            stats.epoch_publish_us_sum += rec["publish_us"]
            stats.epoch_flip_us_sum += rec.get("flip_us", 0)
            stats.epoch_last = max(stats.epoch_last, rec["epoch"])
        elif etype == "shard_failover":
            stats.shard_failovers += 1
            stats.failover_tenants_moved += rec["moved"]
            stats.failover_epochs_replayed += rec["epochs_replayed"]
            stats.failover_ms_sum += rec["failover_ms"]
            stats.failover_ms_max = max(stats.failover_ms_max,
                                        rec["failover_ms"])
            stats.failover_detected[rec["detected"]] = (
                stats.failover_detected.get(rec["detected"], 0) + 1)
        elif etype == "chaos_run":
            stats.chaos_runs += 1
            if rec["status"] == "delivered":
                stats.chaos_delivered += 1
            stats.chaos_stages[rec["stage"]] = (
                stats.chaos_stages.get(rec["stage"], 0) + 1)
            stats.chaos_retries += rec["retries"]
            stats.chaos_node_kills += rec["node_kills"]
            stats.chaos_link_kills += rec["link_kills"]
            stats.chaos_tampered += rec["tampered"]
            stats.chaos_duplicates += rec["duplicates"]
            stats.chaos_stale_reroutes += rec["stale_reroutes"]
            stats.chaos_hops_sum += rec["hops"]
            if "latency" in rec:
                stats.chaos_latency_sum += rec["latency"]
                stats.chaos_latency_count += 1
        elif etype == "sweep":
            stats.sweep_trials += rec["trials"]
            stats.sweep_chunks += rec["chunks"]
            stats.sweep_elapsed_s += rec["elapsed_s"]
            stats.sweep_jobs_max = max(stats.sweep_jobs_max, rec["jobs"])
        elif etype == "experiment":
            stats.experiments.append(rec)
        elif etype == "metrics_snapshot":
            stats.metrics_snapshot = rec["metrics"]
    return stats


def _fmt_counts(pairs: Dict[str, int], total: int) -> str:
    parts = []
    for key in sorted(pairs):
        share = 100.0 * pairs[key] / total if total else 0.0
        parts.append(f"{key}={pairs[key]} ({share:.1f}%)")
    return "  ".join(parts) if parts else "none"


def render_stats(stats: RunStats) -> str:
    """Human-readable report mirroring the live experiment's headlines."""
    m = stats.manifest
    lines = [
        f"run {m['run_id'][:12]}  [{stats.path}]",
        f"  schema v{m['v']}  tool={m['tool']}  started={m['started_at']}",
        f"  git={m.get('git_rev', 'n/a')}  python={m.get('python', 'n/a')}"
        f"  status={stats.run_end['status']}"
        f"  wall={stats.run_end['wall_s']:.3f}s",
        f"  events: {stats.total_events} total — "
        + "  ".join(f"{k}={v}" for k, v in sorted(stats.event_counts.items())),
    ]
    config = m.get("config") or {}
    if config:
        lines.append("  config: "
                     + "  ".join(f"{k}={v}" for k, v in sorted(config.items())))
    if stats.experiments:
        lines.append("experiments:")
        for exp in stats.experiments:
            lines.append(f"  {exp['name']:<16} {exp['status']:<6} "
                         f"{exp['elapsed_s']:.2f}s")
    attempts = stats.route_attempts
    lines.append(f"routing: {attempts} attempts")
    if stats.routing_batches:
        lines.append(
            f"  batched:    {stats.routing_batch_routes} routes in "
            f"{stats.routing_batches} kernel calls "
            f"({_fmt_counts(stats.routing_kernels, stats.routing_batches)})"
        )
    if attempts:
        lines.append("  status:     "
                     + _fmt_counts(stats.route_status, attempts))
        lines.append("  conditions: "
                     + _fmt_counts(stats.route_conditions, attempts))
        lines.append(f"  mean hops:  {stats.route_hops_sum / attempts:.3f}")
    lines.append(
        f"gs kernel: {stats.gs_trials} trials in {stats.gs_batches} batches"
        + (f" ({_fmt_counts(stats.gs_kernels, stats.gs_batches)})"
           if stats.gs_batches else "")
    )
    if stats.gs_trials:
        lines.append(f"  rounds: mean={stats.gs_rounds_mean:.4f}  "
                     f"max={stats.gs_rounds_max}  "
                     f"hist={dict(sorted(stats.gs_rounds_hist.items()))}")
    if stats.incr_updates:
        lines.append(
            f"incremental levels: {stats.incr_updates} updates "
            f"({stats.incr_fallbacks} fallbacks)"
        )
        lines.append(
            f"  dirty:      seed_mean={stats.incr_dirty_seed_mean:.2f}  "
            f"evaluated={stats.incr_dirty_total_sum}  "
            f"changed={stats.incr_changed_sum}"
        )
        lines.append(
            f"  protocol:   rounds={stats.incr_rounds_sum}  "
            f"messages={stats.incr_messages_sum}"
        )
    if stats.service_batches or stats.epoch_swaps:
        lines.append(
            f"service: {stats.service_requests} requests in "
            f"{stats.service_batches} micro-batches "
            f"(mean size {stats.service_batch_size_mean:.1f}; "
            f"{_fmt_counts(stats.service_backends, stats.service_batches)})"
        )
        lines.append(
            f"  outcomes:   routed={stats.service_routes}  "
            f"rejected={stats.service_rejected}"
        )
        if stats.service_entries and \
                stats.service_entries != stats.service_requests:
            lines.append(
                f"  blocks:     {stats.service_requests} rows in "
                f"{stats.service_entries} entries "
                f"(x{stats.service_requests / stats.service_entries:.1f} "
                f"wire amortization)"
            )
        lines.append(
            f"  latency:    queue_us_mean={stats.service_queue_us_mean:.0f}  "
            f"exec_us_sum={stats.service_exec_us_sum}"
        )
        lines.append(
            f"  epochs:     swaps={stats.epoch_swaps} "
            f"(fallbacks={stats.epoch_swap_fallbacks})  "
            f"last_epoch={stats.epoch_last}  "
            f"faults +{stats.epoch_faults_added}/-{stats.epoch_faults_removed}  "
            f"publish_us_sum={stats.epoch_publish_us_sum}  "
            f"flip_us_sum={stats.epoch_flip_us_sum}"
        )
    if stats.shard_failovers:
        mean_ms = stats.failover_ms_sum / stats.shard_failovers
        lines.append(
            f"failover: {stats.shard_failovers} shard deaths "
            f"({_fmt_counts(stats.failover_detected, stats.shard_failovers)})"
        )
        lines.append(
            f"  recovered:  tenants_moved={stats.failover_tenants_moved}  "
            f"epochs_replayed={stats.failover_epochs_replayed}"
        )
        lines.append(
            f"  recovery:   failover_ms_mean={mean_ms:.1f}  "
            f"failover_ms_max={stats.failover_ms_max:.1f}"
        )
    if stats.chaos_runs:
        lines.append(
            f"chaos: {stats.chaos_runs} runs  "
            f"delivered={stats.chaos_delivered} "
            f"({100.0 * stats.chaos_delivery_rate:.1f}%)"
        )
        lines.append("  stages:     "
                     + _fmt_counts(stats.chaos_stages, stats.chaos_runs))
        lines.append(
            f"  injected:   node_kills={stats.chaos_node_kills}  "
            f"link_kills={stats.chaos_link_kills}  "
            f"tampered={stats.chaos_tampered}"
        )
        lines.append(
            f"  recovery:   retries={stats.chaos_retries}  "
            f"duplicates={stats.chaos_duplicates}  "
            f"stale_reroutes={stats.chaos_stale_reroutes}  "
            f"hops_sum={stats.chaos_hops_sum}"
        )
        if stats.chaos_latency_count:
            lines.append(
                f"  latency:    mean={stats.chaos_latency_mean:.3f} ticks "
                f"over {stats.chaos_latency_count} deliveries"
            )
    if stats.sweep_trials:
        lines.append(
            f"sweeps: {stats.sweep_trials} trials / {stats.sweep_chunks} "
            f"chunks in {stats.sweep_elapsed_s:.3f}s busy "
            f"-> {stats.sweep_trials_per_s:,.0f} trials/s "
            f"(jobs<={stats.sweep_jobs_max})"
        )
    if stats.metrics_snapshot:
        counters = stats.metrics_snapshot.get("counters", {})
        nonzero = {k: v for k, v in counters.items() if v}
        lines.append(f"counters ({len(counters)} registered, "
                     f"{len(nonzero)} nonzero):")
        for key in sorted(counters):
            lines.append(f"  {key:<28} {counters[key]}")
    return "\n".join(lines)
