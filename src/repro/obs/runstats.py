"""Offline aggregation of a recorded run: the ``repro stats`` backend.

Reads a ``--metrics-out`` JSONL file, validates it against the schema,
and folds the event stream back into the quantities the live experiment
reported — C1/C2/C3 hit rates, GS stabilization-round averages and
maxima, sweep-engine throughput — *from the events alone*.  That
round-trip (emit → aggregate → same numbers) is the contract the
telemetry layer is tested against: if ``repro stats`` cannot reproduce a
headline number, the stream is missing information.

The fold knows no event type by name: it aggregates every field of
every record by its JSON shape, so a signal added to
:data:`~repro.obs.events.SIGNALS` is folded without touching this module.

Deliberately free of :mod:`repro.analysis` imports so the observability
layer stays at the bottom of the dependency stack (core/simcore-level);
rendering is plain text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from .events import SIGNALS, SchemaError, validate_stream
from .recorder import iter_events

__all__ = ["RunStats", "summarize_run", "render_stats"]

_ENVELOPE = frozenset({"v", "seq", "type", "ts"})


def _merged(*tallies: Mapping[str, int]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for tally in tallies:
        for key, count in tally.items():
            out[key] = out.get(key, 0) + count
    return out


@dataclass
class RunStats:
    """Aggregates recovered from one run's event stream.

    Folded per ``(event type, field)``: a numeric field (a bool counts
    as 0 or 1) gives the number of events carrying it, its sum and its
    max; a string field gives a count per value; a count-map field
    (``statuses``, ``rounds_hist``, ...) gives its merged counts.
    Records of the spec's ``keep`` types (manifest, experiment,
    metrics_snapshot, run_end) are kept whole.
    """

    path: str
    total_events: int = 0
    event_counts: Dict[str, int] = field(default_factory=dict)
    kept: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    #: (type, field) -> [events carrying it, sum, max]
    numbers: Dict[Tuple[str, str], List[Any]] = field(default_factory=dict)
    #: (type, field) -> {value or map key -> count}
    tallies: Dict[Tuple[str, str], Dict[str, int]] = field(
        default_factory=dict)

    def add(self, record: Mapping[str, Any]) -> None:
        """Fold one validated record."""
        etype = record["type"]
        self.total_events += 1
        self.event_counts[etype] = self.event_counts.get(etype, 0) + 1
        if SIGNALS[etype].keep:
            self.kept.setdefault(etype, []).append(record)
            return
        for name, value in record.items():
            if name in _ENVELOPE:
                continue
            key = (etype, name)
            if isinstance(value, (int, float)):
                agg = self.numbers.get(key)
                if agg is None:  # 0 + value: a bool sums as an int
                    self.numbers[key] = [1, 0 + value, value]
                else:
                    agg[0] += 1
                    agg[1] += value
                    agg[2] = max(agg[2], value)
            elif isinstance(value, str):
                tally = self.tallies.setdefault(key, {})
                tally[value] = tally.get(value, 0) + 1
            elif isinstance(value, dict) and all(
                    isinstance(c, (int, float)) for c in value.values()):
                tally = self.tallies.setdefault(key, {})
                for k, count in value.items():
                    tally[k] = tally.get(k, 0) + count

    # -- generic aggregates --------------------------------------------------

    def count(self, etype: str) -> int:
        """Events of type ``etype``."""
        return self.event_counts.get(etype, 0)

    def present(self, etype: str, name: str) -> int:
        """``etype`` events carrying numeric field ``name``."""
        return self.numbers.get((etype, name), (0, 0, 0))[0]

    def sum(self, etype: str, name: str) -> Any:
        return self.numbers.get((etype, name), (0, 0, 0))[1]

    def max(self, etype: str, name: str) -> Any:
        return self.numbers.get((etype, name), (0, 0, 0))[2]

    def tally(self, etype: str, name: str) -> Dict[str, int]:
        """Counts per value of a string field, or a count map's merged
        counts (keys as JSON strings)."""
        return self.tallies.get((etype, name), {})

    # -- kept records --------------------------------------------------------

    @property
    def manifest(self) -> Dict[str, Any]:
        return self.kept["manifest"][0]

    @property
    def run_end(self) -> Dict[str, Any]:
        return self.kept["run_end"][-1]

    @property
    def metrics_snapshot(self) -> Optional[Dict[str, Any]]:
        snapshots = self.kept.get("metrics_snapshot")
        return snapshots[-1]["metrics"] if snapshots else None

    # -- headline numbers ----------------------------------------------------

    @property
    def route_attempts(self) -> int:
        """Unicasts routed one by one plus those in batched calls."""
        return (self.count("route_attempt")
                + sum(self.tally("routing_batch", "statuses").values()))

    def condition_rate(self, condition: str) -> float:
        attempts = self.route_attempts
        if not attempts:
            return 0.0
        hits = (self.tally("route_attempt", "condition").get(condition, 0)
                + self.tally("routing_batch", "conditions").get(condition, 0))
        return hits / attempts

    @property
    def gs_trials(self) -> int:
        return sum(self.tally("gs_batch", "rounds_hist").values())

    @property
    def gs_rounds_mean(self) -> float:
        trials = self.gs_trials
        if not trials:
            return 0.0
        hist = self.tally("gs_batch", "rounds_hist")
        return sum(int(r) * c for r, c in hist.items()) / trials

    @property
    def gs_rounds_max(self) -> int:
        return max(map(int, self.tally("gs_batch", "rounds_hist")), default=0)

    @property
    def sweep_trials(self) -> int:
        return self.sum("sweep", "trials")

    @property
    def sweep_trials_per_s(self) -> float:
        elapsed = self.sum("sweep", "elapsed_s")
        if elapsed <= 0:
            return 0.0
        return self.sweep_trials / elapsed


def summarize_run(path: Union[str, Path]) -> RunStats:
    """Validate ``path`` and fold its events into a :class:`RunStats`."""
    try:
        records = list(iter_events(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON Lines: {exc}") from exc
    validate_stream(records)
    stats = RunStats(path=str(path))
    for record in records:
        stats.add(record)
    return stats


def _fmt_counts(pairs: Dict[str, int], total: int) -> str:
    parts = []
    for key in sorted(pairs):
        share = 100.0 * pairs[key] / total if total else 0.0
        parts.append(f"{key}={pairs[key]} ({share:.1f}%)")
    return "  ".join(parts) if parts else "none"


def render_stats(stats: RunStats) -> str:
    """Human-readable report mirroring the live experiment's headlines."""
    count, total, tally = stats.count, stats.sum, stats.tally
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
    experiments = stats.kept.get("experiment", [])
    if experiments:
        lines.append("experiments:")
        for exp in experiments:
            lines.append(f"  {exp['name']:<16} {exp['status']:<6} "
                         f"{exp['elapsed_s']:.2f}s")
    attempts = stats.route_attempts
    lines.append(f"routing: {attempts} attempts")
    batches = count("routing_batch")
    if batches:
        lines.append(
            f"  batched:    {total('routing_batch', 'routes')} routes in "
            f"{batches} kernel calls "
            f"({_fmt_counts(tally('routing_batch', 'kernel'), batches)})"
        )
    if attempts:
        status = _merged(tally("route_attempt", "status"),
                         tally("routing_batch", "statuses"))
        conditions = _merged(tally("route_attempt", "condition"),
                             tally("routing_batch", "conditions"))
        hops = total("route_attempt", "hops") + total("routing_batch",
                                                      "hops_sum")
        lines.append("  status:     " + _fmt_counts(status, attempts))
        lines.append("  conditions: " + _fmt_counts(conditions, attempts))
        lines.append(f"  mean hops:  {hops / attempts:.3f}")
    batches = count("gs_batch")
    lines.append(
        f"gs kernel: {stats.gs_trials} trials in {batches} batches"
        + (f" ({_fmt_counts(tally('gs_batch', 'kernel'), batches)})"
           if batches else "")
    )
    if stats.gs_trials:
        hist = sorted((int(r), c)
                      for r, c in tally("gs_batch", "rounds_hist").items())
        lines.append(f"  rounds: mean={stats.gs_rounds_mean:.4f}  "
                     f"max={stats.gs_rounds_max}  hist={dict(hist)}")
    updates = count("incremental_update")
    if updates:
        lines.append(
            f"incremental levels: {updates} updates "
            f"({total('incremental_update', 'fallback')} fallbacks)"
        )
        lines.append(
            f"  dirty:      seed_mean="
            f"{total('incremental_update', 'dirty_seed') / updates:.2f}  "
            f"evaluated={total('incremental_update', 'dirty_total')}  "
            f"changed={total('incremental_update', 'changed')}"
        )
        lines.append(
            f"  protocol:   rounds={total('incremental_update', 'rounds')}  "
            f"messages={total('incremental_update', 'messages')}"
        )
    batches, swaps = count("service_batch"), count("epoch_swap")
    if batches or swaps:
        routed = total("service_batch", "routes")
        rejected = total("service_batch", "rejected")
        requests = routed + rejected
        entries = total("service_batch", "entries")
        size_mean = requests / batches if batches else 0.0
        queue_mean = (total("service_batch", "queue_us") / batches
                      if batches else 0.0)
        lines.append(
            f"service: {requests} requests in {batches} micro-batches "
            f"(mean size {size_mean:.1f}; "
            f"{_fmt_counts(tally('service_batch', 'backend'), batches)})"
        )
        lines.append(f"  outcomes:   routed={routed}  rejected={rejected}")
        if entries and entries != requests:
            lines.append(
                f"  blocks:     {requests} rows in {entries} entries "
                f"(x{requests / entries:.1f} wire amortization)"
            )
        lines.append(
            f"  latency:    queue_us_mean={queue_mean:.0f}  "
            f"exec_us_sum={total('service_batch', 'exec_us')}"
        )
        lines.append(
            f"  epochs:     swaps={swaps} "
            f"(fallbacks={total('epoch_swap', 'fallback')})  "
            f"last_epoch={stats.max('epoch_swap', 'epoch')}  "
            f"faults +{total('epoch_swap', 'added')}"
            f"/-{total('epoch_swap', 'removed')}  "
            f"publish_us_sum={total('epoch_swap', 'publish_us')}  "
            f"flip_us_sum={total('epoch_swap', 'flip_us')}"
        )
    deaths = count("shard_failover")
    if deaths:
        mean_ms = total("shard_failover", "failover_ms") / deaths
        lines.append(
            f"failover: {deaths} shard deaths "
            f"({_fmt_counts(tally('shard_failover', 'detected'), deaths)})"
        )
        lines.append(
            f"  recovered:  tenants_moved={total('shard_failover', 'moved')}  "
            f"epochs_replayed={total('shard_failover', 'epochs_replayed')}"
        )
        lines.append(
            f"  recovery:   failover_ms_mean={mean_ms:.1f}  "
            f"failover_ms_max={stats.max('shard_failover', 'failover_ms'):.1f}"
        )
    runs = count("chaos_run")
    if runs:
        delivered = tally("chaos_run", "status").get("delivered", 0)
        lines.append(
            f"chaos: {runs} runs  delivered={delivered} "
            f"({100.0 * (delivered / runs):.1f}%)"
        )
        lines.append("  stages:     "
                     + _fmt_counts(tally("chaos_run", "stage"), runs))
        lines.append(
            f"  injected:   node_kills={total('chaos_run', 'node_kills')}  "
            f"link_kills={total('chaos_run', 'link_kills')}  "
            f"tampered={total('chaos_run', 'tampered')}"
        )
        lines.append(
            f"  recovery:   retries={total('chaos_run', 'retries')}  "
            f"duplicates={total('chaos_run', 'duplicates')}  "
            f"stale_reroutes={total('chaos_run', 'stale_reroutes')}  "
            f"hops_sum={total('chaos_run', 'hops')}"
        )
        latencies = stats.present("chaos_run", "latency")
        if latencies:
            lines.append(
                f"  latency:    mean="
                f"{total('chaos_run', 'latency') / latencies:.3f} ticks "
                f"over {latencies} deliveries"
            )
    if stats.sweep_trials:
        lines.append(
            f"sweeps: {stats.sweep_trials} trials / "
            f"{total('sweep', 'chunks')} chunks in "
            f"{total('sweep', 'elapsed_s'):.3f}s busy "
            f"-> {stats.sweep_trials_per_s:,.0f} trials/s "
            f"(jobs<={stats.max('sweep', 'jobs')})"
        )
    if stats.metrics_snapshot:
        counters = stats.metrics_snapshot.get("counters", {})
        nonzero = {k: v for k, v in counters.items() if v}
        lines.append(f"counters ({len(counters)} registered, "
                     f"{len(nonzero)} nonzero):")
        for key in sorted(counters):
            lines.append(f"  {key:<28} {counters[key]}")
    return "\n".join(lines)
