"""Span recording from outside the program, and the per-layer summary.

The benchmark never edits the program to trace it.  Instead it replaces
each layer's public function *where its caller looks it up* (a module
attribute or a class attribute) with a wrapper that records a span:
name, start, end, parent span, the wire ``req_id`` of the request it
serves, and a few attributes taken from the call's arguments or result.

Parent links follow :mod:`contextvars`: a wrapper sets the current span
for everything it calls, asyncio tasks inherit the context they were
created in, and :func:`copy_context_into_executors` makes executor
threads inherit the submitting task's context too.  A request's spans
share its ``req_id`` because the :func:`repro.service.wire.read_frame`
wrapper sets it when a frame arrives, just before the server creates the
frame's task.  A micro-batch's kernel span inherits the context of the
submit that opened its batch window (the batcher's collector task is
created from it), so it is parented to that submit when the window
opened fresh; :func:`queue_waits` matches submits to kernel tasks by
time instead.

Per-request spans are kept for one ROUTE/BLOCK frame in
:data:`SAMPLE_EVERY` (by ``req_id``), so a window of a few hundred
thousand single-route frames stays a few megabytes; every frame still
runs through the wrappers, every frame's arrival is counted, and
batch-level and fault-event spans are always kept.  Spans stay in memory
and are written out once, when the process ends.
"""

from __future__ import annotations

import asyncio
import bisect
import contextvars
import functools
import itertools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from measure import covered_ns, percentile, self_times

#: Keep the per-request spans of one data frame in this many.
SAMPLE_EVERY = 16

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)
#: (req_id, frame span id, frame start ns) of the request being served.
_REQUEST: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None)
#: False while serving a request whose per-request spans are not kept.
_SAMPLED: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_sampled", default=True)

#: One span: [span id, parent id, name, start ns, end ns, req_id, attrs].
SID, PARENT, NAME, START, END, REQ, ATTRS = range(7)

#: Layers whose spans belong to one request (kept only when sampled); the
#: others run once per batch or per fault event.
PER_REQUEST_LAYERS = ("server", "wire", "shard", "batcher")

#: Layers whose self time the summary reports, in request-path order.
SELF_TIME_LAYERS = ("server", "wire", "shard", "batcher", "workers", "shm",
                    "routing", "epoch", "incremental", "faults", "levels",
                    "sweep")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Arrival time of every frame, sampled or not.
        self.frames: List[int] = []
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _open(self):
        parent = _CURRENT.get()
        sid = next(self._ids)
        req = _REQUEST.get()
        return sid, parent, (req[0] if req is not None else None)

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None) -> Callable:
        """Wrap a plain function; ``attrs(args, kwargs, result)`` may add
        attributes from a successful call."""
        spans = self.spans
        per_request = layer_of(name) in PER_REQUEST_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if per_request and not _SAMPLED.get():
                return fn(*args, **kwargs)
            sid, parent, req = self._open()
            token = _CURRENT.set(sid)
            extra = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                extra = {"error": 1}
                raise
            else:
                if attrs is not None:
                    extra = attrs(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter_ns()
                _CURRENT.reset(token)
                spans.append([sid, parent, name, start, end, req, extra])

        return wrapper

    def wrap_async(self, name: str, fn: Callable,
                   attrs: Optional[Callable] = None) -> Callable:
        spans = self.spans
        per_request = layer_of(name) in PER_REQUEST_LAYERS

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if per_request and not _SAMPLED.get():
                return await fn(*args, **kwargs)
            sid, parent, req = self._open()
            token = _CURRENT.set(sid)
            extra = None
            start = time.perf_counter_ns()
            try:
                result = await fn(*args, **kwargs)
            except BaseException:
                extra = {"error": 1}
                raise
            else:
                if attrs is not None:
                    extra = attrs(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter_ns()
                _CURRENT.reset(token)
                spans.append([sid, parent, name, start, end, req, extra])

        return wrapper

    def patch(self, owner, attr: str, name: str,
              attrs: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a recording wrapper."""
        fn = getattr(owner, attr)
        wrap = self.wrap_async if asyncio.iscoroutinefunction(fn) \
            else self.wrap
        setattr(owner, attr, wrap(name, fn, attrs))
        self._patches.append((owner, attr, fn))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def span(self, name: str, **attrs):
        """Context manager recording one span from the benchmark's code."""
        return _ManualSpan(self, name, attrs or None)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "frames": self.frames}, fh)


class _ManualSpan:
    def __init__(self, rec: Recorder, name: str, attrs) -> None:
        self.rec, self.name, self.attrs = rec, name, attrs

    def __enter__(self):
        self.sid, self.parent, self.req = self.rec._open()
        self.token = _CURRENT.set(self.sid)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter_ns()
        _CURRENT.reset(self.token)
        self.rec.spans.append([self.sid, self.parent, self.name, self.start,
                               end, self.req, self.attrs])


def copy_context_into_executors(loop: asyncio.AbstractEventLoop) -> None:
    """Make ``loop.run_in_executor`` run callables in a copy of the
    caller's context, so spans on executor threads find their parent."""
    original = loop.run_in_executor

    def run_in_executor(executor, func, *args):
        return original(executor, contextvars.copy_context().run, func,
                        *args)

    loop.run_in_executor = run_in_executor


# -- what gets patched -------------------------------------------------------


def _rows(index: int):
    return lambda args, kwargs, result: {"rows": int(np.size(args[index]))}


def instrument_server(rec: Recorder) -> None:
    """Patch every service-path layer the serving workloads exercise."""
    from repro.safety import incremental
    from repro.service import batcher, epoch, service, shard, wire, workers

    for fn in ("decode_route", "decode_block", "decode_fault",
               "encode_route_reply", "encode_block_reply",
               "encode_fault_reply", "encode_error"):
        rec.patch(wire, fn, f"wire.{fn}")

    read_frame, encode_frame = wire.read_frame, wire.encode_frame
    data_ops = (wire.OP_ROUTE, wire.OP_BLOCK)

    async def traced_read_frame(reader):
        frame = await read_frame(reader)
        if frame is not None:
            # Set in the session task's context, which the frame task the
            # server creates next inherits: every span of this request
            # carries its req_id and hangs off its frame span.
            now = time.perf_counter_ns()
            rec.frames.append(now)
            op, req_id, _ = frame
            sampled = op not in data_ops or req_id % SAMPLE_EVERY == 0
            _SAMPLED.set(sampled)
            sid = next(rec._ids) if sampled else None
            _REQUEST.set((req_id, sid, now))
            _CURRENT.set(sid)
        return frame

    traced_encode = rec.wrap("wire.encode_frame", encode_frame)

    def traced_encode_frame(op, req_id, payload=b""):
        out = traced_encode(op, req_id, payload)
        req = _REQUEST.get()
        if _SAMPLED.get() and req is not None and req[0] == req_id:
            rec.spans.append([req[1], None, "server.frame", req[2],
                              time.perf_counter_ns(), req_id, {"op": op}])
        return out

    wire.read_frame = traced_read_frame
    wire.encode_frame = traced_encode_frame
    rec._patches += [(wire, "read_frame", read_frame),
                     (wire, "encode_frame", encode_frame)]

    rec.patch(shard.ShardRouter, "route", "shard.route")
    rec.patch(shard.ShardRouter, "route_block", "shard.route_block",
              attrs=_rows(2))
    rec.patch(shard.ShardRouter, "inject_faults", "shard.inject_faults")
    rec.patch(batcher.MicroBatcher, "submit", "batcher.submit")
    rec.patch(batcher.MicroBatcher, "submit_block", "batcher.submit_block",
              attrs=_rows(1))
    rec.patch(service, "route_task", "workers.route_task", attrs=_rows(3))
    rec.patch(workers, "route_with_table", "routing.route_with_table",
              attrs=_rows(3))
    rec.patch(workers, "attach_epoch_table", "shm.attach_epoch_table")
    rec.patch(epoch.EpochManager, "apply_fault_event",
              "epoch.apply_fault_event",
              attrs=lambda a, k, swap: {"publish_us": swap.publish_us,
                                        "flip_us": swap.flip_us,
                                        "spare": int(swap.spare)})
    rec.patch(epoch, "seal_epoch_table", "shm.seal_epoch_table")
    rec.patch(incremental.IncrementalLevelEngine, "apply_delta",
              "incremental.apply_delta",
              attrs=lambda a, k, st: {"dirty": st.dirty_total,
                                      "fallback": int(st.fallback)})


def instrument_sweep(rec: Recorder) -> None:
    """Patch the offline kernels the sweep calls through their modules."""
    from repro.core import fault_models
    from repro.routing import batch
    from repro.safety import levels

    rec.patch(fault_models, "uniform_node_fault_masks",
              "faults.uniform_node_fault_masks")
    rec.patch(levels, "compute_safety_levels_batch",
              "levels.compute_safety_levels_batch",
              attrs=lambda a, k, r: {"n": a[0].dimension,
                                     "trials": int(np.shape(a[1])[0])})
    rec.patch(batch, "route_unicast_batch", "routing.route_unicast_batch",
              attrs=lambda a, k, r: {"routes": int(r.routes)})


# -- summary -----------------------------------------------------------------


def in_window(spans: Sequence[list], t0: int, t1: int) -> List[list]:
    """Spans that started inside ``[t0, t1)``."""
    return [s for s in spans if t0 <= s[START] < t1]


def _mean_us(spans: Sequence[list]) -> float:
    if not spans:
        return 0.0
    return sum(s[END] - s[START] for s in spans) / len(spans) / 1e3


def _median_us(values: Sequence[int]) -> float:
    return percentile(values, 50).value / 1e3 if values else 0.0


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def queue_waits(submits: Sequence[list], tasks: Sequence[list]) -> List[int]:
    """Per submit, the time from submit to the start of the kernel task
    that served it: the task that ended last before the submit returned,
    provided it started after the submit did.

    Parent links cannot say this: under steady load the batcher opens each
    window from the previous one, so every kernel task inherits the
    context of whichever submit opened the first window.
    """
    ordered = sorted(tasks, key=lambda t: t[END])
    ends = [t[END] for t in ordered]
    waits = []
    for s in submits:
        i = bisect.bisect_right(ends, s[END]) - 1
        if i >= 0 and ordered[i][START] >= s[START]:
            waits.append(ordered[i][START] - s[START])
    return waits


def layer_metrics(spans: Sequence[list], frames: Sequence[int], t0: int,
                  t1: int, routes: int) -> Dict[str, float]:
    """Per-layer metrics from the spans of one timed window.

    ``frames`` are the arrival times of every frame; ``routes`` counts the
    routes answered in the window.  A layer that did no work in the window
    reports 0 for each metric — the observation the benchmark predicts for
    idle layers.  Self time per thousand routes divides per-request layers
    by the routes of the sampled requests, the others by ``routes``.
    """
    win = in_window(spans, t0, t1)
    by_name: Dict[str, List[list]] = defaultdict(list)
    for s in win:
        by_name[s[NAME]].append(s)
    m: Dict[str, float] = {}

    m["wire.frames"] = float(sum(1 for f in frames if t0 <= f < t1))
    for fn in ("decode_block", "encode_block_reply", "decode_route",
               "encode_route_reply"):
        m[f"wire.{fn}_us"] = _mean_us(by_name[f"wire.{fn}"])

    # Dispatch wait: frame start (read_frame returned) -> router call;
    # reply wait: router return -> reply encode.  Matched per request.
    frame_of = {s[SID]: s for s in by_name["server.frame"]}
    encode_of = {s[PARENT]: s for s in by_name["wire.encode_frame"]}
    dispatch, reply = [], []
    for name in ("shard.route", "shard.route_block", "shard.inject_faults"):
        for s in by_name[name]:
            frame = frame_of.get(s[PARENT])
            if frame is None:
                continue
            dispatch.append(s[START] - frame[START])
            enc = encode_of.get(frame[SID])
            if enc is not None:
                reply.append(enc[START] - s[END])
    m["server.dispatch_wait_us"] = _median_us(dispatch)
    m["server.reply_wait_us"] = _median_us(reply)

    m["shard.route_block_ms"] = _mean_us(by_name["shard.route_block"]) / 1e3
    m["shard.route_ms"] = _mean_us(by_name["shard.route"]) / 1e3
    m["shard.inject_faults_ms"] = \
        _mean_us(by_name["shard.inject_faults"]) / 1e3
    m["shard.errors"] = float(sum(
        1 for name in ("shard.route", "shard.route_block",
                       "shard.inject_faults")
        for s in by_name[name] if s[ATTRS] and s[ATTRS].get("error")))

    tasks = by_name["workers.route_task"]
    submits = by_name["batcher.submit"] + by_name["batcher.submit_block"]
    m["batcher.batches"] = float(len(tasks))
    m["batcher.queue_wait_us"] = _median_us(queue_waits(submits, tasks))
    m["batcher.rows_per_batch"] = _per(
        sum(t[ATTRS]["rows"] for t in tasks), len(tasks))
    m["batcher.entries_per_batch"] = _per(
        m["wire.frames"] - len(by_name["shard.inject_faults"]), len(tasks))

    selfs = self_times((s[SID], s[PARENT], s[START], s[END]) for s in win)
    m["workers.route_task_us"] = _mean_us(tasks)
    m["workers.route_task_self_us"] = _per(
        sum(selfs[t[SID]] for t in tasks) / 1e3, len(tasks))

    attaches = by_name["shm.attach_epoch_table"]
    m["shm.attach_calls"] = float(len(attaches))
    m["shm.attach_us"] = _mean_us(attaches)
    m["shm.seal_us"] = _mean_us(by_name["shm.seal_epoch_table"])

    rwt = by_name["routing.route_with_table"]
    m["routing.route_with_table_us_per_route"] = _per(
        sum(s[END] - s[START] for s in rwt) / 1e3,
        sum(s[ATTRS]["rows"] for s in rwt))
    rub = by_name["routing.route_unicast_batch"]
    m["routing.route_unicast_batch_us_per_route"] = _per(
        sum(s[END] - s[START] for s in rub) / 1e3,
        sum(s[ATTRS]["routes"] for s in rub))
    # Share of the window in which at least one kernel call was running
    # (calls on different executor threads overlap).
    m["routing.kernel_busy_share"] = covered_ns(
        t0, t1, [(s[START], s[END]) for s in rwt + rub]) / (t1 - t0)

    for n in (8, 12):
        cells = [s for s in by_name["levels.compute_safety_levels_batch"]
                 if s[ATTRS]["n"] == n]
        m[f"levels.ms_per_trial.q{n}"] = _per(
            sum(s[END] - s[START] for s in cells) / 1e6,
            sum(s[ATTRS]["trials"] for s in cells))

    deltas = by_name["incremental.apply_delta"]
    m["incremental.apply_delta_us"] = _mean_us(deltas)
    m["incremental.dirty_nodes"] = _per(
        sum(s[ATTRS]["dirty"] for s in deltas), len(deltas))
    m["incremental.fallback_ratio"] = _per(
        sum(s[ATTRS]["fallback"] for s in deltas), len(deltas))

    events = [s for s in by_name["epoch.apply_fault_event"] if s[ATTRS]
              and "publish_us" in s[ATTRS]]
    m["epoch.apply_fault_event_us"] = _mean_us(events)
    for key in ("publish_us", "flip_us"):
        m[f"epoch.{key}"] = _per(sum(s[ATTRS][key] for s in events),
                                 len(events))
    m["epoch.spare_hit_ratio"] = _per(
        sum(s[ATTRS]["spare"] for s in events), len(events))

    sampled_routes = len(by_name["shard.route"]) + sum(
        s[ATTRS]["rows"] for s in by_name["shard.route_block"])
    per_layer: Dict[str, int] = defaultdict(int)
    for s in win:
        per_layer[layer_of(s[NAME])] += selfs[s[SID]]
    for layer in SELF_TIME_LAYERS:
        basis = sampled_routes if layer in PER_REQUEST_LAYERS else routes
        m[f"self.{layer}.ms_per_kroute"] = _per(
            per_layer.get(layer, 0) / 1e6, basis / 1e3)
    return m


def largest_self_stage(metrics: Dict[str, float]) -> str:
    """The layer with the most self time in a :func:`layer_metrics` result."""
    return max(SELF_TIME_LAYERS,
               key=lambda layer: metrics[f"self.{layer}.ms_per_kroute"])
