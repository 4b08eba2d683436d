"""The three workloads: an offline sweep and two loads on a live server.

Every workload makes its inputs from the seed, measures one timed window
after an untimed warm-up, checks every answer against the offline oracle
outside the timed window, and returns an :class:`Outcome`.  With
``trace`` it measures the same window twice, untraced and then traced,
and reports the per-layer metrics of the traced window plus the tracing
overhead.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import select
import signal
import struct
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import spans as spanlib
from measure import (OpenLoop, Tally, better_quartile, percentile,
                     slice_values, worse_decile)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCHER = os.path.join(HERE, "launcher.py")

from repro.core import fault_models  # noqa: E402
from repro.core.faults import FaultSet  # noqa: E402
from repro.core.hypercube import Hypercube  # noqa: E402
from repro.routing import batch as batch_mod  # noqa: E402
from repro.routing.safety_unicast import route_unicast  # noqa: E402
from repro.safety import levels as levels_mod  # noqa: E402
from repro.safety.levels import SafetyLevels  # noqa: E402
from repro.service import wire  # noqa: E402
from repro.service.service import REJECTED_CODE  # noqa: E402
from repro.service.shard import HashRing  # noqa: E402

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3
WARMUP_S = 1.0
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
DRAIN_TIMEOUT_S = 15.0
#: Serving figures are taken per slice of the window (see serving_e2e).
SLICES = 20
#: Condition code of a refused row (the kernel's "none").
CONDITION_NONE = 3


@dataclass
class Outcome:
    tally: Tally
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    report: Dict[str, object] = field(default_factory=dict)


def _ms(ns_values) -> List[float]:
    return [v / 1e6 for v in ns_values]


def serving_e2e(lat_stamps, lat_ms, route_stamps, routes_each: int,
                cpu_slices: List[float], t0: int, t1: int) -> Dict[str, float]:
    """End-to-end serving figures, each taken per slice of the window and
    reported as the better quartile over slices.  Latencies are sliced by
    ``lat_stamps``, answered routes (``routes_each`` per stamp) by
    ``route_stamps``; ``cpu_slices`` is the server's CPU time per slice."""
    lat = [b for b in slice_values(lat_stamps, lat_ms, t0, t1, SLICES) if b]
    routes = [len(b) * routes_each for b in slice_values(
        route_stamps, route_stamps, t0, t1, SLICES)]
    slice_s = (t1 - t0) / 1e9 / SLICES
    return {
        "routes_per_s": better_quartile([r / slice_s for r in routes],
                                        "higher"),
        "p50_ms": better_quartile([percentile(b, 50).value for b in lat],
                                  "lower"),
        "p90_ms": better_quartile([percentile(b, 90).value for b in lat],
                                  "lower"),
        "cpu_ms_per_kroute": better_quartile(
            [c * 1e3 / (r / 1e3) for c, r in zip(cpu_slices, routes) if r],
            "lower"),
    }


def latency_summary(values_ms: List[float]) -> dict:
    return {f"p{q:g}": percentile(values_ms, q).to_dict()
            for q in (50, 90, 99)}


def peak_rss_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def cpu_seconds(pid: int) -> float:
    """CPU time of a process's live threads, in nanosecond resolution
    (``/proc/<pid>/task/*/schedstat``; ``stat`` ticks are 10 ms)."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                total += int(fh.read().split()[0])
        except FileNotFoundError:  # the thread exited meanwhile
            pass
    return total / 1e9


# -- the server process ------------------------------------------------------


def shm_segments(prefix: str) -> List[str]:
    try:
        return sorted(n for n in os.listdir("/dev/shm")
                      if n.startswith(prefix))
    except FileNotFoundError:
        return []


class Server:
    """One launcher process: started, awaited until ready, always stopped."""

    def __init__(self, spec: dict, trace_out: Optional[str] = None) -> None:
        args = [sys.executable, LAUNCHER, "serve", "--spec",
                json.dumps(spec, separators=(",", ":"))]
        if trace_out:
            args += ["--trace-out", trace_out]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE,
                                     text=True)
        self.port = 0
        self.setup_s = 0.0

    def wait_ready(self) -> "Server":
        deadline = time.monotonic() + READY_TIMEOUT_S
        line = ""
        while not line:
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError(
                    f"server not ready (exit={self.proc.poll()})")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if ready:
                line = self.proc.stdout.readline()
                if not line and self.proc.poll() is None:
                    self.proc.wait(timeout=1.0)
        self.setup_s = time.perf_counter() - self.started
        if not line.startswith("READY "):
            raise RuntimeError(f"unexpected server output {line!r}")
        self.port = int(line.split()[1])
        return self

    def stop(self) -> int:
        """SIGTERM, wait, and SIGKILL only if the clean stop hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def launch_for_setup(spec: dict, repeats: int) -> Tuple[List[float], Server]:
    """Launch ``repeats`` servers one after another; all but the last are
    stopped at once.  Returns each launch's set-up time and the last
    server, still running."""
    times = []
    for i in range(repeats):
        server = Server(spec)
        try:
            server.wait_ready()
        except BaseException:
            server.stop()
            raise
        times.append(server.setup_s)
        if i < repeats - 1:
            server.stop()
    return times, server


# -- a minimal pipelined client ---------------------------------------------


class Conn:
    """A pipelined binary-protocol connection with per-frame callbacks.

    Request ids start at ``base`` so ids are unique across connections,
    which lets traced server spans be matched to client round trips.
    Receive times are taken in the reader loop, before any callback runs.
    """

    def __init__(self, reader, writer, base: int) -> None:
        self.reader, self.writer = reader, writer
        self.next_id = base
        self.waiting: Dict[int, Tuple[Callable, int]] = {}
        self.task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def open(cls, port: int, base: int) -> "Conn":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection("127.0.0.1", port), 10.0)
        return cls(reader, writer, base)

    def send(self, op: int, payload: bytes, callback: Callable) -> int:
        """Send one frame; ``callback(op, payload, sent_ns, recv_ns, id)``
        runs when its reply arrives."""
        rid = self.next_id
        self.next_id += 1
        sent = time.perf_counter_ns()
        self.waiting[rid] = (callback, sent)
        self.writer.write(wire.encode_frame(op, rid, payload))
        return rid

    async def call(self, op: int, payload: bytes,
                   timeout: float = 10.0) -> Tuple[int, bytes, int, int]:
        fut = asyncio.get_running_loop().create_future()
        self.send(op, payload, lambda *reply: fut.set_result(reply[:4]))
        return await asyncio.wait_for(fut, timeout)

    async def _read(self) -> None:
        while True:
            frame = await wire.read_frame(self.reader)
            recv = time.perf_counter_ns()
            if frame is None:
                return
            op, rid, payload = frame
            entry = self.waiting.pop(rid, None)
            if entry is not None:
                entry[0](op, payload, entry[1], recv, rid)

    async def close(self) -> None:
        self.writer.close()
        try:
            await asyncio.wait_for(self.writer.wait_closed(), 5.0)
        except (ConnectionError, asyncio.TimeoutError):
            pass
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass


async def bind_tenant(conn: Conn, name: str) -> int:
    op, payload, _, _ = await conn.call(wire.OP_TENANT, name.encode())
    if op != wire.OP_TENANT_R:
        raise RuntimeError(f"tenant {name!r} refused: "
                           f"{wire.decode_error(payload)}")
    return struct.unpack_from("!Q", payload)[0]  # epoch, then dimension


async def mark_window(mark: Callable, t0: int, t1: int) -> None:
    """Call ``mark(k)`` at each of the ``SLICES + 1`` slice edges."""
    for k in range(SLICES + 1):
        at = t0 + (t1 - t0) * k // SLICES
        await asyncio.sleep(max(0.0, (at - time.perf_counter_ns()) / 1e9))
        mark(k)


async def drain(pending: Callable[[], int]) -> int:
    """Wait until no reply is outstanding; returns how many never came."""
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    while pending() and time.monotonic() < deadline:
        await asyncio.sleep(0.005)
    return pending()


# -- oracle ------------------------------------------------------------------


def healthy_pairs(rng: np.random.Generator, faulty: np.ndarray,
                  count: int) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` (src, dst) pairs with both ends outside ``faulty``."""
    healthy = np.flatnonzero(~faulty)
    picks = rng.integers(0, healthy.size, size=(2, count))
    return healthy[picks[0]], healthy[picks[1]]


def popcount(values: np.ndarray) -> np.ndarray:
    return np.array([bin(int(v)).count("1") for v in values], dtype=np.int64)


def expected_rows(topo: Hypercube, levels: np.ndarray, srcs: np.ndarray,
                  dsts: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The offline answer for each row, as the service's reply columns:
    ``route_unicast_batch`` for live endpoints, the refusal row otherwise."""
    live = (levels[srcs] > 0) & (levels[dsts] > 0)
    status = np.full(srcs.size, REJECTED_CODE, dtype=np.int64)
    condition = np.full(srcs.size, CONDITION_NONE, dtype=np.int64)
    hops = np.zeros(srcs.size, dtype=np.int64)
    if live.any():
        res = batch_mod.route_unicast_batch(topo, levels, srcs[live],
                                            dsts[live])
        status[live] = res.status.reshape(-1)
        condition[live] = res.condition.reshape(-1)
        hops[live] = res.hops.reshape(-1)
    return status, condition, hops, popcount(srcs ^ dsts)


def rows_match(reply, expected: Tuple[np.ndarray, ...]) -> bool:
    got = (reply.status, reply.condition, reply.hops, reply.hamming)
    return all(np.array_equal(np.asarray(g, dtype=np.int64).reshape(-1), e)
               for g, e in zip(got, expected))


# -- sweep -------------------------------------------------------------------

#: (dimension, fault density, trials per cell).  Q8 runs the SWAR level
#: tier, Q12 the packed one; each at a low and a high uniform density.
SWEEP_CELLS = ((8, 0.02, 32), (8, 0.10, 32), (12, 0.02, 16), (12, 0.10, 16))
SWEEP_PAIRS = 256
#: Every this many passes, a few routes are kept for the scalar oracle.
SWEEP_SAMPLE_EVERY = 8
SWEEP_SAMPLE_ROUTES = 12


def _sweep_cell(topo: Hypercube, count: int, trials: int,
                seed: Tuple[int, ...]):
    """One Monte-Carlo cell: fault draw, levels, healthy pairs, routes.
    The kernels are looked up through their modules, where tracing
    patches them."""
    ss = np.random.SeedSequence(seed)
    trial_ss, pair_ss = ss.spawn(2)
    rngs = [np.random.default_rng(s) for s in trial_ss.spawn(trials)]
    masks = fault_models.uniform_node_fault_masks(topo, count, rngs)
    levels = levels_mod.compute_safety_levels_batch(topo, masks)
    pair_rng = np.random.default_rng(pair_ss)
    srcs = np.empty((trials, SWEEP_PAIRS), dtype=np.int64)
    dsts = np.empty_like(srcs)
    for b in range(trials):
        srcs[b], dsts[b] = healthy_pairs(pair_rng, masks[b], SWEEP_PAIRS)
    res = batch_mod.route_unicast_batch(topo, levels, srcs, dsts)
    return masks, levels, res


def _sweep_window(seed: int, seconds: float, first_pass: int,
                  rec=None) -> dict:
    topos = {n: Hypercube(n) for n in {c[0] for c in SWEEP_CELLS}}
    pass_t, pass_ns, pass_cpu, samples = [], [], [], []
    routes = 0
    t0 = time.perf_counter_ns()
    end = t0 + int(seconds * 1e9)
    p = first_pass
    while time.perf_counter_ns() < end:
        start = time.perf_counter_ns()
        cpu = time.process_time()
        for ci, (n, density, trials) in enumerate(SWEEP_CELLS):
            topo = topos[n]
            count = round(density * topo.num_nodes)
            with rec.span("sweep.cell", n=n) if rec else nullcontext():
                masks, levels, res = _sweep_cell(topo, count, trials,
                                                 (seed, p, ci))
            routes += res.routes
            if p % SWEEP_SAMPLE_EVERY == 0:
                # Copies of trial 0 only, so memory does not grow with the
                # number of passes a run manages.
                k = SWEEP_SAMPLE_ROUTES
                samples.append((topo, masks[0].copy(), levels[0].copy()) +
                               tuple(a[0, :k].copy() for a in (
                                   res.sources, res.dests, res.status,
                                   res.condition, res.hops)))
        pass_cpu.append(time.process_time() - cpu)
        pass_ns.append(time.perf_counter_ns() - start)
        pass_t.append(start)
        p += 1
    t1 = time.perf_counter_ns()
    return {"t0": t0, "t1": t1, "pass_t": pass_t, "pass_ns": pass_ns,
            "pass_cpu": pass_cpu, "routes": routes, "samples": samples,
            "next_pass": p}


def _check_sweep(samples, tally: Tally) -> None:
    """Scalar oracle: cold per-trial levels and ``route_unicast``."""
    for topo, mask, levels, srcs, dsts, status, condition, hops in samples:
        faults = FaultSet(nodes=np.flatnonzero(mask).tolist())
        sl = SafetyLevels.compute(topo, faults)
        if not np.array_equal(sl.levels, levels):
            tally.refail("level_mismatch", SWEEP_SAMPLE_ROUTES)
            continue
        # The timed call kept no paths; a re-route with paths must agree
        # with it row for row and, route by route, with the scalar router.
        again = batch_mod.route_unicast_batch(topo, levels, srcs, dsts,
                                              return_paths=True)
        for p in range(SWEEP_SAMPLE_ROUTES):
            want = route_unicast(sl, int(srcs[p]), int(dsts[p]))
            got = again.result(0, p)
            if (got.status, got.condition, got.path) != \
                    (want.status, want.condition, want.path) or \
                    (status[p], condition[p], hops[p]) != \
                    (again.status[0, p], again.condition[0, p],
                     again.hops[0, p]):
                tally.refail("route_mismatch")


def _sweep_setup_once() -> float:
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, LAUNCHER, "sweep-setup"],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=READY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or not out.startswith("READY"):
        raise RuntimeError(f"sweep set-up failed (exit {proc.returncode})")
    return time.perf_counter() - start


def _sweep_e2e(win: dict) -> Dict[str, float]:
    """Sweep figures, each taken per slice of the window (passes by start
    time) and reported as the worse decile over slices.  The sweep is
    CPU-bound, and the host's CPU speed has a fast state lasting minutes;
    measured on a 2-vCPU VM, the median pass moved by 20% between runs
    with it, the worse decile over slices by about half as much."""
    t0, t1 = win["t0"], win["t1"]
    ns = [b for b in slice_values(win["pass_t"], win["pass_ns"], t0, t1,
                                  SLICES) if b]
    cpu = [b for b in slice_values(win["pass_t"], win["pass_cpu"], t0, t1,
                                   SLICES) if b]
    per_pass = win["routes"] / len(win["pass_ns"])
    return {
        "routes_per_s": worse_decile(
            [len(b) * per_pass / (sum(b) / 1e9) for b in ns], "higher"),
        "p50_ms": worse_decile(
            [percentile(_ms(b), 50).value for b in ns], "lower"),
        "p90_ms": worse_decile(
            [percentile(_ms(b), 90).value for b in ns], "lower"),
        "cpu_ms_per_kroute": worse_decile(
            [sum(b) * 1e3 / (len(b) * per_pass / 1e3) for b in cpu],
            "lower"),
    }


def run_sweep(seed: int, seconds: float, trace: bool) -> Outcome:
    tally = Tally()
    setups = [_sweep_setup_once() for _ in range(1 if trace else
                                                 SETUP_REPEATS)]
    warm = _sweep_window(seed, WARMUP_S, first_pass=10_000_000)
    win = _sweep_window(seed, seconds, first_pass=0)
    tally.ok(win["routes"])
    _check_sweep(win["samples"], tally)
    e2e = _sweep_e2e(win)
    e2e["setup_s"] = median(setups)
    e2e["peak_rss_mb"] = peak_rss_mb()
    out = Outcome(tally=tally, e2e=e2e)
    out.report = {
        "passes": len(win["pass_ns"]), "warmup_passes": len(warm["pass_ns"]),
        "routes": win["routes"], "setup_s": setups,
        "pass_latency_ms": latency_summary(_ms(win["pass_ns"])),
        "cells": [{"n": n, "density": d, "trials": b, "pairs": SWEEP_PAIRS}
                  for n, d, b in SWEEP_CELLS],
        "checked_routes": len(win["samples"]) * SWEEP_SAMPLE_ROUTES,
    }
    if trace:
        rec = spanlib.Recorder()
        spanlib.instrument_sweep(rec)
        try:
            traced = _sweep_window(seed, seconds, first_pass=win["next_pass"],
                                   rec=rec)
        finally:
            rec.unpatch()
        tally.ok(traced["routes"])
        _check_sweep(traced["samples"], tally)
        out.layers = spanlib.layer_metrics(rec.spans, [], traced["t0"],
                                           traced["t1"], traced["routes"])
        out.layers.update(_client_layers(
            p99=_ms(win["pass_ns"]), faults=[], late=[], unattributed=[]))
        _add_overhead(out, _sweep_e2e(traced))
    return out


# -- shared serve plumbing ---------------------------------------------------


def _client_layers(p99, faults, late, unattributed) -> Dict[str, float]:
    """Per-layer figures measured at the client (0 when not exercised)."""
    p99v = percentile(p99, 99)
    return {
        "p99_ms": p99v.value if p99v.supported else 0.0,
        "fault_p50_ms": percentile(faults, 50).value,
        "fault_p90_ms": percentile(faults, 90).value,
        "client.late_p99_ms": percentile(late, 99).value,
        "client.unattributed_ms": percentile(unattributed, 50).value,
    }


def _add_overhead(out: Outcome, traced_e2e: Dict[str, float]) -> None:
    base = out.e2e["p50_ms"]
    out.layers["trace.overhead_share"] = (traced_e2e["p50_ms"] - base) / base
    out.report["traced_e2e"] = traced_e2e
    out.report["largest_self_stage"] = spanlib.largest_self_stage(out.layers)


def _serve(spec: dict, load: Callable, tally: Tally, trace: bool,
           setup_repeats: int):
    """Run ``load`` against a fresh server (set up ``setup_repeats`` times).

    Returns (load result, setup times, server CPU s per slice of the
    window, peak RSS MB, spans or None).  The server is always stopped,
    and any segment it leaves in /dev/shm fails the run.
    """
    prefix = f"repro_svc_{spec['token']}"
    trace_out = None
    if trace:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        fd, trace_out = tempfile.mkstemp(
            prefix="spans-", suffix=".json",
            dir=os.path.join(ROOT, ".bench_out"))
        os.close(fd)
    server = None
    try:
        if trace:
            setups = []
            server = Server(spec, trace_out)
            server.wait_ready()
        else:
            setups, server = launch_for_setup(spec, setup_repeats)
        pid = server.proc.pid
        marks = {}

        def mark(k: int) -> None:
            marks[k] = cpu_seconds(pid)

        gc.collect()
        gc.disable()
        try:
            result = asyncio.run(load(server.port, mark))
        finally:
            gc.enable()
        cpu = [marks[k + 1] - marks[k] for k in range(SLICES)]
        rss = peak_rss_mb(pid)
    finally:
        if server is not None:
            code = server.stop()
            if code != 0:
                tally.fail("server_exit")
    leaked = shm_segments(prefix)
    if leaked:
        tally.fail("shm_leak", len(leaked))
        for name in leaked:  # leave the host clean for the next run
            os.unlink(os.path.join("/dev/shm", name))
    recorded = None
    if trace_out:
        with open(trace_out) as fh:
            recorded = json.load(fh)
        os.unlink(trace_out)
    return result, setups, cpu, rss, recorded


def _spec(tenants: List[dict], shards: int) -> dict:
    """A server spec; the token names its shared-memory segments, so the
    leak check after the server stops looks for this server's alone."""
    return {"shards": shards, "tenants": tenants,
            "token": f"pb{os.getpid()}x{os.urandom(4).hex()}"}


# -- serve_block -------------------------------------------------------------

#: Tenants (dimension, uniform fault count) and the closed-loop shape.
BLOCK_TENANTS = ((8, 13), (14, 820))
BLOCK_PAIRS = 256
BLOCK_WINDOW = 4
BLOCK_POOL = 32


def _placed_names(shards: int) -> List[str]:
    """Tenant names that the public hash ring places on distinct shards."""
    ring = HashRing(list(range(shards)))
    names = []
    for want, (n, _) in enumerate(BLOCK_TENANTS):
        i = 0
        while ring.place(f"q{n}-{i}") != want:
            i += 1
        names.append(f"q{n}-{i}")
    return names


def _block_inputs(seed: int):
    tenants, pools = [], []
    names = _placed_names(len(BLOCK_TENANTS))
    for k, (n, count) in enumerate(BLOCK_TENANTS):
        topo = Hypercube(n)
        rng = np.random.default_rng([seed, 1, k])
        faults = fault_models.uniform_node_faults(topo, count, rng)
        mask = faults.node_mask(topo.num_nodes)
        levels = levels_mod.compute_safety_levels(topo, faults)
        pool = []
        for _ in range(BLOCK_POOL):
            srcs, dsts = healthy_pairs(rng, mask, BLOCK_PAIRS)
            pool.append((wire.encode_block(srcs, dsts),
                         expected_rows(topo, levels, srcs, dsts)))
        tenants.append({"name": names[k], "n": n,
                        "faults": sorted(faults.nodes)})
        pools.append(pool)
    return tenants, pools


def _block_load(names: List[str], pools, seconds: float):
    async def load(port: int, mark: Callable) -> dict:
        conns = [await Conn.open(port, base=(k + 1) << 40)
                 for k in range(len(names))]
        for conn, name in zip(conns, names):
            await bind_tenant(conn, name)
        records = []
        t0 = time.perf_counter_ns() + int(WARMUP_S * 1e9)
        t1 = t0 + int(seconds * 1e9)

        def start(k: int, conn: Conn) -> None:
            counter = [0]

            def send_next() -> None:
                i = counter[0]
                counter[0] += 1
                conn.send(wire.OP_BLOCK, pools[k][i % BLOCK_POOL][0],
                          lambda *reply, i=i: on_reply(i, *reply))

            def on_reply(i, op, payload, sent, recv, rid) -> None:
                records.append((k, i % BLOCK_POOL, op, payload, sent, recv,
                                rid))
                if recv < t1:
                    send_next()

            for _ in range(BLOCK_WINDOW):
                send_next()

        for k, conn in enumerate(conns):
            start(k, conn)
        await mark_window(mark, t0, t1)
        lost = await drain(lambda: sum(len(c.waiting) for c in conns))
        for conn in conns:
            await conn.close()
        return {"records": records, "t0": t0, "t1": t1, "lost": lost}

    return load


def _block_window(spec, pools, seconds, tally, trace, setup_repeats):
    names = [t["name"] for t in spec["tenants"]]
    res, setups, cpu, rss, recorded = _serve(
        spec, _block_load(names, pools, seconds), tally, trace,
        setup_repeats)
    t0, t1 = res["t0"], res["t1"]
    if res["lost"]:
        tally.fail("timeout", res["lost"])
    sents, rtt_ms, recvs = [], [], []
    for k, block, op, payload, sent, recv, rid in res["records"]:
        if op != wire.OP_BLOCK_R:
            tally.fail("error_frame")
            continue
        if rows_match(wire.decode_block_reply(payload), pools[k][block][1]):
            tally.ok()
        else:
            tally.fail("oracle_mismatch")
        sents.append(sent)
        rtt_ms.append((recv - sent) / 1e6)
        recvs.append(recv)
    routes = BLOCK_PAIRS * sum(1 for r in recvs if t0 <= r < t1)
    e2e = serving_e2e(sents, rtt_ms, recvs, BLOCK_PAIRS, cpu, t0, t1)
    e2e["peak_rss_mb"] = rss
    in_window = [v for s, v in zip(sents, rtt_ms) if t0 <= s < t1]
    return e2e, setups, in_window, res, recorded, routes


def _serve_layers(recorded: dict, res: dict, routes: int, records,
                  fields: Tuple[int, int, int], **client) -> Dict[str, float]:
    """Per-layer metrics of a traced serving window, plus the part of each
    sampled frame's client round trip that no server span covers.
    ``fields`` are the (req_id, sent, received) positions in ``records``;
    ``client`` holds the client-side samples for :func:`_client_layers`."""
    t0, t1 = res["t0"], res["t1"]
    rid, sent, recv = fields
    frames = {s[spanlib.REQ]: s[spanlib.END] - s[spanlib.START]
              for s in recorded["spans"] if s[spanlib.NAME] == "server.frame"}
    unattributed = [(r[recv] - r[sent] - frames[r[rid]]) / 1e6
                    for r in records
                    if t0 <= r[sent] < t1 and r[rid] in frames]
    layers = spanlib.layer_metrics(recorded["spans"], recorded["frames"], t0,
                                   t1, routes)
    layers.update(_client_layers(unattributed=unattributed, **client))
    return layers


def run_serve_block(seed: int, seconds: float, trace: bool) -> Outcome:
    tally = Tally()
    tenants, pools = _block_inputs(seed)
    e2e, setups, rtt_ms, _, _, routes = _block_window(
        _spec(tenants, 2), pools, seconds, tally, False,
        1 if trace else SETUP_REPEATS)
    e2e["setup_s"] = median(setups)
    out = Outcome(tally=tally, e2e=e2e)
    out.report = {"tenants": [{"name": t["name"], "n": t["n"],
                               "faults": len(t["faults"])} for t in tenants],
                  "window_frames": BLOCK_WINDOW, "pairs": BLOCK_PAIRS,
                  "routes": routes, "setup_s": setups,
                  "block_rtt_ms": latency_summary(rtt_ms)}
    if trace:
        t_e2e, _, _, res, recorded, t_routes = _block_window(
            _spec(tenants, 2), pools, seconds, tally, True, 1)
        out.layers = _serve_layers(recorded, res, t_routes, res["records"],
                                   (6, 4, 5), p99=rtt_ms, faults=[], late=[])
        _add_overhead(out, t_e2e)
    return out


# -- serve_churn -------------------------------------------------------------

CHURN_DIMENSION = 12
CHURN_FAULTS = 205
#: Single ROUTE frames kept in flight on the route connection.  Enough to
#: keep the server busy: with 16 or 64 in flight it idles between batches,
#: and on a virtual machine every idle-to-busy wakeup can wait on the host
#: (steal time), which swung throughput by half between runs.
CHURN_CONCURRENCY = 128
CHURN_FAULT_PERIOD_S = 0.1
CHURN_POOL = 4096
CHURN_VICTIMS = 512


def _churn_inputs(seed: int):
    topo = Hypercube(CHURN_DIMENSION)
    rng = np.random.default_rng([seed, 2])
    faults = fault_models.uniform_node_faults(topo, CHURN_FAULTS, rng)
    mask = faults.node_mask(topo.num_nodes)
    srcs, dsts = healthy_pairs(rng, mask, CHURN_POOL)
    victims = rng.choice(np.flatnonzero(~mask), size=CHURN_VICTIMS,
                         replace=False)
    tenant = {"name": "q12", "n": CHURN_DIMENSION,
              "faults": sorted(faults.nodes)}
    payloads = [wire.encode_route(int(s), int(d)) for s, d in zip(srcs, dsts)]
    return tenant, srcs, dsts, victims, payloads


def fault_event(k: int, victims: np.ndarray) -> Tuple[List[int], List[int]]:
    """Event ``k`` adds victim ``k // 2`` when even and removes it when
    odd, so the fault count never grows by more than one."""
    v = int(victims[(k // 2) % len(victims)])
    return ([v], []) if k % 2 == 0 else ([], [v])


def _churn_load(name: str, payloads, victims, seconds: float):
    async def load(port: int, mark: Callable) -> dict:
        routes_c = await Conn.open(port, base=1 << 40)
        faults_c = await Conn.open(port, base=2 << 40)
        epoch0 = await bind_tenant(routes_c, name)
        await bind_tenant(faults_c, name)
        begin = time.perf_counter_ns() + 20_000_000
        t0 = begin + int(WARMUP_S * 1e9)
        t1 = t0 + int(seconds * 1e9)
        routes, events, late = [], [], []
        counter = [0]

        def send_route() -> None:
            i = counter[0]
            counter[0] += 1
            routes_c.send(wire.OP_ROUTE, payloads[i % len(payloads)],
                          lambda *reply: on_route(i, *reply))

        def on_route(i, op, payload, sent, recv, rid) -> None:
            routes.append((i, op, payload, sent, recv, rid))
            if recv < t1:
                send_route()

        async def fault_gen() -> None:
            # FAULT events keep an absolute cadence whatever the replies
            # do (an open loop); each is awaited before the next is sent.
            sched = OpenLoop(begin, 1.0 / CHURN_FAULT_PERIOD_S)
            k = 0
            while sched.due_ns(k) < t1:
                wait = sched.due_ns(k) - time.perf_counter_ns()
                if wait > 0:
                    await asyncio.sleep(wait / 1e9)
                add, remove = fault_event(k, victims)
                reply = await faults_c.call(
                    wire.OP_FAULT, wire.encode_fault(add, remove))
                late.append((reply[2], sched.lateness_ns(k, reply[2])))
                events.append((k, add, remove) + tuple(reply))
                k += 1

        for _ in range(CHURN_CONCURRENCY):
            send_route()
        await asyncio.gather(fault_gen(), mark_window(mark, t0, t1))
        lost = await drain(lambda: len(routes_c.waiting))
        for conn in (routes_c, faults_c):
            await conn.close()
        return {"routes": routes, "events": events, "late": late, "t0": t0,
                "t1": t1, "epoch0": epoch0, "lost": lost}

    return load


def _check_churn(res: dict, tenant: dict, srcs, dsts, tally: Tally) -> None:
    """Each reply against the oracle at the fault set of its epoch."""
    topo = Hypercube(CHURN_DIMENSION)
    fault_sets = {res["epoch0"]: frozenset(tenant["faults"])}
    current = set(tenant["faults"])
    for k, add, remove, op, payload, sent, recv in res["events"]:
        if op != wire.OP_FAULT_R:
            tally.fail("error_frame")
            continue
        tally.ok()
        current |= set(add)
        current -= set(remove)
        fault_sets[wire.decode_fault_reply(payload).epoch] = \
            frozenset(current)
    by_epoch: Dict[int, List[Tuple[int, object]]] = {}
    for i, op, payload, _sent, _recv, _rid in res["routes"]:
        if op != wire.OP_ROUTE_R:
            tally.fail("error_frame")
            continue
        reply = wire.decode_route_reply(payload)
        by_epoch.setdefault(reply.epoch, []).append((i, reply))
    epochs = sorted(by_epoch)
    unknown = [e for e in epochs if e not in fault_sets]
    for e in unknown:
        tally.fail("unknown_epoch", len(by_epoch.pop(e)))
    epochs = [e for e in epochs if e in fault_sets]
    if not epochs:
        return
    masks = np.zeros((len(epochs), topo.num_nodes), dtype=bool)
    for row, e in enumerate(epochs):
        masks[row, list(fault_sets[e])] = True
    levels = levels_mod.compute_safety_levels_batch(topo, masks)
    for row, e in enumerate(epochs):
        idx = np.array([i % len(srcs) for i, _ in by_epoch[e]])
        want = expected_rows(topo, levels[row], srcs[idx], dsts[idx])
        got = by_epoch[e]
        for j, (_, reply) in enumerate(got):
            if (reply.status, reply.condition, reply.hops, reply.hamming) \
                    == tuple(int(w[j]) for w in want):
                tally.ok()
            else:
                tally.fail("oracle_mismatch")


def _churn_window(spec, inputs, seconds, tally, trace, setup_repeats):
    tenant, srcs, dsts, victims, payloads = inputs
    res, setups, cpu, rss, recorded = _serve(
        spec, _churn_load(tenant["name"], payloads, victims, seconds), tally,
        trace, setup_repeats)
    if res["lost"]:
        tally.fail("timeout", res["lost"])
    _check_churn(res, tenant, srcs, dsts, tally)
    t0, t1 = res["t0"], res["t1"]
    sents = [r[3] for r in res["routes"]]
    recvs = [r[4] for r in res["routes"]]
    rtt_ms = [(b - a) / 1e6 for a, b in zip(sents, recvs)]
    answered = sum(1 for r in recvs if t0 <= r < t1)
    fault_ms = [(ev[6] - ev[5]) / 1e6 for ev in res["events"]
                if t0 <= ev[5] < t1]
    late_ms = [ns / 1e6 for sent, ns in res["late"] if t0 <= sent < t1]
    e2e = serving_e2e(sents, rtt_ms, recvs, 1, cpu, t0, t1)
    e2e["peak_rss_mb"] = rss
    in_window = [v for s, v in zip(sents, rtt_ms) if t0 <= s < t1]
    return (e2e, setups, in_window, late_ms, fault_ms, res, recorded,
            answered)


def run_serve_churn(seed: int, seconds: float, trace: bool) -> Outcome:
    tally = Tally()
    inputs = _churn_inputs(seed)
    tenant = inputs[0]
    e2e, setups, lat, late, fault_ms, _, _, answered = _churn_window(
        _spec([tenant], 1), inputs, seconds, tally, False,
        1 if trace else SETUP_REPEATS)
    e2e["setup_s"] = median(setups)
    out = Outcome(tally=tally, e2e=e2e)
    out.report = {"tenant": {"name": tenant["name"], "n": tenant["n"],
                             "faults": len(tenant["faults"])},
                  "routes_in_flight": CHURN_CONCURRENCY,
                  "fault_period_s": CHURN_FAULT_PERIOD_S,
                  "routes": answered, "setup_s": setups,
                  "route_rtt_ms": latency_summary(lat),
                  "fault_rtt_ms": latency_summary(fault_ms),
                  "fault_late_ms": latency_summary(late)}
    if trace:
        t_e2e, _, _, _, _, res, recorded, t_answered = _churn_window(
            _spec([tenant], 1), inputs, seconds, tally, True, 1)
        out.layers = _serve_layers(recorded, res, t_answered, res["routes"],
                                   (5, 3, 4), p99=lat, faults=fault_ms,
                                   late=late)
        _add_overhead(out, t_e2e)
    return out


WORKLOADS = {"sweep": run_sweep, "serve_block": run_serve_block,
             "serve_churn": run_serve_churn}
