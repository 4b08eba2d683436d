"""Benchmark: many binary connections, each with few ROUTE frames in flight.

The binary server answers a connection's buffered ``ROUTE`` frames as one
run (one block).  A client that pipelines deeply hands it long runs; this
benchmark drives the opposite shape — ``--connections`` connections, each
a closed loop with ``--depth`` frames in flight (default 32 x 1), the
traffic of many interactive ``WireClient`` users — so most runs hold one
frame and requests from different connections can meet only in the
micro-batcher's window.  One Q12 tenant with 205 faults, no fault churn.

The server runs in its own process (this script with ``--serve``), so
its CPU time over the measured window is its own; at exit it reports its
tenant's kernel calls and rows.  Every reply is checked against the
offline kernel.  Prints one JSON line: routes/s, latency p50/p90 (ms),
server CPU ms per 1000 routes, and routes per kernel call.  Linux only
(server CPU is read from ``/proc``).  Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_wire_fanin.py [--connections 32]
        [--depth 1] [--seconds 10] [--seed 1]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List

import numpy as np

from repro.core import Hypercube, uniform_node_faults
from repro.routing.batch import route_unicast_batch
from repro.safety.levels import compute_safety_levels
from repro.service import ShardRouter, wire
from repro.service.server import handle_connection

DIMENSION = 12
FAULTS = 205
POOL = 4096
WARMUP_S = 2.0
TENANT = "q12"


def _inputs(seed: int):
    topo = Hypercube(DIMENSION)
    rng = np.random.default_rng([seed, 3])
    faults = uniform_node_faults(topo, FAULTS, rng)
    healthy = np.flatnonzero(~faults.node_mask(topo.num_nodes))
    picks = rng.integers(0, healthy.size, size=(2, POOL))
    return topo, faults, healthy[picks[0]], healthy[picks[1]]


async def _serve(seed: int) -> None:
    _topo, faults, _srcs, _dsts = _inputs(seed)
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    async with ShardRouter(shards=1) as router:
        await router.add_tenant(TENANT, dimension=DIMENSION, faults=faults)
        server = await asyncio.start_server(
            lambda r, w: handle_connection(router, r, w, tenant=TENANT),
            "127.0.0.1", 0)
        print(f"READY {server.sockets[0].getsockname()[1]}", flush=True)
        async with server:
            await stop.wait()
        svc = router.service_of(TENANT)
        print(json.dumps({"flushes": svc.batcher.flushes,
                          "rows": svc.responses}), flush=True)


def _cpu_seconds(pid: int) -> float:
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                total += int(fh.read().split()[0])
        except FileNotFoundError:  # the thread exited meanwhile
            pass
    return total / 1e9


async def _load(port: int, pid: int, args, expected, payloads) -> Dict:
    rng = np.random.default_rng([args.seed, 4])
    latencies: List[int] = []
    state = {"measuring": False, "routes": 0, "wrong": 0, "errors": 0}

    async def connection(c: int) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        waiting: Dict[int, asyncio.Future] = {}

        async def read() -> None:
            while True:
                frame = await wire.read_frame(reader)
                if frame is None:
                    return
                waiting.pop(frame[1]).set_result(frame)

        async def lane(first_id: int) -> None:
            loop = asyncio.get_running_loop()
            req_id = first_id
            while not done.is_set():
                k = int(rng.integers(POOL))
                fut = waiting[req_id] = loop.create_future()
                sent = time.perf_counter_ns()
                writer.write(wire.encode_frame(wire.OP_ROUTE, req_id,
                                               payloads[k]))
                op, _rid, payload = await fut
                if not state["measuring"]:
                    req_id += args.depth
                    continue
                latencies.append(time.perf_counter_ns() - sent)
                state["routes"] += 1
                if op != wire.OP_ROUTE_R:
                    state["errors"] += 1
                elif wire.decode_route_reply(payload) != expected[k]:
                    state["wrong"] += 1
                req_id += args.depth

        reader_task = asyncio.get_running_loop().create_task(read())
        await asyncio.gather(*(lane(c * (1 << 32) + d)
                               for d in range(args.depth)))
        reader_task.cancel()
        writer.close()

    done = asyncio.Event()
    clients = asyncio.gather(*(connection(c)
                               for c in range(args.connections)))
    await asyncio.sleep(WARMUP_S)
    state["measuring"] = True
    cpu0, t0 = _cpu_seconds(pid), time.perf_counter()
    await asyncio.sleep(args.seconds)
    state["measuring"] = False
    cpu1, t1 = _cpu_seconds(pid), time.perf_counter()
    done.set()
    await clients
    lat_ms = np.array(latencies) / 1e6
    return {
        "connections": args.connections, "depth": args.depth,
        "routes": state["routes"],
        "routes_per_s": state["routes"] / (t1 - t0),
        "p50_ms": float(np.percentile(lat_ms, 50)),
        "p90_ms": float(np.percentile(lat_ms, 90)),
        "cpu_ms_per_kroute": 1e6 * (cpu1 - cpu0) / state["routes"],
        "wrong": state["wrong"], "errors": state["errors"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--connections", type=int, default=32)
    parser.add_argument("--depth", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--serve", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        asyncio.run(_serve(args.seed))
        return 0

    topo, faults, srcs, dsts = _inputs(args.seed)
    ref = route_unicast_batch(topo, compute_safety_levels(topo, faults),
                              srcs, dsts)
    expected = [wire.RouteReply(1, int(ref.status[0, k]),
                                int(ref.condition[0, k]),
                                int(ref.hops[0, k]), int(ref.hamming[0, k]))
                for k in range(POOL)]
    payloads = [wire.encode_route(int(s), int(d))
                for s, d in zip(srcs, dsts)]
    proc = subprocess.Popen(
        [sys.executable, __file__, "--serve", "--seed", str(args.seed)],
        stdout=subprocess.PIPE, text=True)
    try:
        port = int(proc.stdout.readline().split()[1])
        report = asyncio.run(_load(port, proc.pid, args, expected, payloads))
    finally:
        proc.send_signal(signal.SIGTERM)
        tail, _ = proc.communicate(timeout=30)
    served = json.loads(tail.strip().splitlines()[-1])
    report["routes_per_kernel_call"] = served["rows"] / served["flushes"]
    print(json.dumps(report))
    return 0 if report["wrong"] == report["errors"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
