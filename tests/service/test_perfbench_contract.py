"""The names the end-to-end benchmark (``perfbench/``) relies on.

perfbench starts the server through ``ShardRouter(shards=..., workers=0)``
and, in its traced mode, replaces module and class attributes by name
(``perfbench/spans.py``).  A rename on either side would otherwise only
show up as a failed traced benchmark run; these tests make it fail here.
"""

import asyncio
import importlib
from pathlib import Path

import pytest

from repro.core import FaultSet
from repro.service import ShardRouter, wire
from repro.service.server import handle_connection

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def test_router_accepts_workers_zero_only():
    async def run():
        async with ShardRouter(shards=2, workers=0) as router:
            return sorted(router.shards)

    assert asyncio.run(run()) == [0, 1]
    with pytest.raises(ValueError, match="process-pool backend was removed"):
        ShardRouter(shards=2, workers=1)


def test_span_patches_resolve_and_unpatch_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    rec = spans.Recorder()
    try:
        spans.instrument_server(rec)
        spans.instrument_sweep(rec)
        patched = list(rec._patches)
        names = {(getattr(owner, "__name__", owner), attr)
                 for owner, attr, _ in patched}
        # the service path and the offline kernels are both covered; a
        # ROUTE frame's read, decode and reply encode are all counted
        for fn in ("read_frame", "decode_route", "encode_route_reply"):
            assert ("repro.service.wire", fn) in names
        assert ("repro.service.service", "route_task") in names
        assert ("repro.service.workers", "route_with_table") in names
        assert ("repro.service.workers", "attach_epoch_table") in names
        assert ("repro.service.epoch", "seal_epoch_table") in names
        assert ("repro.routing.batch", "route_unicast_batch") in names
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        rec.unpatch()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)


def test_route_runs_call_the_codec_through_the_wire_module(monkeypatch):
    """A ROUTE run still reads, decodes and encodes each frame through
    ``wire``'s module attributes, where the traced benchmark patches them."""
    calls = {"read_frame": 0, "decode_route": 0, "encode_route_reply": 0}

    def counting(name):
        fn = getattr(wire, name)
        if asyncio.iscoroutinefunction(fn):
            async def wrapper(*args):
                frame = await fn(*args)
                calls[name] += frame is not None and frame[0] == wire.OP_ROUTE
                return frame
        else:
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
        monkeypatch.setattr(wire, name, wrapper)

    for name in calls:
        counting(name)
    count = 64
    # ROUTE frames from the first byte on: the session's first frame,
    # whose magic byte the protocol sniff consumed, is read by
    # ``wire.read_frame`` too
    burst = b"".join(
        wire.encode_frame(wire.OP_ROUTE, 1 + k,
                          wire.encode_route(k % 32, 31 - k % 32))
        for k in range(count))

    async def run():
        async with ShardRouter(shards=1, window_us=100) as router:
            await router.add_tenant("t", dimension=5,
                                    faults=FaultSet(nodes=[0, 7]))
            server = await asyncio.start_server(
                lambda r, w: handle_connection(router, r, w, tenant="t"),
                "127.0.0.1", 0)
            async with server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.sockets[0].getsockname()[1])
                writer.write(burst)
                writer.write_eof()
                replies = await asyncio.wait_for(reader.read(), timeout=10)
                writer.close()
                return replies

    replies = asyncio.run(run())
    assert len(replies) == count * (wire.HEADER.size + 14)  # every ROUTE_R
    assert calls == {name: count for name in calls}
