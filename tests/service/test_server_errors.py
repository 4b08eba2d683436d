"""Server error handling: every bad request answers, no session dies.

This is the regression suite for the original defect: a malformed line
(non-numeric route, unknown command, short fault spec) raised inside the
connection task and silently killed the session.  The contract now, on
both protocols, is *answer structurally and keep serving* — an
``{"error": ...}`` JSON line, or an ERROR frame carrying the request's
``req_id`` and a typed code.
"""

import asyncio
import json
import struct

import pytest

from repro.core import FaultSet
from repro.service import OverloadError, ShardDownError, ShardRetryError, \
    ShardRouter, TenantMovedError, UnknownTenantError, WireClient, WireError
from repro.service import wire
from repro.service.server import serve_forever

N = 5
FAULTS = FaultSet(nodes=[0, 7, 21])
PORT = 7530


def _serve(port, run):
    """Serve one cube as tenant ``default`` of a one-shard router, with
    every session bound to it, and run ``run(router)``."""
    async def main():
        async with ShardRouter(shards=1, window_us=100) as router:
            await router.add_tenant("default", dimension=N, faults=FAULTS)
            ready = asyncio.Event()
            server = asyncio.ensure_future(serve_forever(
                router, port=port, ready=ready, tenant="default"))
            await ready.wait()
            try:
                return await run(router)
            finally:
                server.cancel()
                try:
                    await server
                except asyncio.CancelledError:
                    pass

    return asyncio.run(main())


async def _line_exchange(port, lines):
    """Send each line, read one JSON reply per line, then quit."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    replies = []
    for line in lines:
        writer.write(line.encode() + b"\n")
        await writer.drain()
        raw = await asyncio.wait_for(reader.readline(), timeout=5)
        assert raw, f"connection died instead of answering {line!r}"
        replies.append(json.loads(raw))
    writer.write(b"quit\n")
    await writer.drain()
    writer.close()
    await writer.wait_closed()
    return replies


class TestLineProtocolErrors:
    def test_malformed_lines_answer_and_session_survives(self):
        bad_then_good = [
            "not a route",          # non-numeric
            "1",                    # missing dest
            "1 2 3 4",              # route ignores extras? no: int('3')...
            "fault add banana",     # non-numeric fault node
            "fault explode 3",      # unknown fault action
            "fault",                # missing action entirely
            "999 1",                # node id out of range
            "1 2",                  # ...and a real route still works
        ]

        async def run(_router):
            return await _line_exchange(PORT, bad_then_good)

        replies = _serve(PORT, run)
        for line, reply in zip(bad_then_good[:-1], replies[:-1]):
            if "error" in reply:
                assert reply["input"] == line
                assert reply["error"]  # non-empty message
                assert isinstance(reply["code"], int)
                assert reply["code"] == wire.E_BAD_REQUEST
        # the final, well-formed request routed normally
        assert replies[-1]["source"] == 1 and replies[-1]["dest"] == 2
        assert "error" not in replies[-1]

    def test_every_reply_is_one_json_line(self):
        lines = ["garbage", "fault add x", "1 2"]

        async def run(_router):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           PORT + 1)
            writer.write(("\n".join(lines) + "\nquit\n").encode())
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return raw

        raw = _serve(PORT + 1, run)
        replies = [json.loads(v) for v in raw.splitlines() if v.strip()]
        assert len(replies) == len(lines)

    def test_overlong_line_answers_and_session_survives(self):
        async def run(_router):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           PORT + 6)
            writer.write(b"1" * 70_000 + b"\n1 2\n")
            await writer.drain()
            replies = []
            while not replies or "error" in replies[-1]:
                raw = await asyncio.wait_for(reader.readline(), timeout=5)
                assert raw, "connection died instead of answering"
                replies.append(json.loads(raw))
            writer.write(b"quit\n")
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            return replies

        replies = _serve(PORT + 6, run)
        # asyncio may split the overlong line into an overrun and a
        # remainder; either way each piece answers E_BAD_REQUEST
        assert 1 <= len(replies) - 1 <= 2
        for reply in replies[:-1]:
            assert reply["code"] == wire.E_BAD_REQUEST and reply["error"]
        assert replies[-1]["source"] == 1 and replies[-1]["dest"] == 2

    def test_unknown_tenant_on_router_is_structured(self):
        async def run():
            async with ShardRouter(shards=2, window_us=100) as router:
                await router.add_tenant("blue", dimension=N, faults=FAULTS)
                ready = asyncio.Event()
                server = asyncio.ensure_future(
                    serve_forever(router, port=PORT + 2, ready=ready))
                await ready.wait()
                try:
                    return await _line_exchange(PORT + 2, [
                        "1 2",            # no tenant bound yet
                        "tenant ghost",   # not registered
                        "tenant blue",    # ...bind for real
                        "1 2",            # now routes
                    ])
                finally:
                    server.cancel()
                    try:
                        await server
                    except asyncio.CancelledError:
                        pass

        no_tenant, ghost, bound, routed = asyncio.run(run())
        assert no_tenant["code"] == wire.E_NO_TENANT
        assert ghost["code"] == wire.E_UNKNOWN_TENANT
        assert bound == {"tenant": "blue", "epoch": 1, "n": N}
        assert routed["source"] == 1 and "error" not in routed


class TestBinaryProtocolErrors:
    def test_bad_payload_and_unknown_op_answer_with_error_frames(self):
        async def run(_router):
            client = await WireClient.connect("127.0.0.1", PORT + 3)
            async with client:
                # unknown op
                with pytest.raises(WireError) as exc:
                    await client._call(0x55, b"", wire.OP_ROUTE_R)
                unknown = exc.value.code
                # truncated ROUTE payload (needs 16 bytes)
                with pytest.raises(WireError) as exc:
                    await client._call(wire.OP_ROUTE, b"\x00" * 5,
                                       wire.OP_ROUTE_R)
                bad_payload = exc.value.code
                # malformed BLOCK payload (count disagrees with length)
                with pytest.raises(WireError) as exc:
                    await client._call(wire.OP_BLOCK,
                                       struct.pack("!I", 100) + b"\x00" * 8,
                                       wire.OP_BLOCK_R)
                bad_block = exc.value.code
                # out-of-range node is a *refusal*, not an error: the
                # reply carries the rejected row, the session continues
                refused = await client.route(999, 1)
                ok = await client.route(1, 2)
                return unknown, bad_payload, bad_block, refused, ok

        unknown, bad_payload, bad_block, refused, ok = _serve(PORT + 3, run)
        assert unknown == wire.E_UNKNOWN_OP
        assert bad_payload == wire.E_BAD_REQUEST
        assert bad_block == wire.E_BAD_REQUEST
        assert refused.status == 255 and refused.hops == 0
        assert ok.epoch == 1

    def test_route_outside_int64_fails_alone_among_pipelined_frames(self):
        pairs = [(1, 2), (3, 4), (1 << 63, 1), (5, 6), (2, (1 << 64) - 1),
                 (9, 10)]

        async def run(_router):
            client = await WireClient.connect("127.0.0.1", PORT + 8)
            async with client:
                return await asyncio.gather(
                    *(client.route(s, d) for s, d in pairs),
                    return_exceptions=True)

        replies = _serve(PORT + 8, run)
        # the wire field is uint64, a kernel row int64: a node >= 2**63
        # is a bad request of its own, never its neighbours' failure
        for (src, dst), reply in zip(pairs, replies):
            if max(src, dst) >= 1 << 63:
                assert isinstance(reply, WireError)
                assert reply.code == wire.E_BAD_REQUEST
            else:
                assert not isinstance(reply, Exception), reply
                assert reply.epoch == 1 and reply.status != 255

    def test_error_frames_carry_the_request_id(self):
        async def run(_router):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           PORT + 4)
            writer.write(wire.encode_frame(0x42, 777, b""))
            await writer.drain()
            header = await reader.readexactly(wire.HEADER.size)
            magic, op, length, req_id = wire.HEADER.unpack(header)
            payload = await reader.readexactly(length)
            writer.close()
            await writer.wait_closed()
            return op, req_id, wire.decode_error(payload)

        op, req_id, err = _serve(PORT + 4, run)
        assert op == wire.OP_ERROR
        assert req_id == 777
        assert err.code == wire.E_UNKNOWN_OP

    def test_framing_desync_closes_cleanly_without_killing_server(self):
        async def run(_router):
            # session 1: magic byte followed by garbage -> desync, close
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           PORT + 5)
            writer.write(bytes([wire.MAGIC]) + b"\xff" * 64)
            header = wire.HEADER.pack(wire.MAGIC, wire.OP_ROUTE,
                                      1 << 30, 1)  # absurd length
            writer.write(header)
            await writer.drain()
            assert await reader.read() == b""  # server closed the session
            writer.close()
            await writer.wait_closed()
            # session 2: the server itself is fine
            client = await WireClient.connect("127.0.0.1", PORT + 5)
            async with client:
                return await client.route(1, 2)

        ok = _serve(PORT + 5, run)
        assert ok.epoch == 1


class TestOneErrorTable:
    @pytest.mark.parametrize("exc, code", [
        (ShardDownError("shard 0 is down"), wire.E_SHARD_DOWN),
        (ShardRetryError("failover pending"), wire.E_RETRY),
        (TenantMovedError("moved to shard 1"), wire.E_MOVED),
        (OverloadError("over budget"), wire.E_OVERLOAD),
        (UnknownTenantError("tenant 'x' is not registered"),
         wire.E_UNKNOWN_TENANT),
        (RuntimeError("unexpected"), wire.E_INTERNAL),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else "")
    def test_binary_and_line_report_the_same_code(self, exc, code):
        async def fail(*args, **kwargs):
            raise exc

        async def run(router):
            # line routes reach router.route, binary ROUTE runs (a lone
            # frame included) reach route_block
            router.route = router.route_block = fail
            client = await WireClient.connect("127.0.0.1", PORT + 7)
            async with client:
                with pytest.raises(WireError) as excinfo:
                    await client.route(1, 2)
            (line,) = await _line_exchange(PORT + 7, ["1 2"])
            return excinfo.value, line

        frame, line = _serve(PORT + 7, run)
        assert frame.code == line["code"] == code
        assert str(exc) in frame.message and str(exc) in line["error"]
