"""Fuzzing the binary wire protocol: garbage in, structure (or EOF) out.

The robustness contract for frame decoding, server-side: whatever bytes
arrive — truncated headers, bad magic, oversized length fields, random
garbage, or well-framed nonsense payloads — the server either answers
with a structured ``OP_ERROR`` frame or closes the connection cleanly.
It never crashes the session task, never wedges the connection, and a
fresh client can always connect afterwards.
"""

import asyncio
import json
import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import ShardRouter, WireClient
from repro.service import wire
from repro.service.server import serve_forever

PORT = 7560

#: Socket fuzzing spins a real server per example: keep the budget low
#: and the deadline off (server startup dwarfs any per-example limit).
FUZZ = settings(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _feed(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


class TestReadFrameNeverRaisesRaw:
    """The decoder itself: arbitrary bytes -> frame, EOF, or WireError."""

    @given(data=st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_prefixes(self, data):
        async def run():
            try:
                frame = await wire.read_frame(_feed(data))
            except wire.WireError as exc:
                assert exc.code == wire.E_BAD_FRAME
                return
            if frame is not None:
                op, req_id, payload = frame
                assert 0 <= op <= 0xFF and req_id >= 0
                assert isinstance(payload, bytes)

        asyncio.run(run())

    @given(op=st.integers(0, 0xFF), req_id=st.integers(0, 2**64 - 1),
           payload=st.binary(max_size=128), cut=st.integers(0, 140))
    @settings(max_examples=300, deadline=None)
    def test_truncated_valid_frames(self, op, req_id, payload, cut):
        encoded = wire.encode_frame(op, req_id, payload)

        async def run():
            try:
                frame = await wire.read_frame(_feed(encoded[:cut]))
            except wire.WireError as exc:
                assert exc.code == wire.E_BAD_FRAME
                return
            if cut >= len(encoded):
                assert frame == (op, req_id, payload)
            elif cut == 0:
                assert frame is None  # clean EOF before any bytes

        asyncio.run(run())

    @given(length=st.integers(wire.MAX_PAYLOAD + 1, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_oversized_length_is_rejected_without_allocating(self, length):
        header = wire.HEADER.pack(wire.MAGIC, wire.OP_ROUTE, length, 1)

        async def run():
            try:
                await wire.read_frame(_feed(header))
            except wire.WireError as exc:
                assert exc.code == wire.E_BAD_FRAME
                assert "exceeds" in str(exc)
                return
            raise AssertionError("oversized length must not parse")

        asyncio.run(run())


async def _fuzz_session(port, raw, followup_route=True):
    """One malformed session against a live server.

    Sends ``raw``, drains every reply frame until the server closes or
    goes quiet, validates each reply's structure, then (optionally)
    proves the *server* survived by routing on a fresh connection.
    Everything is under wait_for: a hang fails the test, it cannot wedge
    the suite.
    """
    async with ShardRouter(shards=1, window_us=100) as router:
        await router.add_tenant("default", dimension=4)
        ready = asyncio.Event()
        server = asyncio.ensure_future(serve_forever(
            router, port=port, ready=ready, tenant="default"))
        await asyncio.wait_for(ready.wait(), timeout=5)
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            writer.write(raw)
            await writer.drain()
            writer.write_eof()
            replies = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            await writer.wait_closed()

            if raw[:1] == bytes([wire.MAGIC]):
                # binary session: every reply is a well-formed frame
                buf = memoryview(replies)
                while len(buf) >= wire.HEADER.size:
                    magic, op, length, req_id = wire.HEADER.unpack(
                        buf[:wire.HEADER.size])
                    assert magic == wire.MAGIC
                    assert len(buf) >= wire.HEADER.size + length
                    payload = bytes(buf[wire.HEADER.size:
                                        wire.HEADER.size + length])
                    if op == wire.OP_ERROR:
                        err = wire.decode_error(payload)
                        assert err.code != 0 and str(err)
                    buf = buf[wire.HEADER.size + length:]
                assert len(buf) == 0, "server emitted a torn frame"
            else:
                # the compat shim answered as the line protocol: every
                # reply line is one structured JSON object, and every
                # error line carries its wire code
                for line in replies.splitlines():
                    if line.strip():
                        reply = json.loads(line)
                        assert isinstance(reply, dict)
                        if "error" in reply:
                            assert isinstance(reply["code"], int)

            if followup_route:
                client = await WireClient.connect("127.0.0.1", port)
                async with client:
                    ok = await asyncio.wait_for(client.route(1, 2),
                                                timeout=10)
                    assert ok.epoch == 1
        finally:
            server.cancel()
            try:
                await server
            except asyncio.CancelledError:
                pass


class TestServerSurvivesGarbage:
    @given(raw=st.binary(min_size=1, max_size=256))
    @FUZZ
    def test_random_bytes(self, raw):
        asyncio.run(_fuzz_session(PORT, raw))

    @given(op=st.integers(0, 0xFF), req_id=st.integers(0, 2**64 - 1),
           payload=st.binary(max_size=64))
    @FUZZ
    def test_well_framed_nonsense(self, op, req_id, payload):
        raw = wire.encode_frame(op, req_id, payload)
        asyncio.run(_fuzz_session(PORT + 1, raw))

    @given(length=st.integers(wire.MAX_PAYLOAD + 1, 2**32 - 1),
           op=st.integers(0, 0xFF))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_oversized_length_closes_the_session(self, length, op):
        raw = wire.HEADER.pack(wire.MAGIC, op, length, 1)
        asyncio.run(_fuzz_session(PORT + 2, raw))

    @given(prefix=st.binary(max_size=32))
    @FUZZ
    def test_garbage_prefix_then_valid_frame(self, prefix):
        # desync then sanity: whatever the prefix did, the valid frame
        # either gets a reply or the session is already cleanly closed
        raw = prefix + wire.encode_frame(wire.OP_ROUTE,
                                         99, struct.pack("!QQ", 1, 2))
        asyncio.run(_fuzz_session(PORT + 3, raw))

    def test_truncated_header_then_eof_closes_cleanly(self):
        for cut in range(1, wire.HEADER.size):
            raw = wire.encode_frame(wire.OP_ROUTE,
                                    1, struct.pack("!QQ", 1, 2))[:cut]
            asyncio.run(_fuzz_session(PORT + 4, raw))
