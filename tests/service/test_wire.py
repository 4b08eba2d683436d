"""Binary RPC framing: codecs, pipelining, and end-to-end bit-identity.

Two layers under test.  The codec layer must round-trip every op's
payload byte-exactly (the frame layout is a public contract documented
in DESIGN.md §8).  The session layer must keep the guarantees the line
protocol had — responses bit-identical to the offline kernel, epochs
visible end to end — while adding the two wire-level ones: replies match
requests by ``req_id`` under pipelining, and a failed request answers
with a structured ERROR frame instead of killing the connection.
"""

import asyncio
import socket

import numpy as np
import pytest

from repro.core import FaultSet, Hypercube
from repro.routing.batch import route_unicast_batch
from repro.safety.levels import compute_safety_levels
from repro.service import ShardRouter, WireClient, WireError
from repro.service import service as service_mod
from repro.service import wire
from repro.service.server import handle_connection, serve_forever
from repro.service.service import REJECTED_CODE

N = 5
FAULTS = FaultSet(nodes=[0, 7, 21])
PORT = 7515


def _workload(count, seed=0):
    rng = np.random.default_rng(seed)
    healthy = [v for v in range(1 << N) if not FAULTS.is_node_faulty(v)]
    picks = rng.choice(healthy, size=(count, 2))
    mask = picks[:, 0] == picks[:, 1]
    picks[mask, 1] = healthy[0] if healthy[0] != picks[0, 0] else healthy[1]
    return picks[:, 0].astype(np.int64), picks[:, 1].astype(np.int64)


class TestCodecs:
    def test_frame_header_layout(self):
        frame = wire.encode_frame(wire.OP_ROUTE, 42,
                                  wire.encode_route(3, 9))
        assert frame[0] == wire.MAGIC
        assert frame[1] == wire.OP_ROUTE
        assert len(frame) == wire.HEADER.size + 16
        magic, op, length, req_id = wire.HEADER.unpack(
            frame[:wire.HEADER.size])
        assert (magic, op, length, req_id) == (wire.MAGIC, wire.OP_ROUTE,
                                               16, 42)

    def test_route_payload_round_trip(self):
        assert wire.decode_route(wire.encode_route(5, 30)) == (5, 30)

    def test_block_payload_round_trip(self):
        srcs = np.array([1, 2, 3, 250], dtype=np.int64)
        dsts = np.array([9, 8, 7, 6], dtype=np.int64)
        out_s, out_d = wire.decode_block(wire.encode_block(srcs, dsts))
        assert np.array_equal(out_s, srcs)
        assert np.array_equal(out_d, dsts)

    def test_block_reply_round_trip(self):
        status = np.array([0, 1, REJECTED_CODE], dtype=np.uint8)
        condition = np.array([0, 3, 3], dtype=np.uint8)
        hops = np.array([4, 0, 0], dtype=np.int64)
        hamming = np.array([4, 2, 1], dtype=np.int64)
        reply = wire.decode_block_reply(
            wire.encode_block_reply(7, status, condition, hops, hamming))
        assert reply.epoch == 7
        assert np.array_equal(reply.status, status)
        assert np.array_equal(reply.condition, condition)
        assert np.array_equal(reply.hops, hops)
        assert np.array_equal(reply.hamming, hamming)

    def test_fault_payload_round_trip(self):
        add, rem = wire.decode_fault(wire.encode_fault([3, 9], [21]))
        assert list(add) == [3, 9]
        assert list(rem) == [21]

    def test_error_round_trip(self):
        err = wire.decode_error(
            wire.encode_error(wire.E_UNKNOWN_TENANT, "no such tenant"))
        assert err.code == wire.E_UNKNOWN_TENANT
        assert err.message == "no such tenant"

    def test_mismatched_block_columns_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            wire.encode_block(np.arange(3), np.arange(4))

    def test_truncated_block_payload_rejected(self):
        payload = wire.encode_block(np.arange(1, 4), np.arange(4, 7))
        with pytest.raises(WireError, match="must be"):
            wire.decode_block(payload[:-3])

    def test_frame_size_reads_the_header_length(self):
        route = wire.encode_frame(wire.OP_ROUTE, 42, wire.encode_route(3, 9))
        epoch = wire.encode_frame(wire.OP_EPOCH, 7)
        data = b"xy" + route + epoch + route[:wire.HEADER.size - 1]
        assert wire.frame_size(route) == len(route) == wire.HEADER.size + 16
        assert wire.frame_size(data, 2) == len(route)
        assert wire.frame_size(data, 2 + len(route)) == wire.HEADER.size
        # a header one byte short, or none at all, gives no size
        assert wire.frame_size(data, 2 + len(route) + len(epoch)) is None
        assert all(wire.frame_size(route[:k]) is None
                   for k in range(wire.HEADER.size))
        # the length field alone decides, even past the payload limit
        huge = wire.HEADER.pack(wire.MAGIC, wire.OP_BLOCK,
                                wire.MAX_PAYLOAD + 1, 1)
        assert wire.frame_size(huge) == wire.HEADER.size + wire.MAX_PAYLOAD + 1


def _serve(port, run, window_us):
    """Run ``run(client)`` against one served cube on a fresh loop: tenant
    ``default`` of a one-shard router, with every session bound to it."""
    async def main():
        async with ShardRouter(shards=1, window_us=window_us) as router:
            await router.add_tenant("default", dimension=N, faults=FAULTS)
            ready = asyncio.Event()
            server = asyncio.ensure_future(serve_forever(
                router, port=port, ready=ready, tenant="default"))
            await ready.wait()
            try:
                client = await WireClient.connect("127.0.0.1", port)
                async with client:
                    return await run(client)
            finally:
                server.cancel()
                try:
                    await server
                except asyncio.CancelledError:
                    pass

    return asyncio.run(main())


class TestEndToEnd:
    def test_block_response_bit_identical_to_offline(self):
        srcs, dsts = _workload(200, seed=1)

        async def run(client):
            return await client.route_block(srcs, dsts)

        reply = _serve(PORT, run, window_us=200)
        topo = Hypercube(N)
        levels = compute_safety_levels(topo, FAULTS)
        ref = route_unicast_batch(topo, levels, srcs, dsts)
        assert reply.epoch == 1
        assert np.array_equal(reply.status.astype(np.int64),
                              ref.status.reshape(-1))
        assert np.array_equal(reply.condition.astype(np.int64),
                              ref.condition.reshape(-1))
        assert np.array_equal(reply.hops, ref.hops.reshape(-1))
        assert np.array_equal(reply.hamming, ref.hamming.reshape(-1))

    def test_pipelined_singles_match_offline_in_request_order(self):
        srcs, dsts = _workload(60, seed=2)

        async def run(client):
            # fire every request before awaiting any reply: pipelining
            calls = [asyncio.ensure_future(client.route(int(s), int(d)))
                     for s, d in zip(srcs, dsts)]
            return await asyncio.gather(*calls)

        replies = _serve(PORT + 1, run, window_us=300)
        topo = Hypercube(N)
        levels = compute_safety_levels(topo, FAULTS)
        ref = route_unicast_batch(topo, levels, srcs, dsts)
        for k, reply in enumerate(replies):
            assert reply.status == int(ref.status[0, k])
            assert reply.condition == int(ref.condition[0, k])
            assert reply.hops == int(ref.hops[0, k])

    def test_fault_injection_bumps_epoch_on_the_wire(self):

        async def run(client):
            before = await client.route(1, 9)
            swap = await client.inject_faults(add=[9])
            after = await client.route(1, 9)
            epoch, faults = await client.epoch()
            return before, swap, after, epoch, faults

        before, swap, after, epoch, faults = _serve(PORT + 2, run,
                                                    window_us=100)
        assert before.epoch == 1 and before.status != REJECTED_CODE
        assert swap.epoch == 2 and swap.added == 1 and swap.spare
        assert after.epoch == 2 and after.status == REJECTED_CODE
        assert (epoch, faults) == (2, len(FAULTS.nodes) + 1)

    def test_error_frame_keeps_connection_alive(self):

        async def run(client):
            with pytest.raises(WireError) as excinfo:
                await client._call(0x6F, b"", wire.OP_ROUTE_R)
            code = excinfo.value.code
            # the session survived: a normal request still answers
            reply = await client.route(1, 2)
            return code, reply

        code, reply = _serve(PORT + 3, run, window_us=100)
        assert code == wire.E_UNKNOWN_OP
        assert reply.epoch == 1

    def test_line_protocol_still_served_on_same_port(self):

        async def run(_client):
            import json
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           PORT + 4)
            writer.write(b"1 2\n")
            await writer.drain()
            route = json.loads(await reader.readline())
            writer.write(b"epoch\n")
            await writer.drain()
            epoch = json.loads(await reader.readline())
            writer.write(b"quit\n")
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            return route, epoch

        route, epoch = _serve(PORT + 4, run, window_us=100)
        assert route["source"] == 1 and route["dest"] == 2
        assert route["epoch"] == 1
        assert epoch["epoch"] == 1


class TestRouteRuns:
    """A session answers consecutive ROUTE frames as one block (a run)."""

    TENANTS = {"blue": (5, FAULTS), "green": (6, FaultSet(nodes=[3, 12, 40]))}

    @staticmethod
    def _pairs(dimension, faults, count, seed):
        healthy = [v for v in range(1 << dimension)
                   if not faults.is_node_faulty(v)]
        picks = np.random.default_rng(seed).choice(healthy, size=(count, 2))
        return picks[:, 0].astype(np.int64), picks[:, 1].astype(np.int64)

    def test_pipelined_burst_with_a_rebind_matches_offline(self):
        half = 100
        blue = self._pairs(*self.TENANTS["blue"], half, seed=5)
        green = self._pairs(*self.TENANTS["green"], half, seed=6)
        # req_id -> (tenant, row); TENANT frames are ids 1 and half + 2
        frames, rows = [], {}
        for name, (srcs, dsts), first in (("blue", blue, 1),
                                          ("green", green, half + 2)):
            frames.append(wire.encode_frame(wire.OP_TENANT, first,
                                            name.encode()))
            for k, (s, d) in enumerate(zip(srcs, dsts)):
                rows[first + 1 + k] = (name, k)
                frames.append(wire.encode_frame(
                    wire.OP_ROUTE, first + 1 + k,
                    wire.encode_route(int(s), int(d))))

        async def main():
            async with ShardRouter(shards=2, window_us=100) as router:
                for name, (n, faults) in self.TENANTS.items():
                    await router.add_tenant(name, dimension=n, faults=faults)
                server = await asyncio.start_server(
                    lambda r, w: handle_connection(router, r, w),
                    "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port)
                    writer.write(b"".join(frames))  # one pipelined burst
                    replies = {}
                    while len(replies) < len(frames):
                        op, req_id, payload = await asyncio.wait_for(
                            wire.read_frame(reader), timeout=10)
                        assert req_id not in replies
                        replies[req_id] = (op, payload)
                    writer.close()
                    await writer.wait_closed()
                return replies, {
                    name: (router.service_of(name).batcher.flushes,
                           router.service_of(name).responses)
                    for name in self.TENANTS}

        replies, batching = asyncio.run(main())
        assert set(replies) == set(rows) | {1, half + 2}
        assert replies[1][0] == replies[half + 2][0] == wire.OP_TENANT_R
        want = {}
        for name, (srcs, dsts) in (("blue", blue), ("green", green)):
            n, faults = self.TENANTS[name]
            topo = Hypercube(n)
            want[name] = route_unicast_batch(
                topo, compute_safety_levels(topo, faults), srcs, dsts)
        for req_id, (name, k) in rows.items():
            op, payload = replies[req_id]
            assert op == wire.OP_ROUTE_R, (req_id, payload)
            ref = want[name]
            assert wire.decode_route_reply(payload) == wire.RouteReply(
                1, int(ref.status[0, k]), int(ref.condition[0, k]),
                int(ref.hops[0, k]), int(ref.hamming[0, k]))
        for name, (flushes, responses) in batching.items():
            assert responses == half  # the rebind split the burst exactly
            assert 1 <= flushes <= half // 10

    def test_a_burst_past_the_budget_is_served_up_to_it(self):
        srcs, dsts = self._pairs(*self.TENANTS["blue"], 8, seed=7)
        burst = b"".join(
            wire.encode_frame(wire.OP_ROUTE, k,
                              wire.encode_route(int(s), int(d)))
            for k, (s, d) in enumerate(zip(srcs, dsts)))

        async def main():
            async with ShardRouter(shards=1, window_us=100,
                                   max_tenant_inflight=2) as router:
                await router.add_tenant("blue", dimension=5, faults=FAULTS)
                server = await asyncio.start_server(
                    lambda r, w: handle_connection(router, r, w,
                                                   tenant="blue"),
                    "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port)
                    answers = []
                    for _ in range(3):  # each burst waits for the last
                        writer.write(burst)
                        replies = {}
                        while len(replies) < 8:
                            op, req_id, payload = await asyncio.wait_for(
                                wire.read_frame(reader), timeout=10)
                            replies[req_id] = (op, payload)
                        answers.append(replies)
                    writer.close()
                    await writer.wait_closed()
                return answers, router.shed

        answers, shed = asyncio.run(main())
        for replies in answers:
            served = sorted(k for k, (op, _) in replies.items()
                            if op == wire.OP_ROUTE_R)
            assert served == [0, 1]  # the budget's worth, in frame order
            for k in range(2, 8):
                op, payload = replies[k]
                assert op == wire.OP_ERROR
                assert wire.decode_error(payload).code == wire.E_OVERLOAD
        assert shed == 3 * 6  # one shed per refused frame

    def test_lone_frames_from_many_connections_share_one_call(self):
        srcs, dsts = self._pairs(*self.TENANTS["blue"], 8, seed=8)

        async def main():
            async with ShardRouter(shards=1, window_us=60_000) as router:
                await router.add_tenant("blue", dimension=5, faults=FAULTS)
                server = await asyncio.start_server(
                    lambda r, w: handle_connection(router, r, w,
                                                   tenant="blue"),
                    "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    conns = [await asyncio.open_connection("127.0.0.1", port)
                             for _ in range(8)]
                    before = router.service_of("blue").batcher.flushes
                    for k, (_reader, writer) in enumerate(conns):
                        writer.write(wire.encode_frame(
                            wire.OP_ROUTE, k,
                            wire.encode_route(int(srcs[k]), int(dsts[k]))))
                        await asyncio.sleep(0.003)  # well inside the window
                    replies = [await asyncio.wait_for(
                                   wire.read_frame(reader), timeout=10)
                               for reader, _writer in conns]
                    flushes = router.service_of("blue").batcher.flushes
                    for _reader, writer in conns:
                        writer.close()
                        await writer.wait_closed()
                return replies, flushes - before

        replies, flushes = asyncio.run(main())
        assert [(op, req_id) for op, req_id, _ in replies] == \
            [(wire.OP_ROUTE_R, k) for k in range(8)]
        # each connection's run is one frame; the window gathers them all
        assert flushes == 1


class TestOneLoop:
    """Kernel calls run on the event loop's thread, so a block larger
    than ``max_batch`` routes in slices and yields between them."""

    def test_epoch_frame_answered_while_a_long_block_routes(
            self, monkeypatch):
        rows, max_batch = 512, 8
        slices = rows // max_batch
        srcs, dsts = _workload(rows, seed=9)
        calls, order = [], []
        route = service_mod.route_task

        async def main():
            async with ShardRouter(shards=2, window_us=100,
                                   max_batch=max_batch) as router:
                await router.add_tenant("blue", dimension=N, faults=FAULTS)
                await router.add_tenant("green", dimension=6)
                server = await asyncio.start_server(
                    lambda r, w: handle_connection(router, r, w),
                    "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    conns = {}
                    for name in ("blue", "green"):
                        reader, writer = await asyncio.open_connection(
                            "127.0.0.1", port)
                        writer.write(wire.encode_frame(
                            wire.OP_TENANT, 1, name.encode()))
                        op, _, _ = await asyncio.wait_for(
                            wire.read_frame(reader), timeout=10)
                        assert op == wire.OP_TENANT_R
                        conns[name] = reader, writer

                    def kernel(table, epoch, n, srcs, dsts, tie_break):
                        calls.append(epoch)
                        if len(calls) == 1:  # the block's first slice
                            conns["green"][1].write(
                                wire.encode_frame(wire.OP_EPOCH, 2))
                        return route(table, epoch, n, srcs, dsts,
                                     tie_break)

                    monkeypatch.setattr(service_mod, "route_task", kernel)

                    async def reply(name):
                        frame = await asyncio.wait_for(
                            wire.read_frame(conns[name][0]), timeout=10)
                        order.append((name, len(calls)))
                        return frame

                    epoch = asyncio.ensure_future(reply("green"))
                    conns["blue"][1].write(wire.encode_frame(
                        wire.OP_BLOCK, 2, wire.encode_block(srcs, dsts)))
                    block = await reply("blue")
                    epoch = await epoch
                    for _reader, writer in conns.values():
                        writer.close()
                        await writer.wait_closed()
                return block, epoch

        (block_op, _, block_payload), (epoch_op, _, _) = asyncio.run(main())
        assert (block_op, epoch_op) == (wire.OP_BLOCK_R, wire.OP_EPOCH_R)
        # the EPOCH reply arrived first, while the block was mid-route
        assert [name for name, _ in order] == ["green", "blue"]
        assert order[0][1] < slices and order[1][1] == slices
        # every slice routed on the one epoch the block took
        assert calls == [1] * slices
        reply = wire.decode_block_reply(block_payload)
        assert reply.epoch == 1
        topo = Hypercube(N)
        ref = route_unicast_batch(topo, compute_safety_levels(topo, FAULTS),
                                  srcs, dsts)
        assert np.array_equal(reply.status.astype(np.int64),
                              ref.status.reshape(-1))
        assert np.array_equal(reply.condition.astype(np.int64),
                              ref.condition.reshape(-1))
        assert np.array_equal(reply.hops, ref.hops.reshape(-1))
        assert np.array_equal(reply.hamming, ref.hamming.reshape(-1))


#: One ROUTE_R frame, header included, as a numpy record.
_ROUTE_R_FRAME = np.dtype([
    ("magic", "u1"), ("op", "u1"), ("length", ">u4"), ("req_id", ">u8"),
    ("epoch", ">u8"), ("status", "u1"), ("condition", "u1"),
    ("hops", ">u2"), ("hamming", ">u2")])


def _route_frames(srcs, dsts, first_id=0):
    return [wire.encode_frame(wire.OP_ROUTE, first_id + k,
                              wire.encode_route(int(s), int(d)))
            for k, (s, d) in enumerate(zip(srcs, dsts))]


def _offline_replies(srcs, dsts):
    """Every pair's reply as the offline kernel answers it at epoch 1."""
    topo = Hypercube(N)
    ref = route_unicast_batch(topo, compute_safety_levels(topo, FAULTS),
                              srcs, dsts)
    return [wire.RouteReply(1, int(ref.status[0, k]),
                            int(ref.condition[0, k]), int(ref.hops[0, k]),
                            int(ref.hamming[0, k]))
            for k in range(len(srcs))]


async def _frames_of(data):
    """Split a byte stream of reply frames into ``{req_id: (op, payload)}``."""
    reader = asyncio.StreamReader()
    reader.feed_data(bytes(data))
    reader.feed_eof()
    replies = {}
    while (frame := await wire.read_frame(reader)) is not None:
        op, req_id, payload = frame
        assert req_id not in replies
        replies[req_id] = (op, payload)
    return replies


class _Chunks:
    """A socket reader that hands out the given chunks, one per read (a
    chunk larger than the read is cut to it)."""

    def __init__(self, chunks):
        self._chunks = list(chunks)
        self._next = 0
        self._rest = b""

    async def read(self, n):
        chunk = self._rest
        if not chunk and self._next < len(self._chunks):
            chunk = self._chunks[self._next]
            self._next += 1
        chunk, self._rest = chunk[:n], chunk[n:]
        return chunk


class _Sink:
    """The writer side of a connection: keeps what was written and how
    much of it came before ``close``."""

    def __init__(self):
        self.data = bytearray()
        self.before_close = None

    def write(self, data):
        assert self.before_close is None, "write after close"
        self.data += data

    async def drain(self):
        pass

    def close(self):
        self.before_close = len(self.data)

    async def wait_closed(self):
        pass


async def _serve_chunks(chunks):
    """Serve one binary session that reads ``chunks``; returns its sink."""
    async with ShardRouter(shards=1, window_us=100) as router:
        await router.add_tenant("default", dimension=N, faults=FAULTS)
        sink = _Sink()
        await asyncio.wait_for(handle_connection(
            router, _Chunks(chunks), sink, tenant="default"), timeout=30)
        return sink


class TestSessionReads:
    """A binary session holds one ROUTE run in the router at a time and
    reads what arrived meanwhile as the next run."""

    def test_a_client_that_writes_everything_before_reading_is_answered(
            self):
        # Every socket buffer of the connection is held to 64 KiB, so the
        # replies back up long before the client has written its last
        # request: a session that waited on the client draining its
        # replies would stop reading, and this client would never get
        # to read.
        count = 100_000
        srcs, dsts = _workload(count, seed=10)
        burst = b"".join(_route_frames(srcs, dsts))

        def small_buffers(sock):
            for option in (socket.SO_RCVBUF, socket.SO_SNDBUF):
                sock.setsockopt(socket.SOL_SOCKET, option, 64 * 1024)

        async def main():
            async with ShardRouter(shards=1, window_us=100) as router:
                await router.add_tenant("default", dimension=N,
                                        faults=FAULTS)
                server = await asyncio.start_server(
                    lambda r, w: handle_connection(router, r, w,
                                                   tenant="default"),
                    "127.0.0.1", 0)
                small_buffers(server.sockets[0])  # accepted ones inherit
                async with server:
                    sock = socket.socket()
                    small_buffers(sock)
                    sock.setblocking(False)
                    await asyncio.get_running_loop().sock_connect(
                        sock, server.sockets[0].getsockname())
                    reader, writer = await asyncio.open_connection(sock=sock)

                    async def client():
                        writer.write(burst)
                        await writer.drain()
                        writer.write_eof()
                        return await reader.read()

                    try:
                        return await asyncio.wait_for(client(), timeout=30)
                    finally:
                        # not close(): that would wait for the unsent
                        # requests of a hung exchange to flush
                        writer.transport.abort()

        data = asyncio.run(main())
        assert len(data) == count * _ROUTE_R_FRAME.itemsize
        got = np.sort(np.frombuffer(data, dtype=_ROUTE_R_FRAME),
                      order="req_id")
        assert (got["op"] == wire.OP_ROUTE_R).all()
        assert np.array_equal(got["req_id"], np.arange(count))
        topo = Hypercube(N)
        ref = route_unicast_batch(topo, compute_safety_levels(topo, FAULTS),
                                  srcs, dsts)
        assert (got["epoch"] == 1).all()
        for field in ("status", "condition", "hops", "hamming"):
            assert np.array_equal(got[field].astype(np.int64),
                                  getattr(ref, field).reshape(-1)), field

    def test_frames_written_while_a_run_routes_form_the_next_run(
            self, monkeypatch):
        # frame k routes 100 + k on a fault-free Q10, so a run's sources
        # name its frames; each wave is written while the run before it
        # is in the router, one frame per write
        waves = [[0], list(range(1, 9)), list(range(9, 30)), [30, 31]]
        count = sum(map(len, waves))
        frames = _route_frames(100 + np.arange(count), np.zeros(count))
        route_block = ShardRouter.route_block
        runs, in_router = [], {"now": 0, "most": 0}
        writer = None

        async def watched(self, tenant, srcs, dsts, **kwargs):
            runs.append([int(s) - 100 for s in srcs])
            in_router["now"] += 1
            in_router["most"] = max(in_router["most"], in_router["now"])
            try:
                if len(runs) < len(waves):
                    for k in waves[len(runs)]:
                        writer.write(frames[k])
                        await writer.drain()
                        await asyncio.sleep(0.002)
                    await asyncio.sleep(0.01)
                return await route_block(self, tenant, srcs, dsts, **kwargs)
            finally:
                in_router["now"] -= 1

        monkeypatch.setattr(ShardRouter, "route_block", watched)

        async def main():
            nonlocal writer
            async with ShardRouter(shards=1, window_us=100) as router:
                await router.add_tenant("q10", dimension=10)
                server = await asyncio.start_server(
                    lambda r, w: handle_connection(router, r, w,
                                                   tenant="q10"),
                    "127.0.0.1", 0)
                async with server:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.sockets[0].getsockname()[1])
                    writer.write(frames[0])
                    replies = {}
                    while len(replies) < count:
                        op, req_id, _ = await asyncio.wait_for(
                            wire.read_frame(reader), timeout=10)
                        replies[req_id] = op
                    writer.close()
                    await writer.wait_closed()
                return replies

        replies = asyncio.run(main())
        assert replies == {k: wire.OP_ROUTE_R for k in range(count)}
        assert in_router["most"] == 1
        assert runs == waves

    @pytest.mark.parametrize("chunk", [1, 31, 70_000])
    def test_frames_split_across_reads_are_answered_as_offline(self, chunk):
        """Every frame cut at every ``chunk``-th byte of the stream (so at
        every byte boundary for ``chunk=1``); the BLOCK frame is larger
        than one 64 KiB read."""
        srcs, dsts = _workload(4200 + 6, seed=11)
        singles = _route_frames(srcs[:6], dsts[:6], first_id=10)
        block = wire.encode_frame(
            wire.OP_BLOCK, 1, wire.encode_block(srcs[6:], dsts[6:]))
        assert len(block) > 64 * 1024
        epoch = wire.encode_frame(wire.OP_EPOCH, 2)
        stream = b"".join(singles[:3] + [block] + singles[3:5] + [epoch]
                          + singles[5:])
        sink = asyncio.run(_serve_chunks(
            stream[at:at + chunk] for at in range(0, len(stream), chunk)))
        replies = asyncio.run(_frames_of(sink.data))
        assert sorted(replies) == [1, 2] + list(range(10, 16))
        want = _offline_replies(srcs, dsts)
        for k in range(6):
            op, payload = replies[10 + k]
            assert op == wire.OP_ROUTE_R
            assert wire.decode_route_reply(payload) == want[k]
        op, payload = replies[1]
        assert op == wire.OP_BLOCK_R
        got = wire.decode_block_reply(payload)
        assert [wire.RouteReply(got.epoch, int(got.status[k]),
                                int(got.condition[k]), int(got.hops[k]),
                                int(got.hamming[k]))
                for k in range(len(got))] == want[6:]
        assert replies[2] == (wire.OP_EPOCH_R, wire._EPOCH_R.pack(1, 3))

    @pytest.mark.parametrize("garbage", [
        bytes(wire.HEADER.size),        # a whole header, bad magic
        b"\x00\x01\x02",                # less than a header
        b"GET / HTTP/1.1\r\n\r\n",       # a line where a frame should be
        wire.HEADER.pack(wire.MAGIC, wire.OP_BLOCK, wire.MAX_PAYLOAD + 1, 9),
    ], ids=["bad-magic", "short", "text", "oversized"])
    def test_a_run_followed_by_garbage_is_answered_before_close(
            self, garbage):
        srcs, dsts = _workload(10, seed=12)
        run = b"".join(_route_frames(srcs, dsts))
        sink = asyncio.run(_serve_chunks([run + garbage]))
        assert sink.before_close == len(sink.data)
        replies = asyncio.run(_frames_of(sink.data))
        assert {k: wire.decode_route_reply(payload)
                for k, (_, payload) in replies.items()} == \
            dict(enumerate(_offline_replies(srcs, dsts)))
