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

import numpy as np
import pytest

from repro.core import FaultSet, Hypercube
from repro.routing.batch import route_unicast_batch
from repro.safety.levels import compute_safety_levels
from repro.service import ShardRouter, WireClient, WireError
from repro.service import wire
from repro.service.server import serve_forever
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
