"""Length-prefixed binary RPC framing for the routing service.

The line protocol (:mod:`repro.service.server`) costs a JSON encode, a
UTF-8 decode, and a Python dict per route — fine for humans on ``nc``,
hopeless for a pipelined load generator.  This module defines the binary
wire format both the server and :class:`WireClient` speak, built for
three properties:

* **Pipelining.**  Every request carries a 64-bit ``req_id`` the server
  echoes in the matching reply, so a client keeps any number of requests
  in flight on one connection and matches replies out of order — no
  request/response lockstep, no head-of-line blocking on the client.
* **Batching on the wire.**  The ``BLOCK`` op ships a whole vector of
  route pairs as two int64 columns in one frame, answered by one
  columnar reply frame — the service routes it as a single batcher entry
  (one future, one kernel call), so per-route overhead amortizes at
  every layer from socket to kernel.
* **Cheap framing.**  A fixed 14-byte header (struct-packed, network
  order) with an explicit payload length: framing is two reads, no
  scanning, no escaping.

Frame layout::

    offset  size  field
    0       1     magic (0xAB — also the protocol-detection byte)
    1       1     op code
    2       4     payload length (uint32, network order)
    6       8     req_id (uint64, echoed verbatim in the reply)
    14      ...   payload (op-specific, see the tables in DESIGN.md §8)

Array columns inside payloads are little-endian numpy dtypes (``<i8``,
``u1``, ``<u2``) — explicit, so the format is byte-defined even on
big-endian hosts.  Scalar fields are network order via :mod:`struct`.

A server answers any malformed or failed frame with an ``ERROR`` frame
carrying the request's ``req_id``, a structured error code, and a
message — the connection stays alive (satellite requirement: bad input
must never kill the session).  Only an unsynchronizable stream (wrong
magic byte mid-stream) closes the connection, because after a framing
desync there is no boundary to resume from.
"""

from __future__ import annotations

import asyncio
import itertools
import struct
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "MAGIC", "HEADER", "MAX_PAYLOAD",
    "OP_TENANT", "OP_ROUTE", "OP_BLOCK", "OP_FAULT", "OP_EPOCH",
    "OP_TENANT_R", "OP_ROUTE_R", "OP_BLOCK_R", "OP_FAULT_R", "OP_EPOCH_R",
    "OP_ERROR",
    "E_BAD_FRAME", "E_UNKNOWN_OP", "E_BAD_REQUEST", "E_UNKNOWN_TENANT",
    "E_SHARD_DOWN", "E_NO_TENANT", "E_INTERNAL",
    "E_RETRY", "E_MOVED", "E_OVERLOAD", "RETRYABLE_CODES",
    "WireError", "RouteReply", "BlockReply", "FaultReply",
    "encode_frame", "frame_size", "read_frame",
    "encode_route", "decode_route", "encode_block", "decode_block",
    "encode_fault", "decode_fault",
    "encode_route_reply", "decode_route_reply",
    "encode_block_reply", "decode_block_reply",
    "encode_fault_reply", "decode_fault_reply",
    "encode_error", "decode_error",
    "WireClient",
]

#: First byte of every binary frame; the server peeks one byte to pick
#: binary vs line protocol, so MAGIC must never be valid leading UTF-8
#: for a line request (0xAB is a continuation byte — it is not).
MAGIC = 0xAB

#: magic, op, payload_len, req_id.
HEADER = struct.Struct("!BBIQ")

#: Refuse absurd frames before allocating for them (16 MiB ≈ a 1M-route
#: block; far beyond any sane batch).
MAX_PAYLOAD = 16 * 1024 * 1024

# -- op codes (requests 0x01-0x7F, replies 0x80-0xFE, error 0xFF) -----------

OP_TENANT = 0x01   # bind this connection to a tenant (utf-8 name payload)
OP_ROUTE = 0x02    # one route: !QQ src, dst
OP_BLOCK = 0x03    # route vector: !I count + <i8 srcs + <i8 dsts
OP_FAULT = 0x04    # fault event: !II n_add, n_remove + <i8 add + <i8 remove
OP_EPOCH = 0x05    # current epoch: empty payload

OP_TENANT_R = 0x81  # !QB epoch, dimension
OP_ROUTE_R = 0x82   # !QBBHH epoch, status, condition, hops, hamming
OP_BLOCK_R = 0x83   # !QI epoch, count + u1 status + u1 cond + <u2 hops + <u2 ham
OP_FAULT_R = 0x84   # !QIIBQQ epoch, added, removed, spare, publish_us, flip_us
OP_EPOCH_R = 0x85   # !QI epoch, faults
OP_ERROR = 0xFF     # !H code + utf-8 message

# -- structured error codes --------------------------------------------------

E_BAD_FRAME = 1       # header/payload failed to parse
E_UNKNOWN_OP = 2      # op code this server does not speak
E_BAD_REQUEST = 3     # well-framed but semantically invalid
E_UNKNOWN_TENANT = 4  # tenant not registered with the shard router
E_SHARD_DOWN = 5      # tenant's shard was killed (terminal: no failover)
E_NO_TENANT = 6       # route before OP_TENANT on a multi-tenant server
E_INTERNAL = 7        # dispatch raised something unexpected
E_RETRY = 8           # transient (failover in flight): back off and retry
E_MOVED = 9           # tenant re-placed mid-request: re-resolve, retry now
E_OVERLOAD = 10       # admission control shed the request: back off, retry

#: Codes a client may safely retry.  Routing is pure per epoch — a
#: replayed request cannot double-apply anything — so retry semantics
#: are a property of the *code*, not the op.  ``E_MOVED`` needs no
#: backoff (the tenant is already live elsewhere); the others do.
RETRYABLE_CODES = frozenset({E_RETRY, E_MOVED, E_OVERLOAD})

_ROUTE = struct.Struct("!QQ")
_ROUTE_R = struct.Struct("!QBBHH")
_BLOCK_HDR = struct.Struct("!I")
_BLOCK_R_HDR = struct.Struct("!QI")
_FAULT_HDR = struct.Struct("!II")
_FAULT_R = struct.Struct("!QIIBQQ")
_ERROR_HDR = struct.Struct("!H")
_TENANT_R = struct.Struct("!QB")
_EPOCH_R = struct.Struct("!QI")


class WireError(RuntimeError):
    """A structured ERROR frame, surfaced client-side as an exception."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(f"[wire error {code}] {message}")
        self.code = code
        self.message = message


@dataclass(frozen=True)
class RouteReply:
    epoch: int
    status: int      # kernel status code, or REJECTED_CODE (255)
    condition: int
    hops: int
    hamming: int


@dataclass(frozen=True)
class BlockReply:
    epoch: int
    status: np.ndarray     # uint8
    condition: np.ndarray  # uint8
    hops: np.ndarray       # int64 (shipped as <u2)
    hamming: np.ndarray

    def __len__(self) -> int:
        return len(self.status)


@dataclass(frozen=True)
class FaultReply:
    epoch: int
    added: int
    removed: int
    spare: bool
    publish_us: int
    flip_us: int


# -- framing -----------------------------------------------------------------


def encode_frame(op: int, req_id: int, payload: bytes = b"") -> bytes:
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(f"payload of {len(payload)} bytes exceeds the "
                         f"{MAX_PAYLOAD}-byte frame limit")
    return HEADER.pack(MAGIC, op, len(payload), req_id) + payload


def frame_size(buffer: bytes, offset: int = 0) -> Optional[int]:
    """Bytes in the frame whose header starts at ``buffer[offset]``,
    header included; ``None`` while the header itself is incomplete.

    The size is read from the header's length field alone: a bad magic
    byte or an oversized length is :func:`read_frame`'s to refuse.
    """
    if len(buffer) - offset < HEADER.size:
        return None
    _magic, _op, length, _req_id = HEADER.unpack_from(buffer, offset)
    return HEADER.size + length


async def read_frame(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[int, int, bytes]]:
    """Read one ``(op, req_id, payload)`` frame; ``None`` on clean EOF.

    Raises :class:`WireError` (``E_BAD_FRAME``) on a bad magic byte or an
    oversized payload — both framing desyncs the caller must treat as
    fatal for the connection.
    """
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireError(E_BAD_FRAME,
                        f"truncated header ({len(exc.partial)} bytes)")
    magic, op, length, req_id = HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(E_BAD_FRAME, f"bad magic byte 0x{magic:02x}")
    if length > MAX_PAYLOAD:
        raise WireError(E_BAD_FRAME, f"payload length {length} exceeds "
                        f"the {MAX_PAYLOAD}-byte limit")
    try:
        payload = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise WireError(E_BAD_FRAME, "truncated payload")
    return op, req_id, payload


# -- per-op payload codecs ---------------------------------------------------


def encode_route(src: int, dst: int) -> bytes:
    return _ROUTE.pack(src, dst)


def decode_route(payload: bytes) -> Tuple[int, int]:
    if len(payload) != _ROUTE.size:
        raise WireError(E_BAD_REQUEST,
                        f"ROUTE payload must be {_ROUTE.size} bytes, "
                        f"got {len(payload)}")
    return _ROUTE.unpack(payload)


def encode_block(srcs: np.ndarray, dsts: np.ndarray) -> bytes:
    srcs = np.ascontiguousarray(np.asarray(srcs).ravel(), dtype="<i8")
    dsts = np.ascontiguousarray(np.asarray(dsts).ravel(), dtype="<i8")
    if len(srcs) != len(dsts):
        raise ValueError(f"column lengths differ: {len(srcs)} vs {len(dsts)}")
    if len(srcs) == 0:
        raise ValueError("empty block")
    return _BLOCK_HDR.pack(len(srcs)) + srcs.tobytes() + dsts.tobytes()


def decode_block(payload: bytes) -> Tuple[np.ndarray, np.ndarray]:
    if len(payload) < _BLOCK_HDR.size:
        raise WireError(E_BAD_REQUEST, "BLOCK payload shorter than header")
    (count,) = _BLOCK_HDR.unpack_from(payload)
    expect = _BLOCK_HDR.size + 16 * count
    if count == 0 or len(payload) != expect:
        raise WireError(E_BAD_REQUEST,
                        f"BLOCK of {count} routes must be {expect} bytes, "
                        f"got {len(payload)}")
    srcs = np.frombuffer(payload, dtype="<i8", count=count,
                         offset=_BLOCK_HDR.size).astype(np.int64)
    dsts = np.frombuffer(payload, dtype="<i8", count=count,
                         offset=_BLOCK_HDR.size + 8 * count).astype(np.int64)
    return srcs, dsts


def encode_fault(add: Sequence[int] = (), remove: Sequence[int] = ()) -> bytes:
    add_arr = np.ascontiguousarray(np.asarray(list(add), dtype="<i8"))
    rem_arr = np.ascontiguousarray(np.asarray(list(remove), dtype="<i8"))
    return (_FAULT_HDR.pack(len(add_arr), len(rem_arr))
            + add_arr.tobytes() + rem_arr.tobytes())


def decode_fault(payload: bytes) -> Tuple[np.ndarray, np.ndarray]:
    if len(payload) < _FAULT_HDR.size:
        raise WireError(E_BAD_REQUEST, "FAULT payload shorter than header")
    n_add, n_rem = _FAULT_HDR.unpack_from(payload)
    expect = _FAULT_HDR.size + 8 * (n_add + n_rem)
    if len(payload) != expect:
        raise WireError(E_BAD_REQUEST,
                        f"FAULT of {n_add}+{n_rem} nodes must be "
                        f"{expect} bytes, got {len(payload)}")
    add = np.frombuffer(payload, dtype="<i8", count=n_add,
                        offset=_FAULT_HDR.size).astype(np.int64)
    rem = np.frombuffer(payload, dtype="<i8", count=n_rem,
                        offset=_FAULT_HDR.size + 8 * n_add).astype(np.int64)
    return add, rem


def encode_route_reply(epoch: int, status: int, condition: int,
                       hops: int, hamming: int) -> bytes:
    return _ROUTE_R.pack(epoch, status, condition, hops, hamming)


def decode_route_reply(payload: bytes) -> RouteReply:
    epoch, status, condition, hops, hamming = _ROUTE_R.unpack(payload)
    return RouteReply(epoch=epoch, status=status, condition=condition,
                      hops=hops, hamming=hamming)


def encode_block_reply(epoch: int, status: np.ndarray,
                       condition: np.ndarray, hops: np.ndarray,
                       hamming: np.ndarray) -> bytes:
    count = len(status)
    return (
        _BLOCK_R_HDR.pack(epoch, count)
        + np.ascontiguousarray(status, dtype="u1").tobytes()
        + np.ascontiguousarray(condition, dtype="u1").tobytes()
        + np.ascontiguousarray(hops, dtype="<u2").tobytes()
        + np.ascontiguousarray(hamming, dtype="<u2").tobytes()
    )


def decode_block_reply(payload: bytes) -> BlockReply:
    epoch, count = _BLOCK_R_HDR.unpack_from(payload)
    off = _BLOCK_R_HDR.size
    expect = off + count * (1 + 1 + 2 + 2)
    if len(payload) != expect:
        raise WireError(E_BAD_FRAME,
                        f"BLOCK reply of {count} routes must be "
                        f"{expect} bytes, got {len(payload)}")
    status = np.frombuffer(payload, dtype="u1", count=count, offset=off)
    condition = np.frombuffer(payload, dtype="u1", count=count,
                              offset=off + count)
    hops = np.frombuffer(payload, dtype="<u2", count=count,
                         offset=off + 2 * count).astype(np.int64)
    hamming = np.frombuffer(payload, dtype="<u2", count=count,
                            offset=off + 4 * count).astype(np.int64)
    return BlockReply(epoch=epoch, status=status.copy(),
                      condition=condition.copy(), hops=hops, hamming=hamming)


def encode_fault_reply(epoch: int, added: int, removed: int, spare: bool,
                       publish_us: int, flip_us: int) -> bytes:
    return _FAULT_R.pack(epoch, added, removed, int(spare),
                         publish_us, flip_us)


def decode_fault_reply(payload: bytes) -> FaultReply:
    epoch, added, removed, spare, publish_us, flip_us = \
        _FAULT_R.unpack(payload)
    return FaultReply(epoch=epoch, added=added, removed=removed,
                      spare=bool(spare), publish_us=publish_us,
                      flip_us=flip_us)


def encode_error(code: int, message: str) -> bytes:
    return _ERROR_HDR.pack(code) + message.encode("utf-8", "replace")


def decode_error(payload: bytes) -> WireError:
    (code,) = _ERROR_HDR.unpack_from(payload)
    return WireError(code, payload[_ERROR_HDR.size:].decode("utf-8",
                                                            "replace"))


# -- client ------------------------------------------------------------------


class WireClient:
    """Pipelined binary-protocol client (asyncio).

    Any number of requests may be outstanding at once; a background
    reader task matches replies to callers by ``req_id``.  ERROR frames
    resolve the matching caller with :class:`WireError` — one request's
    failure never disturbs its neighbors on the connection.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: Dict[int, asyncio.Future] = {}
        self._req_ids = itertools.count(1)
        self._closed = False
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "WireClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    break
                op, req_id, payload = frame
                fut = self._pending.pop(req_id, None)
                if fut is None or fut.done():
                    continue
                if op == OP_ERROR:
                    fut.set_exception(decode_error(payload))
                else:
                    fut.set_result((op, payload))
        except (WireError, ConnectionResetError, asyncio.CancelledError) as exc:
            self._fail_pending(exc if isinstance(exc, Exception)
                               else ConnectionError("connection closed"))
            return
        self._fail_pending(ConnectionError("server closed the connection"))

    def _fail_pending(self, exc: Exception) -> None:
        pending, self._pending = self._pending, {}
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(exc)

    async def _call(self, op: int, payload: bytes,
                    expect: int) -> bytes:
        if self._closed:
            raise RuntimeError("client is closed")
        req_id = next(self._req_ids)
        fut = asyncio.get_running_loop().create_future()
        self._pending[req_id] = fut
        self._writer.write(encode_frame(op, req_id, payload))
        await self._writer.drain()
        reply_op, reply = await fut
        if reply_op != expect:
            raise WireError(E_BAD_FRAME,
                            f"expected reply op 0x{expect:02x}, "
                            f"got 0x{reply_op:02x}")
        return reply

    # -- the RPC surface -----------------------------------------------------

    async def set_tenant(self, name: str) -> Tuple[int, int]:
        """Bind the connection to a tenant; returns (epoch, dimension)."""
        reply = await self._call(OP_TENANT, name.encode("utf-8"),
                                 OP_TENANT_R)
        return _TENANT_R.unpack(reply)

    async def route(self, src: int, dst: int) -> RouteReply:
        reply = await self._call(OP_ROUTE, encode_route(src, dst),
                                 OP_ROUTE_R)
        return decode_route_reply(reply)

    async def route_block(self, srcs: np.ndarray,
                          dsts: np.ndarray) -> BlockReply:
        reply = await self._call(OP_BLOCK, encode_block(srcs, dsts),
                                 OP_BLOCK_R)
        return decode_block_reply(reply)

    async def inject_faults(self, add: Sequence[int] = (),
                            remove: Sequence[int] = ()) -> FaultReply:
        reply = await self._call(OP_FAULT, encode_fault(add, remove),
                                 OP_FAULT_R)
        return decode_fault_reply(reply)

    async def epoch(self) -> Tuple[int, int]:
        """Current (epoch, fault count) for the bound tenant."""
        reply = await self._call(OP_EPOCH, b"", OP_EPOCH_R)
        return _EPOCH_R.unpack(reply)

    async def close(self) -> None:
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "WireClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
