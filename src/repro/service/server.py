"""TCP front-end for the routing service: binary frames + line compat.

``repro serve`` binds this server in front of one
:class:`~repro.service.shard.ShardRouter`.  A single-cube server is a
one-shard router holding one tenant, ``default``, and every session
starts bound to it; a multi-tenant server starts sessions unbound.
Each connection's protocol is auto-detected from its **first byte**:

* ``0xAB`` (the frame magic) — the length-prefixed binary protocol of
  :mod:`repro.service.wire`: pipelined request/reply frames matched by
  ``req_id``, block routing, structured error frames.  Consecutive
  ``ROUTE`` frames form a *run*: it closes when the session would wait
  for more bytes, at the first frame of another op, or at EOF, and goes
  to the router as one block — one batcher entry, one epoch — whose
  replies leave in one write; admission still weighs each frame alone,
  so the frames past a tenant's budget are shed one by one.  A run of
  one frame is a one-row entry, so lone frames from many connections
  still meet in the batcher's window.  Every other frame is dispatched
  as its own task, so a pipelined client's blocks and runs land in the
  micro-batcher *concurrently*.
* anything else — the original line protocol, one request per line, one
  JSON object per response line, so load generators and humans
  (``nc localhost 7429``) keep working unchanged:

  ``<src> <dst>``
      Route a unicast; the reply is the
      :meth:`~repro.service.service.ServiceResponse.to_dict` JSON.
  ``tenant <name>``
      Bind the connection to a registered tenant.
  ``fault add <node> [<node> ...]`` / ``fault remove <node> ...``
      Inject a fault event; replies with the epoch-swap summary.
  ``epoch``
      The current epoch number and fault count.
  ``quit``
      Close this connection (the service keeps running).

Both protocols are codecs over one executor, :func:`_execute`: a binary
frame decodes to ``(op, args)`` with :mod:`~repro.service.wire`, a line
parses to the same ``(op, args)``, and each renders the executor's
result in its own format.  A run of ROUTE frames is the one exception:
it goes to ``route_block`` and is rendered per frame from the block's
reply rows.
Errors go through one table too, :func:`_error_of`: malformed input, an
unknown op, an unknown tenant, or a dispatch failure is answered with an
error frame (binary) or an ``{"error": ..., "code": ...}`` line (text)
carrying the same code, **and the connection stays alive** — only a
framing desync (garbage where a frame header should be) or EOF closes a
session, because after a desync there is no boundary left to resume
from.

Concurrent connections share one router, so their requests micro-batch
together — the whole point of fronting the batcher with a socket.
"""

from __future__ import annotations

import asyncio
import json
from typing import List, Optional, Tuple

from . import wire
from ..obs.instruments import record_wire_frame
from .batcher import check_endpoints
from .shard import OverloadError, ShardDownError, ShardRetryError, \
    ShardRouter, TenantMovedError, UnknownTenantError

__all__ = ["serve_forever", "handle_connection"]

#: Exceptions that carry their own wire ``code``.
_CODED = (wire.WireError, UnknownTenantError, TenantMovedError,
          ShardRetryError, OverloadError, ShardDownError)


def _error_of(exc: Exception) -> Tuple[int, str]:
    """The one exception -> ``(wire code, message)`` table."""
    if isinstance(exc, _CODED):
        return exc.code, getattr(exc, "message", None) or str(exc)
    if isinstance(exc, (ValueError, KeyError, IndexError,
                        UnicodeDecodeError)):
        return wire.E_BAD_REQUEST, str(exc) or "bad request"
    return wire.E_INTERNAL, f"{type(exc).__name__}: {exc}"


def _tenant(session: dict) -> str:
    tenant = session["tenant"]
    if tenant is None:
        raise wire.WireError(
            wire.E_NO_TENANT,
            "multi-tenant server: send a TENANT frame (or 'tenant <name>' "
            "line) before routing")
    return tenant


async def _execute(router: ShardRouter, session: dict, op: int,
                   args: tuple):
    """Run one decoded request against the router; returns its result.

    Data ops go straight to the router, which resolves the tenant,
    admits the rows and translates shard failures; ``TENANT`` and
    ``EPOCH`` read the tenant's current epoch view.
    """
    if op == wire.OP_ROUTE:
        return await router.route(_tenant(session), *args)
    if op == wire.OP_BLOCK:
        return await router.route_block(_tenant(session), *args)
    if op == wire.OP_FAULT:
        add, remove = args
        return await router.inject_faults(
            _tenant(session), add=[int(v) for v in add],
            remove=[int(v) for v in remove])
    if op == wire.OP_TENANT:
        view = router.service_of(args[0]).epochs.current
        session["tenant"] = args[0]
        return view
    if op == wire.OP_EPOCH:
        return router.service_of(_tenant(session)).epochs.current
    raise wire.WireError(wire.E_UNKNOWN_OP, f"unknown op code 0x{op:02x}")


# -- binary sessions ---------------------------------------------------------


async def _dispatch_frame(
    router: ShardRouter,
    session: dict,
    op: int,
    payload: bytes,
) -> tuple:
    """Decode one non-ROUTE request frame, execute it, and encode the
    reply; returns ``(reply_op, reply_payload)``."""
    if op == wire.OP_BLOCK:
        block = await _execute(router, session, op,
                               wire.decode_block(payload))
        return wire.OP_BLOCK_R, wire.encode_block_reply(
            block.epoch, block.status, block.condition, block.hops,
            block.hamming)
    if op == wire.OP_FAULT:
        swap = await _execute(router, session, op,
                              wire.decode_fault(payload))
        return wire.OP_FAULT_R, wire.encode_fault_reply(
            swap.epoch, swap.stats.added, swap.stats.removed, swap.spare,
            swap.publish_us, swap.flip_us)
    if op == wire.OP_TENANT:
        view = await _execute(router, session, op,
                              (payload.decode("utf-8", "strict"),))
        return wire.OP_TENANT_R, wire._TENANT_R.pack(view.epoch, view.n)
    view = await _execute(router, session, op, ())  # unknown ops raise
    return wire.OP_EPOCH_R, wire._EPOCH_R.pack(
        view.epoch, len(view.faults.nodes))


async def _send(writer: asyncio.StreamWriter, write_lock: asyncio.Lock,
                data: bytes) -> None:
    async with write_lock:
        try:
            writer.write(data)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _run_frame(
    router: ShardRouter,
    session: dict,
    op: int,
    req_id: int,
    payload: bytes,
    writer: asyncio.StreamWriter,
    write_lock: asyncio.Lock,
) -> None:
    """One frame's full lifecycle: dispatch, frame the reply, send it.

    Every failure mode maps to an ERROR frame with the request's
    ``req_id`` — the session survives, and the client's matching call
    raises a typed :class:`~repro.service.wire.WireError`.
    """
    error = False
    try:
        reply_op, reply = await _dispatch_frame(router, session, op, payload)
    except Exception as exc:  # dispatch must never kill the session
        error = True
        reply_op, reply = wire.OP_ERROR, wire.encode_error(*_error_of(exc))
    record_wire_frame(op, len(payload), error=error)
    await _send(writer, write_lock, wire.encode_frame(reply_op, req_id, reply))


async def _answer_run(
    router: ShardRouter,
    session: dict,
    run: List[Tuple[int, bytes]],
    writer: asyncio.StreamWriter,
    write_lock: asyncio.Lock,
) -> None:
    """Route a run of ``(req_id, payload)`` ROUTE frames and send every
    frame's reply in one write.

    The tenant is read when this task first runs, as a frame's own task
    reads it: tasks start in the order they were created, so a ``TENANT``
    frame read after the run's last frame has not rebound the session
    yet, and one read before its first frame has.  A frame that does not
    decode, or names a node outside int64, is refused alone.  Admission
    control weighs each frame as its own request: the frames within the
    tenant's budget are routed and each one past it gets ``E_OVERLOAD``.
    Any other failure in the router answers every frame with its own
    ERROR frame.
    """
    out, ids, srcs, dsts = [], [], [], []
    for req_id, payload in run:
        try:
            src, dst = wire.decode_route(payload)
            check_endpoints(src, dst)
        except (wire.WireError, ValueError) as exc:
            record_wire_frame(wire.OP_ROUTE, len(payload), error=True)
            out.append(wire.encode_frame(wire.OP_ERROR, req_id,
                                         wire.encode_error(*_error_of(exc))))
        else:
            ids.append(req_id)
            srcs.append(src)
            dsts.append(dst)
    if ids:
        refusal = None
        try:
            tenant = _tenant(session)
            block = await router.route_block(tenant, srcs, dsts,
                                             singles=True)
            rows = block.replies()
        except Exception as exc:  # dispatch must never kill the session
            rows, refusal = [], exc
        out += [wire.encode_frame(wire.OP_ROUTE_R, req_id,
                                  wire.encode_route_reply(*row))
                for req_id, row in zip(ids, rows)]
        if len(rows) < len(ids):
            # no router error: the frames past the budget were shed
            refusal = refusal or OverloadError(
                f"tenant {tenant!r} over its admission budget; shed")
            error = wire.encode_error(*_error_of(refusal))
            out += [wire.encode_frame(wire.OP_ERROR, req_id, error)
                    for req_id in ids[len(rows):]]
        for k in range(len(ids)):
            record_wire_frame(wire.OP_ROUTE, wire._ROUTE.size,
                              error=k >= len(rows))
    await _send(writer, write_lock, b"".join(out))


class _Unread:
    """A connection's reader with bytes already read put back in front:
    the sniffed first byte goes back so :func:`wire.read_frame` reads
    the session's first frame like every other."""

    def __init__(self, prefix: bytes, reader: asyncio.StreamReader) -> None:
        self._prefix = prefix
        self._reader = reader

    async def readexactly(self, n: int) -> bytes:
        head, self._prefix = self._prefix[:n], self._prefix[n:]
        try:
            return head + await self._reader.readexactly(n - len(head))
        except asyncio.IncompleteReadError as exc:
            raise asyncio.IncompleteReadError(head + exc.partial,
                                              n) from None


async def _binary_session(
    router: ShardRouter,
    session: dict,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    first_byte: bytes,
) -> None:
    """Serve one binary connection; ``first_byte`` is the peeked magic.

    ROUTE frames join the open run; the run closes at the first frame of
    another op, at EOF, or — through a ``call_soon`` set when it opens —
    once this task waits for bytes, i.e. when every frame already
    buffered has joined it.
    """
    loop = asyncio.get_running_loop()
    write_lock = asyncio.Lock()
    tasks: set = set()
    run: List[Tuple[int, bytes]] = []
    closer: Optional[asyncio.Handle] = None

    def spawn(coro) -> None:
        task = loop.create_task(coro)
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    def close_run() -> None:
        nonlocal run, closer
        if closer is not None:
            closer.cancel()
            closer = None
        if run:
            spawn(_answer_run(router, session, run, writer, write_lock))
            run = []

    source = _Unread(first_byte, reader)
    try:
        while True:
            try:
                frame = await wire.read_frame(source)
            except wire.WireError:
                break  # framing desync: nothing to resume from
            if frame is None:
                break
            source = reader
            op, req_id, payload = frame
            if op == wire.OP_ROUTE:
                if closer is None:
                    closer = loop.call_soon(close_run)
                run.append((req_id, payload))
            else:
                close_run()
                spawn(_run_frame(router, session, op, req_id, payload,
                                 writer, write_lock))
    finally:
        close_run()
        if tasks:
            await asyncio.gather(*tuple(tasks), return_exceptions=True)


# -- line sessions (compat) --------------------------------------------------


def _parse_line(text: str) -> Tuple[int, tuple]:
    """One text request -> the ``(op, args)`` a binary frame decodes to."""
    parts = text.split()
    if parts[0] == "tenant":
        return wire.OP_TENANT, (parts[1],)
    if parts[0] == "epoch":
        return wire.OP_EPOCH, ()
    if parts[0] == "fault":
        nodes = [int(v) for v in parts[2:]]
        if parts[1] == "add":
            return wire.OP_FAULT, (nodes, ())
        if parts[1] == "remove":
            return wire.OP_FAULT, ((), nodes)
        raise ValueError(f"unknown fault action {parts[1]!r}")
    return wire.OP_ROUTE, (int(parts[0]), int(parts[1]))


def _render_line(op: int, args: tuple, result) -> dict:
    """The JSON reply for one executed text request."""
    if op == wire.OP_ROUTE:
        return result.to_dict()
    if op == wire.OP_TENANT:
        return {"tenant": args[0], "epoch": result.epoch, "n": result.n}
    if op == wire.OP_EPOCH:
        return {"epoch": result.epoch, "faults": len(result.faults.nodes)}
    return {"epoch": result.epoch,
            "rounds": result.stats.rounds,
            "messages": result.stats.messages,
            "dirty_seed": result.stats.dirty_seed,
            "fallback": result.stats.fallback,
            "publish_us": result.publish_us,
            "flip_us": result.flip_us,
            "spare": result.spare}


async def _line_session(
    router: ShardRouter,
    session: dict,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    first_byte: bytes,
) -> None:
    """Serve one line-protocol connection (the pre-wire compat path)."""
    carried = first_byte
    while True:
        try:
            line = await reader.readline()
        except ValueError as exc:
            # Over the reader's limit: asyncio has dropped the chunk, so
            # answer it and read on from the next line.
            carried = b""
            reply = {"error": f"line too long: {exc}",
                     "code": wire.E_BAD_REQUEST}
        else:
            if carried:
                line, carried = carried + line, b""
            if not line:
                break
            text = line.decode("utf-8", "replace").strip()
            if not text:
                continue
            if text.split()[0] == "quit":
                break
            try:
                op, args = _parse_line(text)
                reply = _render_line(
                    op, args, await _execute(router, session, op, args))
            except Exception as exc:  # answer, never kill the session
                code, message = _error_of(exc)
                reply = {"error": message, "code": code, "input": text}
        writer.write((json.dumps(reply) + "\n").encode())
        await writer.drain()


# -- connection entry --------------------------------------------------------


async def handle_connection(
    router: ShardRouter,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    *,
    tenant: Optional[str] = None,
) -> None:
    """One client session: sniff the protocol from byte one, then serve.

    ``tenant`` is the session's initial binding (``None``: the client
    must bind one before routing).
    """
    session = {"tenant": tenant}
    try:
        first = await reader.read(1)
        if not first:
            return
        if first[0] == wire.MAGIC:
            await _binary_session(router, session, reader, writer, first)
        else:
            await _line_session(router, session, reader, writer, first)
    except (ConnectionResetError, BrokenPipeError,
            asyncio.IncompleteReadError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def serve_forever(
    router: ShardRouter,
    host: str = "127.0.0.1",
    port: int = 7429,
    ready: Optional[asyncio.Event] = None,
    duration_s: Optional[float] = None,
    *,
    tenant: Optional[str] = None,
) -> None:
    """Bind and serve until cancelled (or ``duration_s`` elapses).

    ``tenant`` binds every new session to that tenant up front.
    """
    server = await asyncio.start_server(
        lambda r, w: handle_connection(router, r, w, tenant=tenant),
        host, port)
    if ready is not None:
        ready.set()
    async with server:
        if duration_s is None:
            await server.serve_forever()
        else:
            try:
                await asyncio.wait_for(server.serve_forever(), duration_s)
            except asyncio.TimeoutError:
                pass
