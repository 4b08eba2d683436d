"""TCP front-end for the routing service: binary frames + line compat.

``repro serve`` binds this server in front of one
:class:`~repro.service.shard.ShardRouter`.  A single-cube server is a
one-shard router holding one tenant, ``default``, and every session
starts bound to it; a multi-tenant server starts sessions unbound.
Each connection's protocol is auto-detected from its **first byte**:

* ``0xAB`` (the frame magic) — the length-prefixed binary protocol of
  :mod:`repro.service.wire`: pipelined request/reply frames matched by
  ``req_id``, block routing, structured error frames.  Every frame is
  dispatched as its own task, so a pipelined client's requests land in
  the micro-batcher *concurrently* — which is what lets one connection
  fill whole kernel batches.
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
result in its own format.  Errors go through one table too,
:func:`_error_of`: malformed input, an unknown op, an unknown tenant, or
a dispatch failure is answered with an error frame (binary) or an
``{"error": ..., "code": ...}`` line (text) carrying the same code, **and
the connection stays alive** — only a framing desync (garbage where a
frame header should be) or EOF closes a session, because after a desync
there is no boundary left to resume from.

Concurrent connections share one router, so their requests micro-batch
together — the whole point of fronting the batcher with a socket.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Tuple

from . import wire
from ..obs.instruments import record_wire_frame
from ..routing.batch import _CONDITION_BY_CODE, _STATUS_BY_CODE
from .service import REJECTED, REJECTED_CODE
from .shard import OverloadError, ShardDownError, ShardRetryError, \
    ShardRouter, TenantMovedError, UnknownTenantError

__all__ = ["serve_forever", "handle_connection"]

#: Response string -> wire code (scalar ROUTE replies re-encode the
#: materialized ServiceResponse; blocks ship codes straight through).
_STATUS_CODE = {s.value: i for i, s in enumerate(_STATUS_BY_CODE)}
_STATUS_CODE[REJECTED] = REJECTED_CODE
_CONDITION_CODE = {c.value: i for i, c in enumerate(_CONDITION_BY_CODE)}

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
    """Decode one request frame, execute it, and encode the reply;
    returns ``(reply_op, reply_payload)``."""
    if op == wire.OP_ROUTE:
        resp = await _execute(router, session, op, wire.decode_route(payload))
        return wire.OP_ROUTE_R, wire.encode_route_reply(
            resp.epoch, _STATUS_CODE[resp.status],
            _CONDITION_CODE[resp.condition], resp.hops, resp.hamming)
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
    async with write_lock:
        try:
            writer.write(wire.encode_frame(reply_op, req_id, reply))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _binary_session(
    router: ShardRouter,
    session: dict,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    first_header: bytes,
) -> None:
    """Serve one binary connection; ``first_header`` is the peeked magic."""
    write_lock = asyncio.Lock()
    tasks: set = set()
    pending: Optional[bytes] = first_header
    try:
        while True:
            if pending is not None:
                try:
                    header = pending + await reader.readexactly(
                        wire.HEADER.size - len(pending))
                except asyncio.IncompleteReadError:
                    break
                pending = None
                magic, op, length, req_id = wire.HEADER.unpack(header)
                if length > wire.MAX_PAYLOAD:
                    break  # desync-grade violation; close
                payload = await reader.readexactly(length) if length else b""
                frame = (op, req_id, payload)
            else:
                try:
                    frame = await wire.read_frame(reader)
                except wire.WireError:
                    break  # framing desync: nothing to resume from
                if frame is None:
                    break
            op, req_id, payload = frame
            task = asyncio.get_running_loop().create_task(
                _run_frame(router, session, op, req_id, payload, writer,
                           write_lock))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
    finally:
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
        return {"epoch": result.epoch, "faults": len(result.faults.nodes),
                "segment": result.segment}
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
