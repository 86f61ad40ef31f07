"""Online socket front end: asyncio TCP transport over the wire frames.

This is what turns the in-process :class:`~.dispatcher.HEServer` into
an actual online service.  The protocol is deliberately thin — every
payload is one of the existing serving frames (``RPRH`` hello /
``RPRA`` ack / ``RPRQ`` request / ``RPRS`` response, see
:mod:`repro.server.request`), carried over TCP with an outer ``u32``
little-endian length prefix per message (the inner frames are
self-describing but not self-delimiting on a byte stream):

.. code-block:: text

    u32 message_len | frame bytes         (both directions)

Serving is *pump-driven*: a :class:`~.pump.BatchPump` closes each batch
the moment its window, deadline or size cut is reached in wall-clock
time (woken by every submit) and pushes each response to its submitter's
connection as the dispatcher yields it — there is no ``drain()`` call
anywhere in the serving path, and results are bit-identical to the
in-process drain of the same frames.  Exactly one terminal status per
request survives the transport: responses completed while a session
client's socket is down are *parked* on its
:class:`~.sessions.ClientSession` and flushed when the client
reconnects with its :class:`~repro.core.serialize.SessionTicket`
(``RPRH`` hello carrying the ticket blob).  Anonymous (sessionless)
clients have nothing to resume into; their undelivered responses stay
queryable in-process and are counted, never silently lost.

Fault injection: the ``net.frame`` faultpoint fires per inbound
message — ``corrupt_frame``/``truncate_frame`` mutate the bytes before
parsing (the hardened decoders turn that into a typed error frame back
to the client), ``drop_connection`` closes the socket mid-stream (the
client reconnects and resumes).  A faulted frame never hangs a client
and never kills the server loop.

Telemetry: the ``repro_net_*`` / ``repro_pump_*`` series are pull views
of this server's live counters, registered once in ``start()`` — the
pump thread never writes to a metrics registry.

Scale-out posture: all per-client state is keyed on ``client_id``
(session affinity), so a consistent-hash router can sit in front of
multiple replicas — there is no process-global hidden state beyond the
:class:`~.dispatcher.ServerSession` the server already owns.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading
import time
from typing import Dict, List, Optional, Tuple

from .. import faults as _faults
from ..core.serialize import TicketError
from ..obs import metrics as obs_metrics
from .dispatcher import HEServer
from .pump import BatchPump, SimClock
from .request import (
    HELLO_MAGIC,
    MAX_FRAME_BYTES,
    REQUEST_MAGIC,
    FrameError,
    ServeResponse,
    SessionAck,
    SessionHello,
    _inject_wire_fault,
    decode_response,
    decode_session_ack,
    decode_session_hello,
    encode_response,
    encode_session_ack,
    encode_session_hello,
)

__all__ = ["SocketServer", "NetClient", "serve_in_background"]

_LEN = struct.Struct("<I")

_FP_NET = _faults.faultpoint(
    "net.frame",
    "corrupt/truncate one inbound socket message, or drop the connection",
)


def _transport_error(message: str, request_id: str = "") -> ServeResponse:
    """A typed ``error`` response for a message that never became a request."""
    return ServeResponse(request_id=request_id, ok=False, status="error",
                         error=message)


async def _read_message(reader: asyncio.StreamReader) -> Optional[bytes]:
    """One length-prefixed message; None on a clean (or torn) EOF."""
    try:
        head = await reader.readexactly(_LEN.size)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    (length,) = _LEN.unpack(head)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"oversized socket message: {length} bytes (cap {MAX_FRAME_BYTES})"
        )
    try:
        return await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None


class _Conn:
    """One live client connection (loop-thread writer + cross-thread send)."""

    def __init__(self, writer: asyncio.StreamWriter,
                 loop: asyncio.AbstractEventLoop):
        self.writer = writer
        self.loop = loop
        self.client_id = ""
        self.closed = False
        self.sent = 0

    def send(self, payload: bytes) -> None:
        """Write one message from the loop thread."""
        if self.closed or self.writer.is_closing():
            self.closed = True
            return
        try:
            self.writer.write(_LEN.pack(len(payload)) + payload)
            self.sent += 1
        except Exception:
            self.closed = True

    def send_threadsafe(self, payload: bytes) -> None:
        """Schedule a write from any thread (the pump's router)."""
        self.loop.call_soon_threadsafe(self.send, payload)


class SocketServer:
    """Asyncio TCP front end serving one :class:`HEServer` pump-driven.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  Responses are routed by request id to the
    submitting connection — or, for session clients, to whatever
    connection currently owns the ``client_id`` (reconnects re-bind) —
    and parked on the session when no connection is live.
    """

    def __init__(self, server: HEServer, *, host: str = "127.0.0.1",
                 port: int = 0, pump_ms: float = 5.0,
                 registry: Optional[obs_metrics.MetricsRegistry] = None):
        self.he = server
        self.host = host
        self.port = port
        self._registry = registry
        self.pump = BatchPump(server, pump_ms=pump_ms,
                              on_response=self._route,
                              after_tick=self._flush_parked)
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._lock = threading.Lock()
        #: client_id -> the connection currently bound to that session.
        self._links: Dict[str, _Conn] = {}
        #: request_id -> (client_id at submit, submitting connection).
        self._owner: Dict[str, Tuple[str, Optional[_Conn]]] = {}
        self._stats: Dict[str, int] = {
            "connections": 0, "peak_connections": 0, "frames_in": 0,
            "frames_out": 0, "frame_errors": 0, "dropped_connections": 0,
            "parked": 0, "undeliverable": 0,
        }

    def _bump(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self._stats[name] += delta
            if name == "connections":
                self._stats["peak_connections"] = max(
                    self._stats["peak_connections"],
                    self._stats["connections"])

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> "SocketServer":
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._serve_conn, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.register_metrics(self.registry)
        self.pump.start()
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        self.pump.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection protocol -------------------------------------------------------

    async def _serve_conn(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        conn = _Conn(writer, self._loop)
        self._bump("connections")
        try:
            while True:
                try:
                    msg = await _read_message(reader)
                except FrameError as exc:
                    self._bump("frame_errors")
                    conn.send(encode_response(_transport_error(str(exc))))
                    break
                if msg is None:
                    break
                event = _faults.check(_FP_NET, client=conn.client_id)
                if event is not None:
                    if event.mode == "drop_connection":
                        self._bump("dropped_connections")
                        break
                    msg = _inject_wire_fault(bytes(msg), event)
                self._bump("frames_in")
                magic = bytes(msg[:4])
                if magic == HELLO_MAGIC:
                    self._handle_hello(conn, msg)
                elif magic == REQUEST_MAGIC:
                    self._handle_request(conn, msg)
                else:
                    # Unknown/mutated magic: a typed error frame, never
                    # a hang and never a crashed reader.
                    self._bump("frame_errors")
                    conn.send(encode_response(_transport_error(
                        f"bad magic {magic!r}: not a serving frame")))
        finally:
            conn.closed = True
            with self._lock:
                self._stats["connections"] -= 1
                if conn.client_id and self._links.get(conn.client_id) is conn:
                    del self._links[conn.client_id]
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    def _handle_hello(self, conn: _Conn, msg: bytes) -> None:
        he = self.he
        try:
            hello = decode_session_hello(msg)
        except FrameError as exc:
            self._bump("frame_errors")
            conn.send(encode_session_ack(
                SessionAck(client_id="", ok=False, error=str(exc))))
            return
        if hello.ticket_wire is not None:
            # Reconnect-and-resume: the ticket must name a live session
            # for this client before the hello may rebind the link and
            # collect parked responses.
            try:
                sess = he.sessions.resume(hello.ticket_wire)
                if sess.client_id != hello.client_id:
                    raise TicketError(
                        f"ticket client {sess.client_id!r} does not match "
                        f"hello client {hello.client_id!r}")
            except TicketError as exc:
                conn.send(encode_session_ack(SessionAck(
                    client_id=hello.client_id, ok=False, error=str(exc))))
                return
            except Exception as exc:
                # Undecodable ticket bytes must not leak a parser
                # traceback to the wire — refuse like any bad ticket.
                conn.send(encode_session_ack(SessionAck(
                    client_id=hello.client_id, ok=False,
                    error=f"invalid session ticket: {type(exc).__name__}")))
                return
        ack_wire = he.handshake(hello)
        conn.send(ack_wire)
        if not decode_session_ack(ack_wire).ok:
            return
        with self._lock:
            conn.client_id = hello.client_id
            self._links[hello.client_id] = conn
        for frame in he.sessions.take_parked(hello.client_id):
            conn.send(frame)
            self._bump("frames_out")

    def _handle_request(self, conn: _Conn, msg: bytes) -> None:
        he = self.he
        now_us = self.pump.clock.now_us()
        try:
            rid = he.submit(msg, arrival_us=now_us)
        except FrameError as exc:
            self._bump("frame_errors")
            conn.send(encode_response(_transport_error(str(exc))))
            return
        except ValueError as exc:
            conn.send(encode_response(_transport_error(str(exc))))
            return
        with self._lock:
            self._owner[rid] = (conn.client_id, conn)
        # Sheds and eviction victims are terminal right now — push them
        # instead of making their clients wait for the next pump tick.
        for resp in he.take_fresh_terminal():
            self._route(resp)

    # -- response routing ----------------------------------------------------------

    def _route(self, resp: ServeResponse) -> None:
        """Deliver one terminal response (pump thread or loop thread)."""
        frame = encode_response(resp)
        with self._lock:
            cid, conn = self._owner.pop(resp.request_id, ("", None))
            if cid:
                live = self._links.get(cid)
                if live is not None and not live.closed:
                    conn = live
        if conn is None:
            return  # submitted in-process; queryable via he.response()
        if not conn.closed:
            conn.send_threadsafe(frame)
            self._bump("frames_out")
        elif cid and self.he.sessions.park(cid, frame):
            self._bump("parked")
        else:
            self._bump("undeliverable")

    def _flush_parked(self) -> None:
        """Push parked responses to clients whose link is live again.

        Normally the resume hello flushes; this per-tick sweep closes
        the race where a response parks concurrently with the resume.
        """
        with self._lock:
            live = {cid: conn for cid, conn in self._links.items()
                    if not conn.closed}
        for cid, conn in live.items():
            for frame in self.he.sessions.take_parked(cid):
                conn.send_threadsafe(frame)
                self._bump("frames_out")

    # -- telemetry -----------------------------------------------------------------

    @property
    def registry(self) -> obs_metrics.MetricsRegistry:
        return self._registry or obs_metrics.get_registry()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._stats)

    def register_metrics(self, registry: obs_metrics.MetricsRegistry) -> None:
        """Register the connection/pump series, and the served
        :class:`HEServer`, as pull views (idempotent)."""
        self.he.register_metrics(registry)
        registry.register_views(self, _NET_SERIES)


def _stat(key: str):
    return lambda net: net.stats()[key]


#: (name, help, ``SocketServer`` reader[, labels]) rows.
_NET_SERIES = (
    ("repro_net_connections", "Live TCP client connections.", _stat("connections")),
    ("repro_net_peak_connections", "Peak concurrent TCP client connections.",
     _stat("peak_connections")),
    ("repro_net_frames_total", "Socket messages by direction.", _stat("frames_in"),
     {"direction": "in"}),
    ("repro_net_frames_total", "", _stat("frames_out"), {"direction": "out"}),
    ("repro_net_frame_errors_total",
     "Inbound messages that failed to parse (typed error returned).", _stat("frame_errors")),
    ("repro_net_dropped_connections_total",
     "Connections closed by the injected drop_connection fault.", _stat("dropped_connections")),
    ("repro_net_parked_responses_total", "Responses parked for disconnected session clients.",
     _stat("parked")),
    ("repro_net_undeliverable_total",
     "Responses to anonymous clients that disconnected (kept in-process only).",
     _stat("undeliverable")),
    ("repro_pump_responses_total", "Responses routed by the batch pump.", "pump.responses"),
    ("repro_pump_period_ms", "Configured pump idle heartbeat.", "pump.pump_ms"),
)


class _LoopThread:
    """A dedicated asyncio event loop running on a daemon thread."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, name="net-loop",
                                       daemon=True)
        self.thread.start()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def call(self, coro, timeout: float = 30.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=5.0)
        if not self.loop.is_running():
            self.loop.close()


class _BackgroundServer:
    """Handle for a :class:`SocketServer` running on its own loop thread."""

    def __init__(self, server: SocketServer, loop_thread: _LoopThread):
        self.server = server
        self._loop_thread = loop_thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def stats(self) -> Dict[str, int]:
        return self.server.stats()

    def stop(self) -> None:
        try:
            self._loop_thread.call(self.server.aclose())
        finally:
            self._loop_thread.stop()

    def __enter__(self) -> "_BackgroundServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_background(server: HEServer, *, host: str = "127.0.0.1",
                        port: int = 0, pump_ms: float = 5.0,
                        registry: Optional[obs_metrics.MetricsRegistry] = None,
                        ) -> _BackgroundServer:
    """Start a :class:`SocketServer` on a dedicated event-loop thread.

    The synchronous entry point tests and the CLI use: returns once the
    socket is bound and the pump is running.  Stop with ``.stop()`` (or
    use as a context manager).
    """
    net = SocketServer(server, host=host, port=port, pump_ms=pump_ms,
                       registry=registry)
    loop_thread = _LoopThread()
    try:
        loop_thread.call(net.start())
    except Exception:
        loop_thread.stop()
        raise
    return _BackgroundServer(net, loop_thread)


class NetClient:
    """Blocking stdlib-socket client for the length-prefixed protocol.

    The network counterpart of the in-process
    :class:`~.client.ServerClient` transport: it moves frames, not
    plaintexts — encryption/decryption stay with the caller.  Typical
    flow: :meth:`connect`, optional :meth:`hello` (session + keys; the
    ack's ticket is remembered), :meth:`submit_frame` per request,
    :meth:`collect` for the pushed responses.  After a disconnect,
    :meth:`reconnect` + :meth:`hello` with ``resume=True`` re-attaches
    and receives everything parked meanwhile.
    """

    def __init__(self, host: str, port: int, *, client_id: str = "",
                 timeout_s: float = 30.0):
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout_s = timeout_s
        self.sock: Optional[socket.socket] = None
        self.session_id = ""
        self.ticket_wire: Optional[bytes] = None

    # -- transport -----------------------------------------------------------------

    def connect(self) -> "NetClient":
        self.sock = socket.create_connection((self.host, self.port),
                                             timeout=self.timeout_s)
        return self

    def reconnect(self) -> "NetClient":
        self.close()
        return self.connect()

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            finally:
                self.sock = None

    def __enter__(self) -> "NetClient":
        return self.connect() if self.sock is None else self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _send(self, payload: bytes) -> None:
        assert self.sock is not None, "connect() first"
        # Scatter-gather send: prefixing by concatenation would copy the
        # whole frame once more.
        prefix = _LEN.pack(len(payload))
        sent = self.sock.sendmsg([prefix, payload])
        if sent < len(prefix):
            self.sock.sendall(prefix[sent:])
            sent = len(prefix)
        if sent < len(prefix) + len(payload):
            self.sock.sendall(memoryview(payload)[sent - len(prefix):])

    def _read_exactly(self, n: int) -> bytes:
        assert self.sock is not None, "connect() first"
        chunks = []
        got = 0
        while got < n:
            chunk = self.sock.recv(n - got)
            if not chunk:
                raise ConnectionError("server closed the connection")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def recv_message(self) -> bytes:
        (length,) = _LEN.unpack(self._read_exactly(_LEN.size))
        if length > MAX_FRAME_BYTES:
            raise FrameError(f"oversized socket message: {length} bytes")
        return self._read_exactly(length)

    # -- protocol ------------------------------------------------------------------

    def hello(self, *, relin_wire: Optional[bytes] = None,
              galois_wire: Optional[bytes] = None,
              resume: bool = False) -> SessionAck:
        """Handshake (optionally resuming with the remembered ticket).

        Returns the decoded ack; on success the session id and fresh
        ticket are remembered for a later resume.  Responses parked
        while this client was disconnected arrive *after* the ack —
        read them with :meth:`collect`/:meth:`recv_response`.
        """
        if not self.client_id:
            raise ValueError("hello needs a client_id")
        ticket = self.ticket_wire if resume else None
        if resume and ticket is None:
            raise ValueError("no ticket to resume with; hello first")
        self._send(encode_session_hello(SessionHello(
            client_id=self.client_id, relin_wire=relin_wire,
            galois_wire=galois_wire, ticket_wire=ticket)))
        ack = decode_session_ack(self.recv_message())
        if ack.ok:
            self.session_id = ack.session_id
            if ack.ticket_wire is not None:
                self.ticket_wire = ack.ticket_wire
        return ack

    def submit_frame(self, frame: bytes) -> None:
        """Send one encoded ``RPRQ`` request frame."""
        self._send(frame)

    def recv_response(self) -> ServeResponse:
        return decode_response(self.recv_message())

    def collect(self, n: int, *, timeout_s: Optional[float] = None,
                ) -> List[ServeResponse]:
        """Read ``n`` pushed responses (raises ``socket.timeout`` if the
        server stops sending — a hung client is a test failure, never a
        silent wait)."""
        deadline = time.monotonic() + (timeout_s if timeout_s is not None
                                       else self.timeout_s)
        out: List[ServeResponse] = []
        while len(out) < n:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise socket.timeout(
                    f"collected {len(out)}/{n} responses before timeout")
            self.sock.settimeout(remaining)
            out.append(self.recv_response())
        return out
