"""Multi-client serving sessions: per-client keys, weights and counters.

The north-star deployment serves many long-lived clients, each with its
own secret material — so each client's *evaluation* keys (relin/Galois)
and cached encoded weights must live in a private server-side keyspace,
never the shared one, or one client's key rotation would corrupt
another's results.  :class:`SessionManager` owns that mapping:

* the wire handshake (``RPRH`` hello -> ``RPRA`` ack, see
  :mod:`repro.server.request`) installs the hello's key blobs into the
  client's keyspace on the shared :class:`ServerSession` and issues a
  :class:`~repro.core.serialize.SessionTicket` the client can present to
  resume;
* per-client hot artifacts (keys, encoded weights) are namespaced
  ``client:<id>:...`` in the :class:`~repro.server.dispatcher.ArtifactCache`,
  whose buffers come from the shared device
  :class:`~repro.runtime.memcache.MemoryCache` — cached once per client,
  reused across that client's requests;
* per-session counters (requests, sheds) feed the serving telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.serialize import (
    SessionTicket,
    StaleTicketError,
    TicketError,
    from_bytes,
    load_galois_keys,
    load_relin_key,
    load_session_ticket,
    save_session_ticket,
    to_bytes,
)
from .request import (
    SessionAck,
    SessionHello,
    decode_session_hello,
    encode_session_ack,
)

__all__ = ["ClientSession", "SessionManager"]


@dataclass
class ClientSession:
    """Server-side bookkeeping for one client's session."""

    client_id: str
    session_id: str
    created_us: float = 0.0
    has_relin: bool = False
    has_galois: bool = False
    requests: int = 0
    shed: int = 0
    handshakes: int = 0
    #: Encoded response frames completed while the client's transport
    #: connection was down — flushed (in completion order) when the
    #: client resumes with its session ticket.
    parked: List[bytes] = field(default_factory=list)

    @property
    def ticket(self) -> SessionTicket:
        return SessionTicket(client_id=self.client_id,
                             session_id=self.session_id,
                             issued_us=self.created_us)


class SessionManager:
    """Keyed client sessions over one shared :class:`ServerSession`."""

    def __init__(self, server_session):
        self._server_session = server_session
        self._sessions: Dict[str, ClientSession] = {}
        self._counter = 0

    def __contains__(self, client_id: str) -> bool:
        return client_id in self._sessions

    def __len__(self) -> int:
        return len(self._sessions)

    def get(self, client_id: str) -> ClientSession:
        try:
            return self._sessions[client_id]
        except KeyError:
            raise KeyError(
                f"no session for client {client_id!r}; "
                f"known: {sorted(self._sessions)}"
            ) from None

    def handshake(self, hello, *, now_us: float = 0.0) -> bytes:
        """Open (or refresh) a session; returns the encoded ack frame.

        ``hello`` is a :class:`SessionHello` or its encoded ``RPRH``
        wire frame.  A repeated handshake for a known client reuses the
        session id and re-installs the supplied keys (key rotation —
        the artifact cache invalidates that client's stale entries).
        A bad hello — malformed frame, crafted client id, corrupt key
        blob — produces a failed ack, not an exception: the handshake is
        a wire protocol, so errors travel as frames.
        """
        cid = ""
        # Decode the frame and every key blob *before* touching any
        # state, so a refused handshake is atomic: no session
        # registered, no key of a rotation pair half-installed (mixed
        # key generations would silently corrupt rotate/dot results).
        try:
            if isinstance(hello, (bytes, bytearray)):
                hello = decode_session_hello(hello)
            cid = hello.client_id
            relin = (from_bytes(load_relin_key, hello.relin_wire)
                     if hello.relin_wire is not None else None)
            galois = (from_bytes(load_galois_keys, hello.galois_wire)
                      if hello.galois_wire is not None else None)
        except Exception as exc:  # wire boundary: errors become frames
            ack = SessionAck(client_id=cid, ok=False, error=str(exc))
            return encode_session_ack(ack)
        cid = hello.client_id
        sess = self._sessions.get(cid)
        if sess is None:
            self._counter += 1
            sess = ClientSession(client_id=cid,
                                 session_id=f"sess-{self._counter}-{cid}",
                                 created_us=now_us)
            self._sessions[cid] = sess
        sess.handshakes += 1
        self._server_session.set_keys(cid, relin=relin, galois=galois)
        sess.has_relin |= relin is not None
        sess.has_galois |= galois is not None
        ack = SessionAck(
            client_id=cid, ok=True, session_id=sess.session_id,
            ticket_wire=to_bytes(save_session_ticket, sess.ticket),
        )
        return encode_session_ack(ack)

    def resume(self, ticket_wire: bytes) -> ClientSession:
        """Validate a ticket against the live session table.

        Raises :class:`~repro.core.serialize.TicketError` for a corrupt
        or malformed ticket and :class:`StaleTicketError` (a subclass)
        for a well-formed ticket that names no live session — never a
        raw serializer exception or ``KeyError``.
        """
        try:
            ticket = from_bytes(load_session_ticket, ticket_wire)
        except TicketError:
            raise
        except Exception as exc:
            raise TicketError(f"unreadable session ticket: {exc}") from exc
        sess = self._sessions.get(ticket.client_id)
        if sess is None:
            raise StaleTicketError(
                f"session ticket names unknown client "
                f"{ticket.client_id!r}; known: {sorted(self._sessions)}"
            )
        if sess.session_id != ticket.session_id:
            raise StaleTicketError(
                f"stale session ticket for client {ticket.client_id!r} "
                f"(ticket {ticket.session_id!r}, live {sess.session_id!r})"
            )
        return sess

    def note_request(self, client_id: str) -> None:
        if client_id in self._sessions:
            self._sessions[client_id].requests += 1

    def note_shed(self, client_id: str) -> None:
        if client_id in self._sessions:
            self._sessions[client_id].shed += 1

    # -- disconnected-client response parking --------------------------------------

    def park(self, client_id: str, frame: bytes) -> bool:
        """Hold one encoded response for a client with no live connection.

        Returns True when the frame was parked (the client has a
        session to resume into); False for unknown clients, whose
        responses stay retrievable only in-process.
        """
        sess = self._sessions.get(client_id)
        if sess is None:
            return False
        sess.parked.append(frame)
        return True

    def take_parked(self, client_id: str) -> List[bytes]:
        """Drain the frames parked for ``client_id`` (resume flush)."""
        sess = self._sessions.get(client_id)
        if sess is None:
            return []
        out, sess.parked = sess.parked, []
        return out
