"""Wire format for batched HE serving requests and responses.

A request frames one HE operation over raw ciphertext blobs with a JSON
header:

.. code-block:: text

    b"RPRQ" | u32 header_len | header JSON | (u64 blob_len | blob)*

The header carries the request id, the operation name and its metadata
(rotation steps, the server-side weight-artifact name, ...), the serving
QoS fields (``priority``, optional ``deadline_ms``) and the session
``client`` id.  Each blob is one ``core.serialize`` raw ciphertext: a
32-byte CRC-checked header (shape, scale, NTT flag, format version)
followed by the contiguous uint64 limb block.  Encoding hands the
header and a view of the limbs straight to the frame join, so the limbs
are copied once; decoding slices the frame without copying and copies
each limb block once, into an array the ciphertext owns.  Responses use
the same framing with magic ``RPRS``, a typed status/timing header and
at most one result blob.  Session handshakes use magics ``RPRH`` (hello:
client id + optional ``.npz`` evaluation-key blobs + optional resume
ticket) and ``RPRA`` (ack: session id + a ``core.serialize`` session
ticket).  Every serving frame header carries the serialization
``FORMAT_VERSION`` and decoding fails closed on any other version, as
do the blobs inside it.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .. import faults as _faults
from ..core.ciphertext import Ciphertext
from ..core.serialize import (
    FORMAT_VERSION,
    ciphertext_from_buffer,
    ciphertext_parts,
)

__all__ = [
    "SUPPORTED_OPS",
    "RESPONSE_STATUSES",
    "FrameError",
    "MAX_FRAME_BYTES",
    "ServeRequest",
    "ServeResponse",
    "SessionHello",
    "SessionAck",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "encode_session_hello",
    "decode_session_hello",
    "encode_session_ack",
    "decode_session_ack",
    "overloaded_response",
    "expired_response",
]

REQUEST_MAGIC = b"RPRQ"
RESPONSE_MAGIC = b"RPRS"
HELLO_MAGIC = b"RPRH"
ACK_MAGIC = b"RPRA"

#: Upper bound on an accepted serving frame — a length prefix pointing
#: past this is rejected before any allocation or parse attempt.
MAX_FRAME_BYTES = 256 * 1024 * 1024
#: Upper bound on the JSON header inside a frame.
MAX_HEADER_BYTES = 1024 * 1024

_FP_DECODE = _faults.faultpoint(
    "wire.decode",
    "corrupt or truncate a serving frame's bytes before decoding",
)


class FrameError(ValueError):
    """A serving frame failed to decode (truncated/corrupted/oversized).

    The typed error the wire boundary guarantees: no matter how the
    bytes are mutated in transit, decoding raises this (a
    ``ValueError``) — never ``struct.error``, ``IndexError`` or a
    serializer internal — so callers can retry or refuse uniformly.
    """

#: Operations the dispatcher executes.  All of them need only public
#: material server-side (evaluation keys and plaintext weights).
SUPPORTED_OPS = frozenset(
    {"square", "multiply", "add", "rotate", "multiply_plain", "dot_plain"}
)

#: Terminal outcomes a request can receive — exactly one per request.
#: ``ok`` served; ``error`` rejected by the executor (bad op input);
#: ``overloaded`` shed by admission control before queueing; ``expired``
#: shed at dispatch because its deadline had already passed;
#: ``device_failed`` lost to a device failure with no surviving device.
RESPONSE_STATUSES = frozenset(
    {"ok", "error", "overloaded", "expired", "device_failed"}
)


@dataclass
class ServeRequest:
    """One client operation: ``op`` applied to ``cts`` under ``meta``.

    ``meta`` keys by op: ``rotate`` needs ``steps``; ``multiply_plain``
    and ``dot_plain`` need ``weights`` (a server-side artifact name).
    ``arrival_us`` is stamped by the server on submission (simulated
    clock) — it travels outside the wire bytes.  ``priority`` orders
    requests inside a batching window (higher = more urgent, default 0);
    ``deadline_ms`` is an optional latency budget relative to arrival —
    a request still queued past it is shed, never served late.
    ``client_id`` names the serving session whose evaluation keys and
    cached weights execute the op ("" = the server's shared keyspace).
    """

    request_id: str
    op: str
    cts: List[Ciphertext]
    meta: Dict = field(default_factory=dict)
    arrival_us: float = 0.0
    priority: int = 0
    deadline_ms: Optional[float] = None
    client_id: str = ""

    def __post_init__(self) -> None:
        if self.op not in SUPPORTED_OPS:
            raise ValueError(
                f"unsupported op {self.op!r}; known: {sorted(SUPPORTED_OPS)}"
            )
        expected = 2 if self.op in ("multiply", "add") else 1
        if len(self.cts) != expected:
            raise ValueError(
                f"op {self.op!r} takes {expected} ciphertext(s), "
                f"got {len(self.cts)}"
            )
        self.priority = int(self.priority)
        if self.deadline_ms is not None:
            self.deadline_ms = float(self.deadline_ms)
            if self.deadline_ms <= 0:
                raise ValueError("deadline_ms must be > 0 when given")

    @property
    def wire_bytes(self) -> int:
        """Payload volume for upload-cost modelling."""
        return sum(ct.data.nbytes for ct in self.cts)

    @property
    def deadline_us(self) -> Optional[float]:
        """Absolute simulated deadline (``arrival + deadline_ms``)."""
        if self.deadline_ms is None:
            return None
        return self.arrival_us + self.deadline_ms * 1e3


@dataclass
class ServeResponse:
    """Per-request outcome with the server-side simulated timeline.

    ``status`` is the typed terminal outcome (:data:`RESPONSE_STATUSES`);
    ``ok`` stays as the convenience boolean (``status == "ok"``).
    ``yielded_at_us`` is when the serving layer released the response to
    the client: per-request completion in streaming mode, the end of the
    drain barrier otherwise.
    """

    request_id: str
    ok: bool
    result: Optional[Ciphertext] = None
    error: str = ""
    arrival_us: float = 0.0
    dispatch_us: float = 0.0
    complete_us: float = 0.0
    device: str = ""
    batch_size: int = 0
    status: str = ""
    priority: int = 0
    yielded_at_us: float = 0.0

    def __post_init__(self) -> None:
        if not self.status:
            self.status = "ok" if self.ok else "error"
        if self.status not in RESPONSE_STATUSES:
            raise ValueError(
                f"unknown status {self.status!r}; "
                f"known: {sorted(RESPONSE_STATUSES)}"
            )
        self.ok = self.status == "ok"

    @property
    def latency_us(self) -> float:
        return self.complete_us - self.arrival_us


def overloaded_response(request_id: str, *, arrival_us: float = 0.0,
                        priority: int = 0,
                        error: str = "admission control: server overloaded",
                        ) -> ServeResponse:
    """The typed terminal response of a request shed by admission control."""
    return ServeResponse(
        request_id=request_id, ok=False, status="overloaded", error=error,
        arrival_us=arrival_us, dispatch_us=arrival_us,
        complete_us=arrival_us, yielded_at_us=arrival_us, priority=priority,
    )


def expired_response(request_id: str, *, arrival_us: float = 0.0,
                     priority: int = 0,
                     error: str = "deadline expired before batching",
                     ) -> ServeResponse:
    """The typed terminal response of a request expired before dispatch.

    Used for requests the batcher sheds as expired-on-arrival (their
    deadline had already passed when batching looked at them) — the
    pre-dispatch counterpart of the dispatcher's device-side deadline
    shed, with the same ``expired`` status.
    """
    return ServeResponse(
        request_id=request_id, ok=False, status="expired", error=error,
        arrival_us=arrival_us, dispatch_us=arrival_us,
        complete_us=arrival_us, yielded_at_us=arrival_us, priority=priority,
    )


@dataclass
class SessionHello:
    """Client half of the session handshake: id + optional key blobs.

    The key blobs are ``core.serialize`` wires (``save_relin_key`` /
    ``save_galois_keys``) installed into the client's private keyspace —
    never the shared one — so concurrent clients cannot clobber each
    other's evaluation keys.  ``ticket_wire`` carries a previously
    issued :class:`~repro.core.serialize.SessionTicket` when the client
    is *resuming* after a dropped connection: the transport validates it
    against the live session table and, on success, flushes any
    responses parked while the client was away.  Hellos without a ticket
    decode exactly as before — the field is wire-compatible.
    """

    client_id: str
    relin_wire: Optional[bytes] = None
    galois_wire: Optional[bytes] = None
    ticket_wire: Optional[bytes] = None

    def __post_init__(self) -> None:
        if not self.client_id:
            raise ValueError("session hello needs a non-empty client_id")
        if ":" in self.client_id:
            # ':' is the keyspace-name separator server-side; allowing it
            # would let crafted ids collide with other clients' cached
            # artifacts.
            raise ValueError("client_id must not contain ':'")


@dataclass
class SessionAck:
    """Server half of the handshake: session id + resumable ticket."""

    client_id: str
    ok: bool
    session_id: str = ""
    error: str = ""
    ticket_wire: Optional[bytes] = None


def _frame(magic: bytes, header: dict, blobs: List[Sequence]) -> bytes:
    """Join one frame; each blob is given as its byte-buffer parts."""
    head = json.dumps(header, sort_keys=True).encode()
    out = [magic, struct.pack("<I", len(head)), head]
    for parts in blobs:
        out.append(struct.pack("<Q", sum(len(p) for p in parts)))
        out.extend(parts)
    return b"".join(out)


def _inject_wire_fault(data: bytes, event) -> bytes:
    """Apply an armed ``wire.decode`` fault to the raw frame bytes.

    ``corrupt_frame`` flips the high byte of the header-length prefix (a
    guaranteed structural failure — a data-byte flip could silently
    alter QoS fields instead of failing); ``truncate_frame`` cuts the
    frame in half.  Both must surface as :class:`FrameError` from the
    hardened parser below.
    """
    if event.mode == "corrupt_frame" and len(data) >= 8:
        mutated = bytearray(data)
        mutated[7] ^= 0xFF
        return bytes(mutated)
    if event.mode == "truncate_frame":
        return data[: len(data) // 2]
    return data


def _unframe(magic: bytes, data: bytes) -> tuple:
    """Parse one frame into ``(header, blobs)``; blobs are memoryview
    slices of ``data``, so nothing past the JSON header is copied."""
    event = _faults.check(_FP_DECODE)
    if event is not None:
        data = _inject_wire_fault(bytes(data), event)
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise FrameError(
            f"serving frame must be bytes, got {type(data).__name__}"
        )
    data = memoryview(data).cast("B")
    if len(data) > MAX_FRAME_BYTES:
        raise FrameError(
            f"oversized serving frame: {len(data)} bytes "
            f"(cap {MAX_FRAME_BYTES})"
        )
    if len(data) < 8:
        raise FrameError(
            f"short serving frame: {len(data)} bytes (need at least 8)"
        )
    if data[:4] != magic:
        raise FrameError(
            f"bad magic {bytes(data[:4])!r} (expected {magic!r}): "
            f"not a serving frame"
        )
    (head_len,) = struct.unpack_from("<I", data, 4)
    if head_len > MAX_HEADER_BYTES or 8 + head_len > len(data):
        raise FrameError(
            f"header length {head_len} out of bounds for a "
            f"{len(data)}-byte frame"
        )
    off = 8
    try:
        header = json.loads(bytes(data[off:off + head_len]).decode())
    except (UnicodeDecodeError, ValueError) as exc:
        raise FrameError(f"undecodable frame header: {exc}") from None
    if not isinstance(header, dict):
        raise FrameError(
            f"frame header must be a JSON object, got "
            f"{type(header).__name__}"
        )
    off += head_len
    if header.get("v") != FORMAT_VERSION:
        raise FrameError(
            f"serving frame version {header.get('v')} unsupported "
            f"(expected {FORMAT_VERSION})"
        )
    blobs = []
    while off < len(data):
        if off + 8 > len(data):
            raise FrameError(
                "truncated serving frame: dangling blob length prefix"
            )
        (blob_len,) = struct.unpack_from("<Q", data, off)
        off += 8
        if blob_len > len(data) - off:
            raise FrameError(
                f"truncated serving frame: blob promises {blob_len} bytes, "
                f"{len(data) - off} remain"
            )
        blobs.append(data[off:off + blob_len])
        off += blob_len
    return header, blobs


def _header_str(header: dict, key: str) -> str:
    value = header.get(key)
    if not isinstance(value, str):
        raise FrameError(
            f"frame header field {key!r} must be a string, "
            f"got {type(value).__name__}"
        )
    return value


def encode_request(req: ServeRequest) -> bytes:
    header = {
        "v": FORMAT_VERSION,
        "id": req.request_id,
        "op": req.op,
        "meta": req.meta,
        "n_cts": len(req.cts),
        "priority": req.priority,
        "deadline_ms": req.deadline_ms,
        "client": req.client_id,
    }
    return _frame(REQUEST_MAGIC, header,
                  [ciphertext_parts(ct) for ct in req.cts])


def decode_request(data: bytes) -> ServeRequest:
    header, blobs = _unframe(REQUEST_MAGIC, data)
    if header.get("n_cts") != len(blobs):
        raise FrameError(
            f"header promises {header.get('n_cts')} ciphertexts, "
            f"frame carries {len(blobs)}"
        )
    cts = []
    for blob in blobs:
        # The blob carries its own integrity checks (CRC-32, format
        # version, shape bounds); a blob that fails them is a decode
        # failure of *this frame*.
        try:
            cts.append(ciphertext_from_buffer(blob))
        except ValueError as exc:
            raise FrameError(f"corrupt ciphertext blob: {exc}") from exc
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise FrameError("frame header field 'meta' must be an object")
    try:
        return ServeRequest(
            request_id=_header_str(header, "id"),
            op=_header_str(header, "op"),
            cts=cts,
            meta=meta,
            priority=header.get("priority", 0),
            deadline_ms=header.get("deadline_ms"),
            client_id=header.get("client", ""),
        )
    except FrameError:
        raise
    except (TypeError, ValueError) as exc:
        raise FrameError(f"invalid request header: {exc}") from exc


def encode_response(resp: ServeResponse) -> bytes:
    header = {
        "v": FORMAT_VERSION,
        "id": resp.request_id,
        "ok": resp.ok,
        "status": resp.status,
        "error": resp.error,
        "arrival_us": resp.arrival_us,
        "dispatch_us": resp.dispatch_us,
        "complete_us": resp.complete_us,
        "yielded_at_us": resp.yielded_at_us,
        "device": resp.device,
        "batch_size": resp.batch_size,
        "priority": resp.priority,
    }
    blobs = []
    if resp.result is not None:
        blobs.append(ciphertext_parts(resp.result))
    return _frame(RESPONSE_MAGIC, header, blobs)


def decode_response(data: bytes) -> ServeResponse:
    header, blobs = _unframe(RESPONSE_MAGIC, data)
    ok = header.get("ok")
    if not isinstance(ok, bool):
        raise FrameError("response frame header lacks a boolean 'ok'")
    if blobs:
        try:
            result = ciphertext_from_buffer(blobs[0])
        except ValueError as exc:
            raise FrameError(f"corrupt ciphertext blob: {exc}") from exc
    else:
        result = None
    return ServeResponse(
        request_id=_header_str(header, "id"),
        ok=ok,
        result=result,
        error=header.get("error", ""),
        arrival_us=header.get("arrival_us", 0.0),
        dispatch_us=header.get("dispatch_us", 0.0),
        complete_us=header.get("complete_us", 0.0),
        device=header.get("device", ""),
        batch_size=header.get("batch_size", 0),
        status=header.get("status", "ok" if ok else "error"),
        priority=header.get("priority", 0),
        yielded_at_us=header.get("yielded_at_us", 0.0),
    )


def encode_session_hello(hello: SessionHello) -> bytes:
    keys = []
    blobs = []
    if hello.relin_wire is not None:
        keys.append("relin")
        blobs.append(hello.relin_wire)
    if hello.galois_wire is not None:
        keys.append("galois")
        blobs.append(hello.galois_wire)
    if hello.ticket_wire is not None:
        keys.append("ticket")
        blobs.append(hello.ticket_wire)
    header = {"v": FORMAT_VERSION, "client": hello.client_id, "keys": keys}
    return _frame(HELLO_MAGIC, header, [(blob,) for blob in blobs])


def decode_session_hello(data: bytes) -> SessionHello:
    header, blobs = _unframe(HELLO_MAGIC, data)
    keys = header.get("keys", [])
    if not isinstance(keys, list):
        raise FrameError("hello frame header field 'keys' must be a list")
    if len(keys) != len(blobs):
        raise FrameError(
            f"hello promises {len(keys)} key blobs, frame carries {len(blobs)}"
        )
    by_kind = dict(zip(keys, map(bytes, blobs)))
    return SessionHello(
        client_id=_header_str(header, "client"),
        relin_wire=by_kind.get("relin"),
        galois_wire=by_kind.get("galois"),
        ticket_wire=by_kind.get("ticket"),
    )


def encode_session_ack(ack: SessionAck) -> bytes:
    header = {
        "v": FORMAT_VERSION,
        "client": ack.client_id,
        "ok": ack.ok,
        "session_id": ack.session_id,
        "error": ack.error,
    }
    blobs = [(ack.ticket_wire,)] if ack.ticket_wire is not None else []
    return _frame(ACK_MAGIC, header, blobs)


def decode_session_ack(data: bytes) -> SessionAck:
    header, blobs = _unframe(ACK_MAGIC, data)
    ok = header.get("ok")
    if not isinstance(ok, bool):
        raise FrameError("ack frame header lacks a boolean 'ok'")
    return SessionAck(
        client_id=_header_str(header, "client"),
        ok=ok,
        session_id=header.get("session_id", ""),
        error=header.get("error", ""),
        ticket_wire=bytes(blobs[0]) if blobs else None,
    )
