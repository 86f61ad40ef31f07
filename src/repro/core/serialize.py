"""Serialization for parameters, keys, plaintexts and ciphertexts.

Ciphertexts, the per-request wire payload, are a raw blob: a fixed
32-byte little-endian header followed by the contiguous uint64 limb
block, the array exactly as it sits in memory:

.. code-block:: text

    b"RPCT" | u16 version | u16 flags (bit 0 = is_ntt) | u32 size
            | u32 level | u32 degree | f64 scale | u32 crc32 | limbs

``crc32`` is ``zlib.crc32`` over the 28 header bytes before it plus the
limb bytes, so a flipped limb, scale or shape byte fails to load instead
of decoding to a different ciphertext.  The header is validated before
anything is allocated (:func:`ciphertext_from_buffer`).

Every other kind is NumPy ``.npz``: portable, dependency-free, versioned
through a JSON ``__meta__`` member.  Secret keys serialize too (with an
explicit function name so the call site shows the security decision).
Contexts are *not* serialized — they are derived deterministically from
parameters, so ``save_params``/``load_params`` plus a fresh
``CkksContext`` reproduces everything.  All kinds share
:data:`FORMAT_VERSION`; any other version fails closed.
"""

from __future__ import annotations

import io
import json
import math
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Tuple, Union

import numpy as np

from .ciphertext import Ciphertext
from .keys import GaloisKeys, KSwitchKey, PublicKey, RelinKey, SecretKey
from .params import CkksParameters
from .plaintext import Plaintext

__all__ = [
    "FORMAT_VERSION",
    "to_bytes", "from_bytes",
    "save_params", "load_params",
    "save_ciphertext", "load_ciphertext",
    "ciphertext_parts", "ciphertext_from_buffer",
    "save_plaintext", "load_plaintext",
    "save_public_key", "load_public_key",
    "save_secret_key_insecure", "load_secret_key",
    "save_relin_key", "load_relin_key",
    "save_galois_keys", "load_galois_keys",
    "SessionTicket", "save_session_ticket", "load_session_ticket",
    "TicketError", "StaleTicketError",
]

FORMAT_VERSION = 2

PathOrFile = Union[str, BinaryIO]


def _meta(kind: str, **extra) -> np.ndarray:
    payload = {"version": FORMAT_VERSION, "kind": kind, **extra}
    return np.frombuffer(json.dumps(payload).encode(), dtype=np.uint8)


def _read_meta(npz, expected_kind: str) -> dict:
    try:
        payload = json.loads(bytes(npz["__meta__"].tobytes()).decode())
    except KeyError:
        raise ValueError("not a repro serialization (missing metadata)") from None
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"format version {payload.get('version')} unsupported "
            f"(expected {FORMAT_VERSION})"
        )
    if payload.get("kind") != expected_kind:
        raise ValueError(
            f"expected a {expected_kind!r}, found {payload.get('kind')!r}"
        )
    return payload


# --- parameters -------------------------------------------------------------


def save_params(params: CkksParameters, fp: PathOrFile) -> None:
    np.savez(
        fp,
        __meta__=_meta(
            "params",
            degree=params.poly_modulus_degree,
            bits=list(params.coeff_modulus_bits),
            scale=params.scale,
        ),
    )


def load_params(fp: PathOrFile) -> CkksParameters:
    with np.load(fp) as npz:
        meta = _read_meta(npz, "params")
    return CkksParameters(
        poly_modulus_degree=meta["degree"],
        coeff_modulus_bits=meta["bits"],
        scale=meta["scale"],
    )


# --- plaintext / ciphertext -----------------------------------------------------


def save_plaintext(pt: Plaintext, fp: PathOrFile) -> None:
    np.savez(
        fp,
        __meta__=_meta("plaintext", scale=pt.scale, is_ntt=pt.is_ntt),
        data=pt.data,
    )


def load_plaintext(fp: PathOrFile) -> Plaintext:
    with np.load(fp) as npz:
        meta = _read_meta(npz, "plaintext")
        data = npz["data"]
    return Plaintext(data, meta["scale"], meta["is_ntt"])


_CT_MAGIC = b"RPCT"
#: magic, version, flags, size, level, degree, scale — the bytes the CRC
#: covers ahead of the limbs; the u32 CRC follows.
_CT_HEAD = struct.Struct("<4sHHIIId")
_CT_CRC = struct.Struct("<I")
_CT_HEADER_BYTES = _CT_HEAD.size + _CT_CRC.size
_CT_MAX_SIZE = 8
_CT_MAX_LEVEL = 64
_CT_MAX_DEGREE = 1 << 17


def _check_ct_shape(size: int, level: int, degree: int) -> None:
    if not 2 <= size <= _CT_MAX_SIZE:
        raise ValueError(f"ciphertext size {size} outside [2, {_CT_MAX_SIZE}]")
    if not 1 <= level <= _CT_MAX_LEVEL:
        raise ValueError(
            f"ciphertext level {level} outside [1, {_CT_MAX_LEVEL}]")
    if degree < 1 or degree & (degree - 1) or degree > _CT_MAX_DEGREE:
        raise ValueError(
            f"ciphertext degree {degree} is not a power of two "
            f"<= {_CT_MAX_DEGREE}")


def ciphertext_parts(ct: Ciphertext) -> Tuple[bytes, memoryview]:
    """The raw blob of ``ct`` as ``(header bytes, limb memoryview)``.

    The limb view aliases ``ct.data`` (no copy when it is already
    C-contiguous little-endian), so a caller that concatenates the parts
    into its own frame copies the limbs exactly once.
    """
    size, level, degree = ct.data.shape
    _check_ct_shape(size, level, degree)
    limbs = np.ascontiguousarray(ct.data, dtype="<u8").data.cast("B")
    head = _CT_HEAD.pack(_CT_MAGIC, FORMAT_VERSION, int(bool(ct.is_ntt)),
                         size, level, degree, float(ct.scale))
    crc = zlib.crc32(limbs, zlib.crc32(head))
    return head + _CT_CRC.pack(crc), limbs


def ciphertext_from_buffer(buf) -> Ciphertext:
    """Decode one raw ciphertext blob (bytes or any 1-D byte buffer).

    Every header field is bounded and the CRC checked before the limb
    array is allocated; any failure raises ``ValueError``.  The limbs
    are copied out of ``buf`` into an owned, writable, aligned array, so
    the decoded ciphertext never pins the (much larger) receive frame.
    """
    view = memoryview(buf).cast("B")
    if len(view) < _CT_HEADER_BYTES:
        raise ValueError(
            f"truncated ciphertext blob: {len(view)} bytes, the header "
            f"alone is {_CT_HEADER_BYTES}")
    magic, version, flags, size, level, degree, scale = (
        _CT_HEAD.unpack_from(view))
    if magic != _CT_MAGIC:
        raise ValueError(
            f"bad ciphertext magic {magic!r} (expected {_CT_MAGIC!r}): not "
            f"a format version {FORMAT_VERSION} ciphertext blob")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"format version {version} unsupported "
            f"(expected {FORMAT_VERSION})")
    if flags not in (0, 1):
        raise ValueError(f"unknown ciphertext flags {flags:#x}")
    _check_ct_shape(size, level, degree)
    body = size * level * degree * 8
    if len(view) - _CT_HEADER_BYTES != body:
        raise ValueError(
            f"ciphertext body is {len(view) - _CT_HEADER_BYTES} bytes, a "
            f"({size}, {level}, {degree}) uint64 block is {body}")
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"ciphertext scale {scale!r} is not finite and > 0")
    (crc,) = _CT_CRC.unpack_from(view, _CT_HEAD.size)
    limbs = view[_CT_HEADER_BYTES:]
    if zlib.crc32(limbs, zlib.crc32(view[:_CT_HEAD.size])) != crc:
        raise ValueError("ciphertext blob fails its CRC-32 check")
    data = np.frombuffer(limbs, dtype="<u8").copy()
    return Ciphertext(data.reshape(size, level, degree), scale, bool(flags))


def save_ciphertext(ct: Ciphertext, fp: PathOrFile) -> None:
    if isinstance(fp, str):
        with open(fp, "wb") as f:
            f.writelines(ciphertext_parts(ct))
    else:
        fp.writelines(ciphertext_parts(ct))


def load_ciphertext(fp: PathOrFile) -> Ciphertext:
    if isinstance(fp, str):
        with open(fp, "rb") as f:
            return ciphertext_from_buffer(f.read())
    return ciphertext_from_buffer(fp.read())


# --- keys --------------------------------------------------------------------------


def save_public_key(pk: PublicKey, fp: PathOrFile) -> None:
    np.savez(fp, __meta__=_meta("public_key"), data=pk.data)


def load_public_key(fp: PathOrFile) -> PublicKey:
    with np.load(fp) as npz:
        _read_meta(npz, "public_key")
        return PublicKey(data=npz["data"])


def save_secret_key_insecure(sk: SecretKey, fp: PathOrFile) -> None:
    """Serialize the secret key.  The name is deliberate: callers must
    acknowledge that the output grants decryption capability."""
    np.savez(fp, __meta__=_meta("secret_key"), ntt_rows=sk.ntt_rows,
             signed_coeffs=sk.signed_coeffs)


def load_secret_key(fp: PathOrFile) -> SecretKey:
    with np.load(fp) as npz:
        _read_meta(npz, "secret_key")
        return SecretKey(
            ntt_rows=npz["ntt_rows"], signed_coeffs=npz["signed_coeffs"]
        )


def save_relin_key(rlk: RelinKey, fp: PathOrFile) -> None:
    arrays = {f"k{i}": arr for i, arr in enumerate(rlk.key.data)}
    np.savez(fp, __meta__=_meta("relin_key", count=len(arrays)), **arrays)


def load_relin_key(fp: PathOrFile) -> RelinKey:
    with np.load(fp) as npz:
        meta = _read_meta(npz, "relin_key")
        data = [npz[f"k{i}"] for i in range(meta["count"])]
    return RelinKey(key=KSwitchKey(data=data))


def save_galois_keys(gk: GaloisKeys, fp: PathOrFile) -> None:
    arrays = {}
    elts = sorted(gk.keys)
    for elt in elts:
        for i, arr in enumerate(gk.keys[elt].data):
            arrays[f"g{elt}_k{i}"] = arr
    counts = {str(elt): len(gk.keys[elt].data) for elt in elts}
    np.savez(fp, __meta__=_meta("galois_keys", elts=elts, counts=counts),
             **arrays)


def load_galois_keys(fp: PathOrFile) -> GaloisKeys:
    with np.load(fp) as npz:
        meta = _read_meta(npz, "galois_keys")
        out = GaloisKeys()
        for elt in meta["elts"]:
            count = meta["counts"][str(elt)]
            out.keys[elt] = KSwitchKey(
                data=[npz[f"g{elt}_k{i}"] for i in range(count)]
            )
    return out


# --- serving sessions -------------------------------------------------------


class TicketError(ValueError):
    """A session ticket failed to load or validate (corrupt/malformed).

    The typed wire-boundary error for resumable tickets: whatever a
    mutated or stale ticket blob does internally (zip errors, missing
    fields, bad types), callers see this — never a raw serializer or
    ``KeyError`` internal.
    """


class StaleTicketError(TicketError):
    """A well-formed ticket that no longer matches a live session."""


@dataclass(frozen=True)
class SessionTicket:
    """Opaque resumable handle for a serving session (no key material).

    Issued by the server's session handshake (``repro.server.sessions``)
    and echoed back by the client to resume: holds only public
    identifiers, so a leaked ticket grants nothing beyond what the
    client id already names.
    """

    client_id: str
    session_id: str
    issued_us: float = 0.0

    def __post_init__(self) -> None:
        if not self.client_id or not self.session_id:
            raise ValueError("session ticket needs client_id and session_id")


def save_session_ticket(ticket: SessionTicket, fp: PathOrFile) -> None:
    np.savez(
        fp,
        __meta__=_meta(
            "session_ticket",
            client_id=ticket.client_id,
            session_id=ticket.session_id,
            issued_us=ticket.issued_us,
        ),
    )


def load_session_ticket(fp: PathOrFile) -> SessionTicket:
    """Load + validate a ticket; raises :class:`TicketError` when bad.

    Validation is strict — version/kind via ``_read_meta``, then field
    bounds: non-empty string ids, no ``':'`` in the client id (the
    server-side keyspace separator), a finite non-negative issue
    instant.  A ticket is client-presented input, so it fails closed.
    """
    try:
        with np.load(fp) as npz:
            meta = _read_meta(npz, "session_ticket")
    except ValueError as exc:
        raise TicketError(str(exc)) from None
    except Exception as exc:  # zip/npz internals on corrupt bytes
        raise TicketError(f"corrupt session ticket: {exc}") from None
    client_id = meta.get("client_id")
    session_id = meta.get("session_id")
    issued_us = meta.get("issued_us", 0.0)
    if not isinstance(client_id, str) or not client_id:
        raise TicketError("session ticket needs a non-empty client_id")
    if ":" in client_id:
        raise TicketError("session ticket client_id must not contain ':'")
    if not isinstance(session_id, str) or not session_id:
        raise TicketError("session ticket needs a non-empty session_id")
    if (isinstance(issued_us, bool)
            or not isinstance(issued_us, (int, float))
            or not math.isfinite(issued_us) or issued_us < 0):
        raise TicketError(
            f"session ticket issued_us must be a finite non-negative "
            f"number, got {issued_us!r}"
        )
    return SessionTicket(
        client_id=client_id,
        session_id=session_id,
        issued_us=float(issued_us),
    )


def to_bytes(saver, obj) -> bytes:
    """Serialize ``obj`` with one of the ``save_*`` functions to bytes.

    The wire-format primitive of :mod:`repro.server`: requests and
    responses frame these byte blobs with a JSON header.
    """
    buf = io.BytesIO()
    saver(obj, buf)
    return buf.getvalue()


def from_bytes(loader, data: bytes):
    """Deserialize bytes produced by :func:`to_bytes` with a ``load_*``."""
    return loader(io.BytesIO(data))


def roundtrip_bytes(obj, saver, loader):
    """Helper: serialize to memory and back (used by tests)."""
    return from_bytes(loader, to_bytes(saver, obj))
