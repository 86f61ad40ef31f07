"""Synchronous in-process client for the batched HE server.

Plays the paper's client role (Fig. 1): owns the secret key side
(encoder / encryptor / decryptor), ships parameters and evaluation keys
to the server once, then encodes + encrypts + frames requests and
decrypts + decodes responses.  Every byte crossing the client/server
boundary goes through the wire format — the server never touches secret
material or raw values.

Two key-installation modes:

* constructor keys (``relin_key=`` / ``galois_keys=``) install into the
  server's *shared* keyspace — the anonymous single-tenant deployment;
* :meth:`ServerClient.open_session` performs the wire handshake
  (``RPRH``/``RPRA``) installing keys into this client's *private*
  keyspace; subsequent requests carry the client id so the server
  executes them under this client's keys, isolated from other tenants.

Results arrive either through the :meth:`serve` barrier or the
:meth:`stream` generator (responses yielded in completion order as the
server's tiles drain).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from random import Random
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..core.ciphertext import Ciphertext
from ..core.decryptor import Decryptor
from ..core.encoder import CkksEncoder
from ..core.encryptor import Encryptor
from ..core.keys import GaloisKeys, RelinKey
from ..core.params import CkksParameters
from ..core.serialize import (
    save_galois_keys,
    save_params,
    save_relin_key,
    to_bytes,
)
from .dispatcher import HEServer
from .request import (
    FrameError,
    ServeRequest,
    ServeResponse,
    SessionAck,
    SessionHello,
    decode_session_ack,
    encode_request,
    encode_session_hello,
)

__all__ = ["RetryPolicy", "ServerClient", "submit_with_retry"]


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side resubmission policy for transient transport faults.

    A submit that fails with :class:`FrameError` (the frame was
    corrupted or truncated in transit) is retried up to ``max_attempts``
    times with capped exponential backoff plus deterministic jitter —
    the backoff advances the resubmission's *simulated* arrival time, so
    retried traffic still replays bit-identically under a seed.

    ``timeout_ms`` is the per-request latency budget: it stamps
    ``deadline_ms`` on requests submitted through
    :meth:`ServerClient.submit` that don't carry their own, so a request
    the server cannot serve in time is shed with a typed ``expired``
    response instead of waiting forever.  Retries reuse the request id;
    the server's dedup cache keeps resubmission idempotent.
    """

    max_attempts: int = 4
    base_backoff_us: float = 200.0
    multiplier: float = 2.0
    cap_backoff_us: float = 10_000.0
    jitter: float = 0.25
    timeout_ms: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def backoff_us(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), jittered, capped."""
        base = min(self.base_backoff_us * self.multiplier ** attempt,
                   self.cap_backoff_us)
        if self.jitter == 0.0:
            return base
        # Deterministic per (seed, attempt): reruns replay exactly.
        r = Random(f"{self.seed}:{attempt}").random()
        return base * (1.0 + self.jitter * (2.0 * r - 1.0))


def submit_with_retry(server: HEServer, wire: bytes, *,
                      arrival_us: Optional[float] = None,
                      policy: Optional[RetryPolicy] = None) -> str:
    """Submit a wire frame, retrying transport-level decode failures.

    Each retry pushes the simulated arrival forward by the policy's
    backoff, but never past the request's own latency budget: once the
    next resubmission would arrive after ``arrival + timeout_ms``, a
    further attempt could only yield a guaranteed-expired duplicate, so
    the loop stops early and surfaces the failure instead of burning the
    remaining attempt budget.  Raises the last :class:`FrameError` once
    attempts are exhausted (or timed out).  Duplicate-safe: the server
    dedups request ids, so a retry racing its original can never
    double-execute.
    """
    policy = policy or RetryPolicy()
    t_us = arrival_us
    deadline_us = (None if arrival_us is None or policy.timeout_ms is None
                   else arrival_us + policy.timeout_ms * 1e3)
    last: Optional[FrameError] = None
    for attempt in range(policy.max_attempts):
        try:
            return server.submit(wire, arrival_us=t_us)
        except FrameError as exc:
            last = exc
            if t_us is not None:
                next_us = t_us + policy.backoff_us(attempt)
                if deadline_us is not None and next_us > deadline_us:
                    break
                t_us = next_us
    assert last is not None
    raise last


class ServerClient:
    """Encrypts, submits, decrypts — the private-inference-as-a-service
    entry point used by :mod:`repro.apps.inference`."""

    def __init__(self, server: HEServer, *,
                 encoder: CkksEncoder,
                 encryptor: Encryptor,
                 decryptor: Decryptor,
                 relin_key: Optional[RelinKey] = None,
                 galois_keys: Optional[GaloisKeys] = None,
                 client_id: str = "client",
                 retry: Optional[RetryPolicy] = None):
        self.server = server
        self.encoder = encoder
        self.encryptor = encryptor
        self.decryptor = decryptor
        self._ids = itertools.count()
        self.client_id = client_id
        #: Default retry/timeout policy for :meth:`submit` (None = one
        #: attempt, no stamped timeout).
        self.retry = retry
        #: Resubmissions performed after transport-level decode failures.
        self.retries = 0
        self.session_id = ""
        self.ticket_wire: Optional[bytes] = None
        self._in_session = False
        self._responses: Dict[str, ServeResponse] = {}
        if relin_key is not None:
            server.install_relin_key(to_bytes(save_relin_key, relin_key))
        if galois_keys is not None:
            server.install_galois_keys(to_bytes(save_galois_keys, galois_keys))

    @classmethod
    def params_wire(cls, params: CkksParameters) -> bytes:
        """Serialized parameters for :class:`HEServer` construction."""
        return to_bytes(save_params, params)

    # -- session handshake ---------------------------------------------------------

    def open_session(self, *,
                     relin_key: Optional[RelinKey] = None,
                     galois_keys: Optional[GaloisKeys] = None) -> SessionAck:
        """Handshake a private session; later submits carry the client id.

        The supplied evaluation keys travel in the hello frame and land
        in this client's server-side keyspace (never the shared one).
        Raises on a refused handshake; returns the decoded ack (session
        id + resumable ticket) otherwise.
        """
        hello = SessionHello(
            client_id=self.client_id,
            relin_wire=(to_bytes(save_relin_key, relin_key)
                        if relin_key is not None else None),
            galois_wire=(to_bytes(save_galois_keys, galois_keys)
                         if galois_keys is not None else None),
        )
        ack = decode_session_ack(
            self.server.handshake(encode_session_hello(hello)))
        if not ack.ok:
            raise RuntimeError(
                f"session handshake refused for {self.client_id!r}: "
                f"{ack.error}"
            )
        self.session_id = ack.session_id
        self.ticket_wire = ack.ticket_wire
        self._in_session = True
        return ack

    # -- encryption helpers --------------------------------------------------------

    def encrypt(self, values: Sequence[float]) -> Ciphertext:
        vals = np.asarray(values, dtype=np.float64)
        padded = np.zeros(self.encoder.slots)
        padded[: len(vals)] = vals
        return self.encryptor.encrypt(self.encoder.encode(padded))

    # -- submission ----------------------------------------------------------------

    def submit(self, op: str, cts: List[Ciphertext], *,
               arrival_us: Optional[float] = None,
               priority: int = 0,
               deadline_ms: Optional[float] = None,
               retry: Optional[RetryPolicy] = None,
               **meta) -> str:
        """Frame and submit one operation; returns the request id.

        With a :class:`RetryPolicy` (per call, or the client default),
        transport-level decode failures are retried with backoff and the
        policy's ``timeout_ms`` stamps ``deadline_ms`` when the call
        doesn't pass its own.
        """
        policy = retry if retry is not None else self.retry
        if (deadline_ms is None and policy is not None
                and policy.timeout_ms is not None):
            deadline_ms = policy.timeout_ms
        rid = f"{self.client_id}-{next(self._ids)}"
        req = ServeRequest(
            request_id=rid, op=op, cts=cts, meta=meta,
            priority=priority, deadline_ms=deadline_ms,
            client_id=self.client_id if self._in_session else "",
        )
        wire = encode_request(req)
        if policy is None:
            self.server.submit(wire, arrival_us=arrival_us)
            return rid
        # The retry budget is bounded by *both* the attempt count and
        # the request's own deadline: a resubmission that would arrive
        # past ``arrival + deadline_ms`` is guaranteed to be shed as
        # expired, so it is never sent — the transport failure surfaces
        # as the timeout instead.
        deadline_us = (None if arrival_us is None or deadline_ms is None
                       else arrival_us + deadline_ms * 1e3)
        for attempt in range(policy.max_attempts):
            try:
                self.server.submit(wire, arrival_us=arrival_us)
                return rid
            except FrameError:
                next_us = (arrival_us + policy.backoff_us(attempt)
                           if arrival_us is not None else None)
                if attempt + 1 >= policy.max_attempts or (
                        deadline_us is not None and next_us is not None
                        and next_us > deadline_us):
                    raise
                self.retries += 1
                arrival_us = next_us
        return rid  # pragma: no cover - loop always returns or raises

    def submit_square(self, values, *, arrival_us=None, priority=0,
                      deadline_ms=None) -> str:
        return self.submit("square", [self.encrypt(values)],
                           arrival_us=arrival_us, priority=priority,
                           deadline_ms=deadline_ms)

    def submit_multiply(self, a, b, *, arrival_us=None, priority=0,
                        deadline_ms=None) -> str:
        return self.submit("multiply", [self.encrypt(a), self.encrypt(b)],
                           arrival_us=arrival_us, priority=priority,
                           deadline_ms=deadline_ms)

    def submit_dot(self, values, weights_name: str, *, arrival_us=None,
                   priority=0, deadline_ms=None) -> str:
        """Inner product with a server-side weight vector (slot 0)."""
        return self.submit("dot_plain", [self.encrypt(values)],
                           arrival_us=arrival_us, priority=priority,
                           deadline_ms=deadline_ms, weights=weights_name)

    # -- results -------------------------------------------------------------------

    def serve(self) -> Dict[str, ServeResponse]:
        """Drain the server; caches and returns all responses."""
        responses = self.server.drain()
        self._responses.update(responses)
        return responses

    def stream(self) -> Iterator[ServeResponse]:
        """Serve pending requests, yielding responses as they complete.

        The streaming counterpart of :meth:`serve`, driven by the same
        pump ticks: each response (admission sheds included) is released
        at its own simulated completion instant (``yielded_at_us``)
        instead of the drain barrier; results and batch stamps are
        identical either way.  Responses are cached for
        :meth:`response` / :meth:`result` as they arrive.
        """
        for resp in self.server.stream():
            self._responses[resp.request_id] = resp
            yield resp

    def response(self, request_id: str) -> ServeResponse:
        try:
            return self._responses[request_id]
        except KeyError:
            pass
        # Admission control answers at submit time; pick up any terminal
        # response the server already holds (e.g. "overloaded").
        try:
            resp = self.server.response(request_id)
        except KeyError:
            raise KeyError(
                f"no response for {request_id!r}; call serve() first"
            ) from None
        self._responses[request_id] = resp
        return resp

    def result(self, request_id: str, *, slots: Optional[int] = None) -> np.ndarray:
        """Decrypt + decode one response (raises on server-side failure)."""
        resp = self.response(request_id)
        if not resp.ok:
            raise RuntimeError(
                f"request {request_id} failed server-side "
                f"({resp.status}): {resp.error}"
            )
        decoded = self.encoder.decode(self.decryptor.decrypt(resp.result))
        return decoded if slots is None else decoded[:slots]
