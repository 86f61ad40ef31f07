"""Batched asynchronous HE serving (the paper's deployment target).

Composes the reproduced components into the client/server system the
paper's end-to-end design (Fig. 1/2) actually serves: wire-format
requests are coalesced by a priority/deadline-aware
:class:`RequestBatcher` under a latency/size budget, gated by an
optional token-bucket + backlog :class:`AdmissionController`, dispatched
through an :class:`~repro.runtime.pipeline.AsyncPipeline` onto one
:class:`~repro.runtime.scheduler.MultiTileScheduler` per simulated
device (sharded by modelled throughput) with results released either at
the drain barrier or streamed per-request as tiles finish, with hot
artifacts — including each session client's evaluation keys and encoded
weights — held in the :class:`~repro.runtime.memcache.MemoryCache`.

Entry points: :class:`HEServer` (in-process server), :class:`ServerClient`
(synchronous or streaming client), :class:`SocketServer` /
:class:`NetClient` (online TCP transport, pump-driven batching), and
``python -m repro serve`` (:mod:`repro.server.cli`: ``--stream`` /
``--admission`` / ``--listen HOST:PORT --pump-ms N``).
"""

from .admission import (
    AdmissionController,
    AdmissionPolicy,
    TenantFairness,
    TenantPolicy,
)
from .batcher import Batch, BatchPolicy, RequestBatcher
from .client import RetryPolicy, ServerClient, submit_with_retry
from .dispatcher import ArtifactCache, BatchDispatcher, HEServer, ServerSession
from .metrics import RequestRecord, ServerMetrics
from .net import NetClient, SocketServer, serve_in_background
from .pump import BatchPump, SimClock
from .request import (
    RESPONSE_STATUSES,
    SUPPORTED_OPS,
    FrameError,
    ServeRequest,
    ServeResponse,
    SessionAck,
    SessionHello,
    decode_request,
    decode_response,
    decode_session_ack,
    decode_session_hello,
    encode_request,
    encode_response,
    encode_session_ack,
    encode_session_hello,
    expired_response,
    overloaded_response,
)
from .sessions import ClientSession, SessionManager
from .workers import WorkerPool, WorkerStats
from .traffic import (
    demo_deployment,
    mixed_square_multiply_traffic,
    modelled_capacity_rps,
    serve_traffic,
)

__all__ = [
    "SUPPORTED_OPS",
    "RESPONSE_STATUSES",
    "FrameError",
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
    "BatchPolicy",
    "Batch",
    "RequestBatcher",
    "AdmissionPolicy",
    "AdmissionController",
    "TenantPolicy",
    "TenantFairness",
    "BatchPump",
    "SimClock",
    "SocketServer",
    "NetClient",
    "serve_in_background",
    "ClientSession",
    "SessionManager",
    "ServerMetrics",
    "RequestRecord",
    "ArtifactCache",
    "ServerSession",
    "BatchDispatcher",
    "HEServer",
    "WorkerPool",
    "WorkerStats",
    "ServerClient",
    "RetryPolicy",
    "submit_with_retry",
    "demo_deployment",
    "mixed_square_multiply_traffic",
    "modelled_capacity_rps",
    "serve_traffic",
]
