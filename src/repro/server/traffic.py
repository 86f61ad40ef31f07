"""Synthetic serving traffic, shared by self-tests, benchmarks and tests.

One canonical workload recipe — a Poisson-ish arrival process of square
and multiply requests over fresh encryptions — used by the
``python -m repro serve``, ``fuse`` and ``metrics`` commands,
``benchmarks/bench_ablation_fusion.py`` and the fusion test suite, so
all of them exercise the *same* request mix and a change to the recipe
lands everywhere at once.

Requests are returned as encoded wire frames: submitting the same bytes
to two servers (e.g. fusion off vs on, admission off vs on, streaming vs
barrier) guarantees bit-identical inputs for A/B comparisons.  The
overload harness additions: ``priority_cycle`` / ``deadline_ms`` stamp
QoS fields into the frames, :func:`modelled_capacity_rps` measures the
pool's sustainable throughput, and :func:`serve_traffic` grows
``admission`` / ``stream`` knobs so the soak tests and the CI bench
drive the exact same recipe.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..gpu.profiles import GpuConfig
from ..xesim.devices import DEVICE1
from .admission import AdmissionPolicy
from .batcher import BatchPolicy
from .dispatcher import HEServer
from .request import ServeRequest, encode_request

__all__ = [
    "TrafficItem",
    "demo_deployment",
    "demo_params",
    "mixed_square_multiply_traffic",
    "modelled_capacity_rps",
    "serve_traffic",
]


def demo_params(degree: int = 1024):
    """The demo deployment's parameters: 3 levels, 30/50/50-bit primes.

    What ``python -m repro serve`` serves, with or without ``--listen``.
    """
    from ..core import CkksParameters

    return CkksParameters.default(degree=degree, levels=3, scale_bits=30,
                                  first_bits=50, special_bits=50)


def demo_deployment(*, degree: int = 1024, seed: int = 2022):
    """A small CKKS deployment for self-tests and benchmarks.

    NOT secure parameters — test scale only.  One recipe
    (:func:`demo_params`, seed convention) shared by the CLI and the CI
    benchmark so their A/B runs compare the same deployment.

    Returns ``(params, encoder, encryptor, decryptor, relin_wire)``.
    """
    from ..core import (
        CkksContext,
        CkksEncoder,
        Decryptor,
        Encryptor,
        KeyGenerator,
    )
    from ..core.serialize import save_relin_key, to_bytes

    params = demo_params(degree)
    context = CkksContext(params)
    keygen = KeyGenerator(context, seed=seed)
    encoder = CkksEncoder(context)
    encryptor = Encryptor(context, keygen.public_key(), seed=seed + 1)
    decryptor = Decryptor(context, keygen.secret_key())
    relin_wire = to_bytes(save_relin_key, keygen.relin_key())
    return params, encoder, encryptor, decryptor, relin_wire

#: (request id, encoded request frame, arrival us, expected plaintext).
TrafficItem = Tuple[str, bytes, float, np.ndarray]


def mixed_square_multiply_traffic(
    encoder,
    encryptor,
    *,
    requests: int,
    rng: np.random.Generator,
    mean_gap_us: float = 25.0,
    priority_cycle: Optional[Sequence[int]] = None,
    deadline_ms: Optional[float] = None,
) -> List[TrafficItem]:
    """Frame ``requests`` operations: every third a multiply, rest squares.

    Same-op requests at the same level make the batch groupable by the
    cross-request launch batcher; the multiply minority keeps more than
    one chain shape in flight.  Arrival gaps are exponential with mean
    ``mean_gap_us`` (bursty enough to batch under a ~200 us window).
    ``priority_cycle`` assigns priorities round-robin (e.g. ``(1, 0)``
    alternates urgent/normal); ``deadline_ms`` stamps the same relative
    deadline on every request.  Both default to off so existing A/B
    recipes are unchanged byte-for-byte.
    """
    if requests < 1:
        raise ValueError("requests must be >= 1")
    frames: List[TrafficItem] = []
    t_us = 0.0
    for i in range(requests):
        t_us += float(rng.exponential(mean_gap_us))
        priority = (priority_cycle[i % len(priority_cycle)]
                    if priority_cycle else 0)
        if i % 3 == 2:
            a = rng.normal(size=encoder.slots)
            b = rng.normal(size=encoder.slots)
            req = ServeRequest(f"r{i}", "multiply",
                               [encryptor.encrypt(encoder.encode(a)),
                                encryptor.encrypt(encoder.encode(b))],
                               priority=priority, deadline_ms=deadline_ms)
            expected = a * b
        else:
            v = rng.normal(size=encoder.slots)
            req = ServeRequest(f"r{i}", "square",
                               [encryptor.encrypt(encoder.encode(v))],
                               priority=priority, deadline_ms=deadline_ms)
            expected = v * v
        frames.append((req.request_id, encode_request(req), t_us, expected))
    return frames


def modelled_capacity_rps(
    params,
    frames: Sequence[TrafficItem],
    *,
    relin_wire: Optional[bytes] = None,
    devices: Sequence[tuple] = ((DEVICE1, 2),),
    max_batch: int = 8,
    window_us: float = 200.0,
) -> float:
    """The pool's sustainable throughput on this workload (req/s).

    Replays the given frames as one tight back-to-back burst (arrival
    gaps collapsed to 1 us) so the server is throughput-bound, then
    reads the served rate off the simulated clock.  This is the
    ``rate_rps`` an :class:`~repro.server.admission.AdmissionPolicy`
    should carry: offered load above it queues without bound.
    """
    server = HEServer(
        params,
        devices=list(devices),
        policy=BatchPolicy(max_batch=max_batch, window_us=window_us),
    )
    if relin_wire is not None:
        server.install_relin_key(relin_wire)
    for i, (_rid, wire, _arrival, _expected) in enumerate(frames):
        server.submit(wire, arrival_us=float(i))
    server.drain()
    return server.metrics.throughput_rps


def serve_traffic(
    params,
    frames: Sequence[TrafficItem],
    *,
    kernel_fusion: bool = False,
    relin_wire: Optional[bytes] = None,
    devices: Sequence[tuple] = ((DEVICE1, 2),),
    max_batch: int = 8,
    window_us: float = 200.0,
    admission: Optional[AdmissionPolicy] = None,
    stream: bool = False,
    workers: int = 0,
) -> HEServer:
    """Serve pre-framed traffic on a fresh server; returns it drained.

    The A/B harness shared by ``python -m repro fuse``/``metrics``,
    ``benchmarks/bench_ablation_fusion.py``, the overload bench and the
    serving tests: one place defines the device pool, batching policy
    and GPU config, so the CLI self-tests and the CI benchmarks cannot
    silently diverge.  Call twice on the same ``frames`` with a knob
    flipped (``kernel_fusion``, ``admission``, ``stream``, ``workers``)
    for a bit-exact comparison — ``workers >= 2`` fans the ciphertext
    math across a real thread pool without changing any response.
    """
    server = HEServer(
        params,
        devices=list(devices),
        policy=BatchPolicy(max_batch=max_batch, window_us=window_us),
        gpu_config=GpuConfig(ntt_variant="local-radix-8", asm=True,
                             kernel_fusion=kernel_fusion),
        admission=admission,
        workers=workers,
    )
    if relin_wire is not None:
        server.install_relin_key(relin_wire)
    for _rid, wire, arrival_us, _expected in frames:
        server.submit(wire, arrival_us=arrival_us)
    try:
        if stream:
            for _resp in server.stream():
                pass
        else:
            server.drain()
    finally:
        server.close()
    return server
