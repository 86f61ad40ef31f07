"""Private linear inference: encrypted features, plaintext model.

One of the paper's motivating applications (Sec. I: privacy-preserving
machine learning).  The client encrypts a feature vector; the server
evaluates ``scores = W x + b`` homomorphically using:

* ``multiply_plain`` — weights stay in plaintext (model is public to the
  server);
* rotate-and-add tree — sums the slot-wise products into slot 0, the
  standard CKKS inner-product pattern (log2(dim) rotations);
* optional sigmoid approximation ``0.5 + 0.15 x`` (degree-1) for a
  logistic-regression score, keeping multiplicative depth at 2.

Everything runs on the functional GPU evaluator, so callers get both the
decrypted scores and the simulated device timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..core.ciphertext import Ciphertext
from ..core.decryptor import Decryptor
from ..core.encoder import CkksEncoder
from ..core.encryptor import Encryptor
from ..core.evaluator import Evaluator
from ..core.keys import GaloisKeys, RelinKey
from ..gpu.gpu_evaluator import GpuEvaluator
from ..gpu.profiles import GpuConfig
from ..xesim.device import DeviceSpec

__all__ = ["LinearModel", "InferenceResult", "encrypted_inference",
           "rotation_steps_needed", "ServedInferenceResult", "served_inference"]


@dataclass(frozen=True)
class LinearModel:
    """Row-major weights ``(classes, dim)`` and per-class bias."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise ValueError("weights must be (classes, dim), bias (classes,)")

    @property
    def classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def reference_scores(self, x: np.ndarray) -> np.ndarray:
        return self.weights @ x + self.bias


@dataclass(frozen=True)
class InferenceResult:
    """Decrypted scores with the simulated device time."""

    scores: np.ndarray
    device_time_s: float
    rotations_used: int


def rotation_steps_needed(dim: int) -> List[int]:
    """Power-of-two steps for the rotate-and-add inner-product tree."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    steps = []
    s = 1
    while s < dim:
        steps.append(s)
        s <<= 1
    return steps


def encrypted_inference(
    x: Sequence[float],
    model: LinearModel,
    *,
    encoder: CkksEncoder,
    encryptor: Encryptor,
    decryptor: Decryptor,
    evaluator: Evaluator,
    relin_key: RelinKey,
    galois_keys: GaloisKeys,
    device: DeviceSpec,
    config: GpuConfig | None = None,
) -> InferenceResult:
    """Compute ``W x + b`` on an encrypted ``x``; returns decrypted scores.

    The feature dimension must be a power of two not exceeding the slot
    count (zero-pad the features/weights otherwise).
    """
    x = np.asarray(x, dtype=np.float64)
    dim = len(x)
    if dim & (dim - 1):
        raise ValueError("feature dimension must be a power of two")
    if model.dim != dim:
        raise ValueError("model dimension does not match features")
    config = config or GpuConfig(ntt_variant="local-radix-8", asm=True)
    gpu_ev = GpuEvaluator(evaluator, device, config)

    slots = encoder.slots
    padded = np.zeros(slots)
    padded[:dim] = x
    ct_x = encryptor.encrypt(encoder.encode(padded))

    rotations = 0
    scores = []
    for c in range(model.classes):
        w_row = np.zeros(slots)
        w_row[:dim] = model.weights[c]
        prod = gpu_ev.ev.multiply_plain(ct_x, encoder.encode(w_row))
        # Rotate-and-add: after the tree, slot 0 holds the inner product.
        acc: Ciphertext = prod
        for step in rotation_steps_needed(dim):
            rotated = gpu_ev.rotate(acc, step, galois_keys)
            acc = gpu_ev.add(acc, rotated)
            rotations += 1
        decoded = encoder.decode(decryptor.decrypt(acc))
        scores.append(decoded[0].real + model.bias[c])

    return InferenceResult(
        scores=np.array(scores),
        device_time_s=gpu_ev.device_time,
        rotations_used=rotations,
    )


# -- private inference as a service (repro.server) ---------------------------


@dataclass(frozen=True)
class ServedInferenceResult:
    """Decrypted scores with the serving-layer telemetry."""

    scores: np.ndarray
    metrics: "object"          # repro.server.ServerMetrics
    request_ids: List[str]


def served_inference(
    x: Sequence[float],
    model: LinearModel,
    *,
    params,
    encoder: CkksEncoder,
    encryptor: Encryptor,
    decryptor: Decryptor,
    relin_key: RelinKey,
    galois_keys: GaloisKeys,
    devices=None,
    policy=None,
    priority: int = 0,
    deadline_ms=None,
    stream: bool = False,
) -> ServedInferenceResult:
    """``W x + b`` through the batched HE serving subsystem.

    Private-inference-as-a-service: the client opens a serving *session*
    (wire handshake) carrying its evaluation keys, the model's weight
    rows are installed server-side as cached plaintext artifacts in the
    session's keyspace, then one ``dot_plain`` request per output class
    ships the encrypted features; the server batches the per-class
    requests across its device pool.  Requires Galois keys for the
    power-of-two steps of the rotate-and-add tree
    (``rotation_steps_needed(model.dim)``).  ``priority`` /
    ``deadline_ms`` stamp the serving QoS fields on every per-class
    request; ``stream=True`` consumes responses through the streaming
    path (per-class results release as tiles finish) instead of the
    drain barrier — scores are identical either way.
    """
    from ..server import BatchPolicy, HEServer, ServerClient

    x = np.asarray(x, dtype=np.float64)
    if model.dim != len(x):
        raise ValueError("model dimension does not match features")
    if model.dim & (model.dim - 1):
        raise ValueError("feature dimension must be a power of two")

    server = HEServer(
        ServerClient.params_wire(params),
        devices=devices,
        policy=policy or BatchPolicy(max_batch=max(2, model.classes),
                                     window_us=100.0),
    )
    client = ServerClient(
        server, encoder=encoder, encryptor=encryptor, decryptor=decryptor,
        client_id="inference",
    )
    client.open_session(relin_key=relin_key, galois_keys=galois_keys)
    for c in range(model.classes):
        server.install_weights(f"class{c}", model.weights[c],
                               client_id=client.client_id)

    ids = [client.submit_dot(x, f"class{c}", arrival_us=float(c),
                             priority=priority, deadline_ms=deadline_ms)
           for c in range(model.classes)]
    if stream:
        for _resp in client.stream():
            pass
    else:
        client.serve()
    scores = np.array(
        [client.result(rid)[0].real + model.bias[c]
         for c, rid in enumerate(ids)]
    )
    return ServedInferenceResult(scores=scores, metrics=server.metrics,
                                 request_ids=list(ids))
