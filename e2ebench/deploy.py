"""Client-side CKKS deployment, the seeded input pool and the expected
results every response is checked against."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .schedule import VARIANTS
from .spec import SERVE_DEFAULTS

__all__ = ["Deployment", "Pool", "Expected", "build_pool", "make_request",
           "routine_call", "routine_expected", "TOLERANCE", "DECRYPT_EVERY",
           "ROTATE_STEPS"]

#: Decrypted results must match NumPy on the plain inputs (uniform in
#: [-1, 1]) within this.  Scale 2**30 leaves key-switched results ~1e-3 of
#: noise at the larger shapes (rotate: 1.3e-3 at N=8192/L8, 3.9e-3 at
#: N=16384/L4 on some keys), so 1e-3 would fail correct results; a wrong
#: result is off by ~1, and every result is also compared bit for bit.
TOLERANCE = 1e-2
#: Every this-many-th result is also decrypted and compared to NumPy.
DECRYPT_EVERY = 16
#: Galois keys uploaded with the session; rotate requests use these steps.
ROTATE_STEPS = (1, 2)
_POOL_SIZE = 4


class Deployment:
    """Context, keys and the secret-key side for one (degree, levels).

    Seeded: the same seed gives the same keys, so ciphertexts encrypted
    under one ``Deployment`` decrypt under another built from that seed.
    """

    def __init__(self, degree: int, levels: int, seed: int):
        from repro.core import (
            CkksContext, CkksEncoder, CkksParameters, Decryptor, Encryptor,
            Evaluator, KeyGenerator,
        )

        with warnings.catch_warnings():
            # L8 at N=8192 is the paper's benchmark shape, below 128-bit
            # security; the parameter class warns about it.
            warnings.simplefilter("ignore")
            self.params = CkksParameters.default(
                degree=degree, levels=levels,
                scale_bits=SERVE_DEFAULTS["scale_bits"],
                first_bits=SERVE_DEFAULTS["first_bits"],
                special_bits=SERVE_DEFAULTS["special_bits"])
        self.context = CkksContext(self.params)
        keygen = KeyGenerator(self.context, seed=seed)
        self.encoder = CkksEncoder(self.context)
        self.encryptor = Encryptor(self.context, keygen.public_key(),
                                   seed=seed + 1)
        self.decryptor = Decryptor(self.context, keygen.secret_key())
        self.relin = keygen.relin_key()
        self.galois = keygen.galois_keys(list(ROTATE_STEPS),
                                         include_conjugate=False)
        self.evaluator = Evaluator(self.context)

    def key_wires(self) -> Tuple[bytes, bytes]:
        """Serialized (relin, galois) keys for the session hello."""
        from repro.core.serialize import (
            save_galois_keys, save_relin_key, to_bytes,
        )

        return (to_bytes(save_relin_key, self.relin),
                to_bytes(save_galois_keys, self.galois))

    def encrypt(self, values: np.ndarray):
        return self.encryptor.encrypt(self.encoder.encode(values))

    def decrypt(self, ct) -> np.ndarray:
        return self.encoder.decode(self.decryptor.decrypt(ct)).real


@dataclass
class Expected:
    cts: list             # the request's input ciphertexts
    meta: dict            # request metadata (rotate steps)
    result: object        # local Evaluator result, compared bit for bit
    plain: np.ndarray     # NumPy on the plain inputs


@dataclass
class Pool:
    values: List[np.ndarray]
    cts: list
    #: (op, variant) -> Expected, VARIANTS per op
    expected: Dict[Tuple[str, int], Expected]


def build_pool(dep: Deployment, seed: int, ops) -> Pool:
    """Seeded plaintexts in [-1, 1], their encryptions, and for each served
    op ``VARIANTS`` (inputs, expected result) pairs computed locally.

    ``multiply`` and ``square`` are the server's relinearize-and-rescale
    ops (the paper's MulLinRS / SqrLinRS).
    """
    rng = np.random.default_rng([seed, dep.context.degree])
    values = [rng.uniform(-1.0, 1.0, size=dep.encoder.slots)
              for _ in range(_POOL_SIZE)]
    cts = [dep.encrypt(v) for v in values]
    ev, rlk, gk = dep.evaluator, dep.relin, dep.galois
    expected: Dict[Tuple[str, int], Expected] = {}
    for op in ops:
        for v in range(VARIANTS):
            i, j = v % _POOL_SIZE, (v // 2 + 1) % _POOL_SIZE
            a, b, x, y = cts[i], cts[j], values[i], values[j]
            if op == "add":
                exp = Expected([a, b], {}, ev.add(a, b), x + y)
            elif op == "multiply":
                exp = Expected(
                    [a, b], {},
                    ev.rescale(ev.relinearize(ev.multiply(a, b), rlk)), x * y)
            elif op == "square":
                exp = Expected(
                    [a], {}, ev.rescale(ev.relinearize(ev.square(a), rlk)),
                    x * x)
            elif op == "rotate":
                steps = ROTATE_STEPS[(v // _POOL_SIZE) % len(ROTATE_STEPS)]
                exp = Expected([a], {"steps": steps}, ev.rotate(a, steps, gk),
                               np.roll(x, -steps))
            else:
                exp = routine_expected(dep, op, a, b, x, y,
                                        values[(i + 2) % _POOL_SIZE])
            expected[(op, v)] = exp
    return Pool(values, cts, expected)


def make_request(pool: Pool, plan, request_id: str, client_id: str,
                 arrival_us: float = 0.0):
    """The ``ServeRequest`` for one planned (op, variant) of the pool."""
    from repro.server.request import ServeRequest

    exp = pool.expected[(plan.op, plan.variant)]
    return ServeRequest(request_id=request_id, op=plan.op, cts=exp.cts,
                        meta=dict(exp.meta), client_id=client_id,
                        arrival_us=arrival_us)


def routine_call(routines, op: str, exp: Expected):
    """Invoke paper routine ``op`` of an ``HERoutines`` on ``exp``'s inputs."""
    fn = routines.by_name(op)
    return fn(exp.cts[0], exp.meta["steps"]) if op == "Rotate" else fn(*exp.cts)


def routine_expected(dep: Deployment, op: str, a, b, x, y, z) -> Expected:
    """Inputs and reference for one of the paper's five routines.

    The reference is the routine's own first result (later invocations
    must reproduce it bit for bit) next to NumPy on the plain inputs.
    """
    from repro.core import HERoutines

    routines = HERoutines(dep.evaluator, dep.relin, dep.galois)
    if op in ("MulLin", "MulLinRS"):
        exp = Expected([a, b], {}, None, x * y)
    elif op == "SqrLinRS":
        exp = Expected([a], {}, None, x * x)
    elif op == "MulLinRSModSwAdd":
        # The addend is encoded at the product's post-rescale scale, as
        # the routine requires.
        scale = routines.mul_lin_rs(a, b).scale
        c = dep.encryptor.encrypt(dep.encoder.encode(z, scale=scale))
        exp = Expected([a, b, c], {}, None, x * y + z)
    elif op == "Rotate":
        exp = Expected([a], {"steps": 1}, None, np.roll(x, -1))
    else:
        raise ValueError(f"no expected result for op {op!r}")
    exp.result = routine_call(routines, op, exp)
    return exp
