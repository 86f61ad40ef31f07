"""Vectorized CRT composition/decomposition for polynomial residue matrices.

A polynomial in RNS form is a ``(k, n)`` uint64 matrix: row ``i`` holds the
coefficients modulo ``q_i``.  These helpers move whole polynomials between
that representation and exact big-integer / signed-centered forms.  They are
used at the edges of the pipeline (encode, decode, decrypt) — never in the
GPU hot path, mirroring Fig. 1 of the paper where encode/decode stay on the
host CPU.

:func:`compose_poly` / :func:`compose_signed_poly` are the exact Python
big-integer reference.  The decoder uses :func:`compose_signed_float`
instead: the floating-point CRT of Halevi, Polyakov and Shoup ("An
Improved RNS Variant of the BFV Scheme", CT-RSA 2019) guesses the centred
value of each column in int64 with whole-array NumPy passes, then
*certifies* it — the guess is congruent to every residue and lies in the
centred range ``(-q/2, q/2]``, so it is the unique centred representative
and its float64 rounding is Python's ``float(int)``.  Columns that fail
the certificate (a wrong quotient guess, or ``|x| >= 2**63``) take the
exact reference for those columns only, so the result is bit-identical to
``np.array(compose_signed_poly(m, base), dtype=np.float64)``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, NamedTuple, Sequence

import numpy as np

from ..modmath import StackedModulus, mul_mod
from .base import RNSBase

__all__ = [
    "decompose_poly",
    "decompose_signed_poly",
    "compose_poly",
    "compose_signed_poly",
    "compose_signed_float",
]


def decompose_poly(coeffs: Sequence[int], base: RNSBase) -> np.ndarray:
    """Reduce integer coefficients into an RNS matrix of shape ``(k, n)``.

    ``coeffs`` may be arbitrary Python ints (positive or negative); each is
    reduced into ``[0, q_i)`` per modulus.
    """
    n = len(coeffs)
    out = np.empty((len(base), n), dtype=np.uint64)
    for i, m in enumerate(base):
        p = m.value
        out[i] = np.array([int(c) % p for c in coeffs], dtype=np.uint64)
    return out


def decompose_signed_poly(coeffs: np.ndarray, base: RNSBase) -> np.ndarray:
    """Fast path for int64 coefficient arrays (e.g. rounded encodings)."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    out = np.empty((len(base), coeffs.shape[-1]), dtype=np.uint64)
    for i, m in enumerate(base):
        p = np.int64(m.value) if m.value < 2**63 else None
        if p is None:  # pragma: no cover - moduli are < 2^61 by construction
            raise ValueError("modulus too large for signed fast path")
        r = coeffs % p  # Python-style modulo: result in [0, p)
        out[i] = r.astype(np.uint64)
    return out


def compose_poly(matrix: np.ndarray, base: RNSBase) -> List[int]:
    """CRT-interpolate each column of the RNS matrix to ``[0, q)`` ints."""
    k, n = matrix.shape
    if k != len(base):
        raise ValueError("matrix row count does not match base size")
    q = base.product
    acc = [0] * n
    for i, m in enumerate(base):
        scale = base.inv_punctured[i]
        punc = base.punctured[i]
        row = matrix[i]
        p = m.value
        for j in range(n):
            acc[j] += (int(row[j]) * scale % p) * punc
    return [a % q for a in acc]


def compose_signed_poly(matrix: np.ndarray, base: RNSBase) -> List[int]:
    """CRT-interpolate to *centered* representatives in ``(-q/2, q/2]``."""
    q = base.product
    half = base.half_q()
    return [c - q if c > half else c for c in compose_poly(matrix, base)]


_U64 = 1 << 64
_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


class _FloatCRT(NamedTuple):
    """Per-base constants of :func:`compose_signed_float`."""

    stacked: StackedModulus
    inv_punc: np.ndarray     # (k, 1) uint64: (q/q_i)^-1 mod q_i
    punc_u64: np.ndarray     # (k, 1) uint64: (q/q_i) mod 2^64
    q_u64: np.uint64         # q mod 2^64
    q_f64: np.ndarray        # (k, 1) float64: q_i
    q_i64: np.ndarray        # (k, 1) int64: q_i
    lo: int                  # centred range (-q/2, q/2] clipped to int64
    hi: int


@lru_cache(maxsize=64)
def _float_crt(base: RNSBase) -> _FloatCRT:
    q = base.product
    half = base.half_q()
    return _FloatCRT(
        stacked=base.stacked,
        inv_punc=np.array(base.inv_punctured, dtype=np.uint64)[:, None],
        punc_u64=np.array([p % _U64 for p in base.punctured],
                          dtype=np.uint64)[:, None],
        q_u64=np.uint64(q % _U64),
        q_f64=np.array(base.values, dtype=np.float64)[:, None],
        q_i64=np.array(base.values, dtype=np.int64)[:, None],
        lo=max(half - q + 1, _I64_MIN),
        hi=min(half, _I64_MAX),
    )


def compose_signed_float(matrix: np.ndarray, base: RNSBase) -> np.ndarray:
    """Centred CRT composition straight to float64, without big ints.

    Returns exactly ``np.array(compose_signed_poly(matrix, base),
    dtype=np.float64)``.  With ``y_i = x_i * (q/q_i)^-1 mod q_i`` (one
    stacked ``mul_mod``, so the active backend runs it), the integer
    ``sum_i y_i * q/q_i`` is ``x + alpha*q`` with ``alpha = rint(sum_i
    y_i / q_i)`` estimated in float64; the candidate ``x`` is formed in
    wrapping uint64 arithmetic and kept only where it is certified (see
    the module docstring).  Uncertified columns go through
    :func:`compose_signed_poly`.
    """
    matrix = np.asarray(matrix, dtype=np.uint64)
    if matrix.shape[0] != len(base):
        raise ValueError("matrix row count does not match base size")
    c = _float_crt(base)
    y = mul_mod(matrix, c.inv_punc, c.stacked)
    alpha = np.rint((y / c.q_f64).sum(axis=0)).astype(np.uint64)
    cand = ((y * c.punc_u64).sum(axis=0, dtype=np.uint64)
            - alpha * c.q_u64).view(np.int64)
    ok = ((cand % c.q_i64).view(np.uint64) == matrix).all(axis=0)
    ok &= (cand >= c.lo) & (cand <= c.hi)
    out = cand.astype(np.float64)
    bad = np.flatnonzero(~ok)
    if bad.size:
        out[bad] = np.array(compose_signed_poly(matrix[:, bad], base),
                            dtype=np.float64)
    return out
