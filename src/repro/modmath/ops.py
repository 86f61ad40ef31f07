"""Core vectorized modular operations: add, sub, neg, mul, mad.

These are the Python counterparts of the paper's GPU device functions:

* ``add_mod`` / ``sub_mod`` — the Fig. 3 sequences (compare + conditional
  add/sub, no division);
* ``mul_mod`` — 64x64->128 emulated multiply + Barrett reduction;
* ``mad_mod`` — the paper's *fused modular multiply-add* (Sec. III-A.1):
  one reduction after ``a*b + c`` instead of two.  Safe because operands
  are < 2**61, so ``a*b + c < 2**122 + 2**61`` still fits in 128 bits.

All functions operate element-wise on uint64 arrays and return uint64.
Inputs are expected in ``[0, p)`` unless stated otherwise.

Each function accepts either a scalar :class:`Modulus` or a
:class:`~repro.modmath.stacked.StackedModulus`: the stacked variant's
``(k, 1)`` constant columns broadcast per-limb constants across every
residue row of a ``(..., k, n)`` stack in a single call (the packed-RNS
hot path).  Stacked calls run the selected backend's kernel table
(:func:`repro.native.backend.kernels`); the scalar bodies below are the
reference every table is held bit-identical to.
"""

from __future__ import annotations

import numpy as np

from ..native import backend as _backend
from .barrett import barrett_reduce_128, conditional_sub
from .modulus import Modulus
from .stacked import StackedModulus
from .uint128 import add_carry, mul_wide, wrapping

__all__ = [
    "add_mod",
    "sub_mod",
    "neg_mod",
    "mul_mod",
    "mad_mod",
    "dot_mod",
    "pow_mod",
    "inv_mod",
]


def add_mod(a, b, modulus):
    """``(a + b) mod p`` for ``a, b`` in ``[0, p)`` with ``p < 2**63``.

    Matches Fig. 3(b): add, compare, predicated subtract — three ops.
    """
    if isinstance(modulus, StackedModulus):
        return _backend.kernels().add_mod(a, b, modulus)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    s = a + b  # p < 2^63 so no wraparound for in-range inputs
    return conditional_sub(s, modulus)


@wrapping
def sub_mod(a, b, modulus):
    """``(a - b) mod p`` for ``a, b`` in ``[0, p)``."""
    if isinstance(modulus, StackedModulus):
        return _backend.kernels().sub_mod(a, b, modulus)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    p = modulus.u64
    d = a + p - b
    return conditional_sub(d, modulus)


@wrapping
def neg_mod(a, modulus):
    """``(-a) mod p`` for ``a`` in ``[0, p)``."""
    if isinstance(modulus, StackedModulus):
        return _backend.kernels().neg_mod(a, modulus)
    a = np.asarray(a, dtype=np.uint64)
    p = modulus.u64
    return np.where(a == 0, np.uint64(0), p - a)


def mul_mod(a, b, modulus):
    """``(a * b) mod p`` via wide multiply + 128-bit Barrett reduction."""
    if isinstance(modulus, StackedModulus):
        return _backend.kernels().mul_mod(a, b, modulus)
    hi, lo = mul_wide(a, b)
    return barrett_reduce_128(hi, lo, modulus)


@wrapping
def mad_mod(a, b, c, modulus):
    """Fused ``(a * b + c) mod p`` with a single reduction.

    The paper's ``mad_mod`` (Sec. III-A.1): the 128-bit product is extended
    by ``c`` before the one Barrett reduction, halving the number of modular
    reductions on the multiply-accumulate chains that dominate HE dyadic
    kernels.  Correct whenever ``a, b < 2**61`` and ``c < 2**63``.
    """
    if isinstance(modulus, StackedModulus):
        return _backend.kernels().mad_mod(a, b, c, modulus)
    hi, lo = mul_wide(a, b)
    lo, carry = add_carry(lo, np.asarray(c, dtype=np.uint64))
    hi = hi + carry
    return barrett_reduce_128(hi, lo, modulus)


def pow_mod(base: int, exponent: int, modulus: Modulus) -> int:
    """Scalar modular exponentiation (tables / precompute only)."""
    return pow(int(base) % modulus.value, int(exponent), modulus.value)


def inv_mod(a: int, modulus: Modulus) -> int:
    """Scalar modular inverse; raises ``ValueError`` if not invertible."""
    a = int(a) % modulus.value
    if a == 0:
        raise ValueError("0 has no modular inverse")
    g = np.gcd(a, modulus.value)
    if int(g) != 1:
        raise ValueError(f"{a} is not invertible mod {modulus.value}")
    return pow(a, -1, modulus.value)


@wrapping
def dot_mod(a, b, modulus):
    """Modular inner product ``sum_i a_i * b_i mod p`` with lazy accumulation.

    The vector form of the paper's mad_mod argument: instead of reducing
    after every multiply-add, partial products accumulate as a 128-bit
    (hi, lo) pair and a *single* Barrett reduction finishes the chain.
    Safe for any length: the 128-bit accumulator wraps modulo 2**128 only
    after ~2**6 terms of 61-bit operands, so we fold with one reduction
    every 32 terms.

    With a scalar :class:`Modulus`, ``a`` and ``b`` are 1-D uint64 arrays
    with entries in ``[0, p)``.  With a :class:`StackedModulus`, ``a``
    and ``b`` are ``(k, n)`` residue matrices and the result is the
    ``(k,)`` vector of per-limb inner products — every limb's 128-bit
    accumulation advances in the same NumPy call (the packed-RNS fast
    path), bit-identical to calling the 1-D form row by row.
    """
    if isinstance(modulus, StackedModulus):
        return _dot_mod_stacked(a, b, modulus)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("dot_mod expects equal-length 1-D arrays")
    acc = np.uint64(0)
    chunk = 32  # 32 * (2^61)^2 < 2^127: the 128-bit accumulator is safe
    for start in range(0, len(a), chunk):
        hi_acc = np.uint64(0)
        lo_acc = np.uint64(0)
        ah = a[start : start + chunk]
        bh = b[start : start + chunk]
        hi, lo = mul_wide(ah, bh)
        for i in range(len(ah)):
            lo_acc, carry = add_carry(lo_acc, lo[i])
            hi_acc = hi_acc + hi[i] + carry
        partial = barrett_reduce_128(hi_acc, lo_acc, modulus)
        acc = add_mod(acc, partial, modulus)
    return acc


@wrapping
def _dot_mod_stacked(a, b, modulus: StackedModulus):
    """Per-limb inner products over a ``(k, n)`` stack in ``O(n)`` NumPy calls.

    Accumulation order within each limb matches the scalar path exactly
    (and 128-bit accumulation modulo 2**128 is order-exact anyway), so
    the result is bit-identical to the per-limb loop.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError("stacked dot_mod expects equal-shape (k, n) matrices")
    k, n = a.shape
    if k != len(modulus):
        raise ValueError(f"matrix has {k} rows but stack has {len(modulus)} limbs")
    flat = modulus.with_trailing(0)
    acc = np.zeros(k, dtype=np.uint64)
    chunk = 32  # same safety window as the scalar path
    for start in range(0, n, chunk):
        hi, lo = mul_wide(a[:, start : start + chunk], b[:, start : start + chunk])
        hi_acc = np.zeros(k, dtype=np.uint64)
        lo_acc = np.zeros(k, dtype=np.uint64)
        for i in range(hi.shape[1]):
            lo_acc, carry = add_carry(lo_acc, lo[:, i])
            hi_acc = hi_acc + hi[:, i] + carry
        partial = barrett_reduce_128(hi_acc, lo_acc, flat)
        acc = add_mod(acc, partial, flat)
    return acc
