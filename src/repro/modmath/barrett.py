"""Barrett reduction of 64- and 128-bit values, vectorized over uint64.

Implements the SEAL sequence (``util/uintarithsmallmod.h``): the division
by ``p`` is replaced with two high multiplies against the precomputed
``const_ratio = floor(2**128 / p)``, followed by at most one conditional
subtraction.  The paper leans on exactly this transform ("Barrett reduction
... transforms the division operation to the less expensive multiplication
operation", Sec. III-A).
"""

from __future__ import annotations

import numpy as np

from ..native import backend as _backend
from .modulus import Modulus
from .stacked import StackedModulus
from .uint128 import add_carry, mul_high, mul_low, mul_wide, wrapping

__all__ = ["barrett_reduce_64", "barrett_reduce_128", "conditional_sub"]


@wrapping
def conditional_sub(x, modulus):
    """Reduce ``x`` from ``[0, 2p)`` to ``[0, p)`` with one compare+select."""
    if isinstance(modulus, StackedModulus):
        return _backend.kernels().conditional_sub(x, modulus)
    x = np.asarray(x, dtype=np.uint64)
    p = modulus.u64
    return np.where(x >= p, x - p, x)


@wrapping
def barrett_reduce_64(x, modulus):
    """Reduce ``x < 2**64`` modulo ``p``.

    Uses the single-word Barrett variant: ``q = mulhi(x, ratio_hi)`` is
    within 1 of the true quotient, so one conditional subtract finishes.
    """
    if isinstance(modulus, StackedModulus):
        return _backend.kernels().barrett_reduce_64(x, modulus)
    x = np.asarray(x, dtype=np.uint64)
    q = mul_high(x, modulus.ratio_hi)
    r = x - q * modulus.u64
    return conditional_sub(r, modulus)


@wrapping
def barrett_reduce_128(hi, lo, modulus):
    """Reduce a 128-bit value ``hi:lo`` modulo ``p`` (SEAL's sequence).

    Parameters are uint64 arrays (broadcastable).  Requires ``hi < p`` is
    *not* necessary — any 128-bit input is handled, as long as ``p`` has at
    most 61 bits so the quotient estimate is off by at most one.
    """
    if isinstance(modulus, StackedModulus):
        return _backend.kernels().barrett_reduce_128(hi, lo, modulus)
    hi = np.asarray(hi, dtype=np.uint64)
    lo = np.asarray(lo, dtype=np.uint64)
    r0 = modulus.ratio_hi
    r1 = modulus.ratio_lo
    p = modulus.u64

    # Round 1: carry = hi64(lo * ratio[0]) -- note SEAL stores the ratio as
    # (ratio[0]=lo word, ratio[1]=hi word); our names: r1 is low, r0 is high.
    carry = mul_high(lo, r1)
    t2_hi, t2_lo = mul_wide(lo, r0)
    tmp1, c = add_carry(t2_lo, carry)
    tmp3 = t2_hi + c

    # Round 2
    t2_hi, t2_lo = mul_wide(hi, r1)
    tmp1, c = add_carry(tmp1, t2_lo)
    carry = t2_hi + c

    # Quotient estimate (low word is all we need).
    tmp1 = mul_low(hi, r0) + tmp3 + carry

    # Remainder candidate in [0, 2p).
    rem = lo - tmp1 * p
    return conditional_sub(rem, modulus)
