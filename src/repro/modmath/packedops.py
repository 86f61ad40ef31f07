"""Allocation-free packed-RNS kernels behind :mod:`repro.modmath.ops`.

Every kernel computes the *same canonical values* as the scalar-modulus
reference code (``ops.py`` / ``barrett.py``) — the A/B property suite
compares them limb by limb — but the execution strategy is tuned for
whole-tensor stacks:

* every intermediate lands in a reused per-thread buffer via explicit
  ``out=`` ufunc calls (at packed sizes a NumPy expression temporary
  falls over the allocator's mmap threshold and the hot path spends
  more time page-faulting than computing);
* ``np.where`` is replaced by a compare + masked-multiply + subtract
  sequence (~5x cheaper, identical values);
* per-limb constants come pre-broadcast to full width
  (:meth:`StackedModulus.materialized`) so no pass pays the ``(k, 1)``
  column-broadcast penalty;
* the 128-bit reduction runs as ``Harvey(hi; W = 2**64 mod p)`` plus a
  64-bit Barrett of ``lo`` and two conditional subtracts — fewer passes
  than the two-round 128-bit Barrett, the same exact ``x mod p``;
* the ciphertext tensor product fuses its cross term: the two 128-bit
  cross products are added *before* the one reduction (the paper's
  mad_mod argument applied across components).

These are the bodies of the ``packed`` kernel table
(:mod:`repro.native.tables`); the public ``add_mod``/``mul_mod``/...
entry points reach them through :func:`repro.native.backend.kernels`,
which under the native backend offers each call to the compiled library
first.  All tables produce bit-identical outputs (three-way A/B suite
in ``tests/test_packed_ab.py``).
"""

from __future__ import annotations

import numpy as np

from .scratch import ScratchRegistry
from .stacked import StackedModulus

__all__ = [
    "add_mod_stacked",
    "sub_mod_stacked",
    "neg_mod_stacked",
    "mul_mod_stacked",
    "mad_mod_stacked",
    "conditional_sub_stacked",
    "barrett_reduce_64_stacked",
    "barrett_reduce_128_stacked",
    "mul_mod_operand_stacked",
    "dyadic_product_stacked",
    "dyadic_square_stacked",
    "scratch_pool_info",
    "clear_scratch_pool",
]

_U32 = np.uint64(32)
_M32 = np.uint64(0xFFFFFFFF)

#: Buffers a single kernel may hold at once (the fused tensor product
#: keeps three 128-bit products alive while combining them).
_POOL_DEPTH = 14

#: Materialize full-width constants only when the trailing axis is long
#: enough to amortize the copies (tiny stacks keep the (k, 1) columns).
_MATERIALIZE_MIN_N = 256

#: Per-thread pools of reusable kernel buffers, globally byte-bounded so
#: a long-lived worker pool (one warm pool per thread, forever) cannot
#: leak — eviction is LRU across *all* threads' pools.
_SCRATCH = ScratchRegistry("packedops")


class _Buffers:
    __slots__ = ("flat", "mask", "count")

    def __init__(self, count: int):
        self.count = count
        self.flat = np.empty((_POOL_DEPTH, count), dtype=np.uint64)
        self.mask = np.empty(count, dtype=bool)

    @property
    def nbytes(self) -> int:
        return self.flat.nbytes + self.mask.nbytes

    def shaped(self, shape):
        return [b.reshape(shape) for b in self.flat], self.mask.reshape(shape)


def _buffers(shape):
    count = 1
    for dim in shape:
        count *= int(dim)
    return _SCRATCH.get(count, _Buffers).shaped(shape)


def scratch_pool_info():
    """Live scratch accounting: ``threads``, ``buffers``, ``bytes``."""
    return _SCRATCH.info()


def clear_scratch_pool():
    """Drop every thread's cached kernel buffers (tests, trim-memory)."""
    _SCRATCH.clear()


class _Consts:
    """Per-limb constants for one call: full-width or column views."""

    __slots__ = ("p", "two_p", "rhi", "rhi_hi", "rhi_lo",
                 "c64", "c64q_hi", "c64q_lo")

    def __init__(self, st: StackedModulus, shape):
        if (
            st.trailing == 1
            and len(shape) >= 2
            and shape[-2] == len(st)
            and shape[-1] >= _MATERIALIZE_MIN_N
        ):
            mats = st.materialized(shape[-1])
            self.p = mats["p"]
            self.two_p = mats["two_p"]
            self.rhi = mats["rhi"]
            self.rhi_hi = mats["rhi_hi"]
            self.rhi_lo = mats["rhi_lo"]
            self.c64 = mats["c64"]
            self.c64q_hi = mats["c64q_hi"]
            self.c64q_lo = mats["c64q_lo"]
        else:
            self.p = st.u64
            self.two_p = st.two_p
            self.rhi = st.ratio_hi
            self.rhi_hi = st.ratio_hi_hi
            self.rhi_lo = st.ratio_hi_lo
            self.c64 = st.c64
            self.c64q_hi = st.c64q_hi
            self.c64q_lo = st.c64q_lo


def _setup(modulus: StackedModulus, *operands):
    """Broadcast operands to the packed shape; fetch buffers + constants."""
    arrs = [np.asarray(a, dtype=np.uint64) for a in operands]
    shape = np.broadcast_shapes(*(a.shape for a in arrs), modulus.u64.shape)
    arrs = [np.broadcast_to(a, shape) for a in arrs]
    bufs, mask = _buffers(shape)
    return arrs, shape, bufs, mask, _Consts(modulus, shape)


def _cond_sub(x, bound, scratch, out) -> None:
    """``out = x - bound if x >= bound else x`` in two mask-free passes.

    Valid whenever ``bound <= 2**63`` (always: bound is ``p`` or ``2p``
    with ``p < 2**61``): if ``x >= bound`` then ``x - bound < x``; else
    the subtraction wraps above ``2**63 > x``.  Either way the minimum
    picks the reference ``np.where`` value exactly.
    """
    np.subtract(x, bound, out=scratch)
    np.minimum(scratch, x, out=out)


def _mul_wide_into(a, b, hi, lo, s0, s1, s2, s3, s4) -> None:
    """128-bit product of two full arrays (reference ``mul_wide`` sequence).

    ``hi``/``lo`` must not alias ``a``/``b`` or the scratch buffers.
    """
    np.right_shift(a, _U32, out=s0)    # a_hi
    np.bitwise_and(a, _M32, out=s1)    # a_lo
    np.right_shift(b, _U32, out=s2)    # b_hi
    np.bitwise_and(b, _M32, out=s3)    # b_lo
    np.multiply(s1, s3, out=s4)        # ll
    np.multiply(s1, s2, out=s1)        # lh
    np.multiply(s0, s3, out=s3)        # hl
    np.multiply(s0, s2, out=hi)        # hh
    # mid = (ll >> 32) + (lh & M) + (hl & M)
    np.right_shift(s4, _U32, out=s0)
    np.bitwise_and(s1, _M32, out=s2)
    np.add(s0, s2, out=s0)
    np.bitwise_and(s3, _M32, out=s2)
    np.add(s0, s2, out=s0)             # mid
    # lo = (ll & M) | ((mid & M) << 32)
    np.bitwise_and(s4, _M32, out=s4)
    np.bitwise_and(s0, _M32, out=s2)
    np.left_shift(s2, _U32, out=s2)
    np.bitwise_or(s4, s2, out=lo)
    # hi = hh + (lh >> 32) + (hl >> 32) + (mid >> 32)
    np.right_shift(s1, _U32, out=s1)
    np.right_shift(s3, _U32, out=s3)
    np.right_shift(s0, _U32, out=s0)
    np.add(hi, s1, out=hi)
    np.add(hi, s3, out=hi)
    np.add(hi, s0, out=hi)


def _mulhi_const_into(x_hi, x_lo, c_hi, c_lo, hi, s0, s1, s2, s3) -> None:
    """``hi = mulhi(x, c)`` with ``x`` pre-split and ``c`` pre-split constants."""
    np.multiply(x_lo, c_lo, out=s0)    # ll
    np.multiply(x_lo, c_hi, out=s1)    # lh
    np.multiply(x_hi, c_lo, out=s2)    # hl
    np.multiply(x_hi, c_hi, out=hi)    # hh
    np.right_shift(s0, _U32, out=s0)
    np.bitwise_and(s1, _M32, out=s3)
    np.add(s0, s3, out=s0)
    np.bitwise_and(s2, _M32, out=s3)
    np.add(s0, s3, out=s0)             # mid
    np.right_shift(s0, _U32, out=s0)
    np.right_shift(s1, _U32, out=s1)
    np.right_shift(s2, _U32, out=s2)
    np.add(hi, s1, out=hi)
    np.add(hi, s2, out=hi)
    np.add(hi, s0, out=hi)


def _reduce128_into(hi, lo, K: _Consts, out, bufs, mask) -> None:
    """Exact ``(hi * 2**64 + lo) mod p``, canonical in ``[0, p)``.

    ``t1 = Harvey(hi; W = 2**64 mod p)`` lands in ``[0, 2p)``; ``r2``
    is the 64-bit Barrett of ``lo`` in ``[0, p)``; their sum (< 3p,
    no wrap since p < 2**61) folds down with two conditional
    subtractions.  Same value as the SEAL two-round sequence in
    ``barrett_reduce_128``, in ~20 fewer array passes.

    Uses buffers 0-7 only; ``hi``/``lo`` may live in buffers 8-11.
    """
    b0, b1, b2, b3, b4, b5, b6, b7 = bufs[:8]
    # t1 = c64 * hi - mulhi(c64q, hi) * p
    np.right_shift(hi, _U32, out=b0)
    np.bitwise_and(hi, _M32, out=b1)
    _mulhi_const_into(b0, b1, K.c64q_hi, K.c64q_lo, b5, b2, b3, b4, b6)
    np.multiply(hi, K.c64, out=b2)
    np.multiply(b5, K.p, out=b3)
    np.subtract(b2, b3, out=b2)        # t1 in [0, 2p)
    # r2 = lo - mulhi(lo, ratio_hi) * p, kept lazy in [0, 2p)
    np.right_shift(lo, _U32, out=b0)
    np.bitwise_and(lo, _M32, out=b1)
    _mulhi_const_into(b0, b1, K.rhi_hi, K.rhi_lo, b5, b3, b4, b6, b7)
    np.multiply(b5, K.p, out=b3)
    np.subtract(lo, b3, out=b3)        # r2 in [0, 2p)
    # s = t1 + r2 in [0, 4p) (< 2**63, no wrap); two conditional
    # subtracts reach the canonical [0, p).
    np.add(b2, b3, out=b2)
    _cond_sub(b2, K.two_p, b4, b2)
    _cond_sub(b2, K.p, b4, out)


def add_mod_stacked(a, b, modulus: StackedModulus):
    (a, b), shape, bufs, mask, K = _setup(modulus, a, b)
    out = np.empty(shape, dtype=np.uint64)
    np.add(a, b, out=bufs[0])
    _cond_sub(bufs[0], K.p, bufs[1], out)
    return out


def sub_mod_stacked(a, b, modulus: StackedModulus):
    (a, b), shape, bufs, mask, K = _setup(modulus, a, b)
    out = np.empty(shape, dtype=np.uint64)
    np.add(a, K.p, out=bufs[0])
    np.subtract(bufs[0], b, out=bufs[0])
    _cond_sub(bufs[0], K.p, bufs[1], out)
    return out


def neg_mod_stacked(a, modulus: StackedModulus):
    (a,), shape, bufs, mask, K = _setup(modulus, a)
    out = np.empty(shape, dtype=np.uint64)
    # (p - a) * (a != 0): matches np.where(a == 0, 0, p - a) exactly.
    np.not_equal(a, np.uint64(0), out=mask)
    np.subtract(K.p, a, out=bufs[0])
    np.multiply(bufs[0], mask, out=out)
    return out


def conditional_sub_stacked(x, modulus: StackedModulus):
    (x,), shape, bufs, mask, K = _setup(modulus, x)
    out = np.empty(shape, dtype=np.uint64)
    _cond_sub(x, K.p, bufs[0], out)
    return out


def barrett_reduce_64_stacked(x, modulus: StackedModulus):
    (x,), shape, bufs, mask, K = _setup(modulus, x)
    out = np.empty(shape, dtype=np.uint64)
    b0, b1, b2, b3, b4, b5, b6 = bufs[:7]
    # q = mulhi(x, ratio_hi); r = x - q * p; one conditional subtract.
    np.right_shift(x, _U32, out=b0)
    np.bitwise_and(x, _M32, out=b1)
    _mulhi_const_into(b0, b1, K.rhi_hi, K.rhi_lo, b5, b2, b3, b4, b6)
    np.multiply(b5, K.p, out=b5)
    np.subtract(x, b5, out=b1)
    _cond_sub(b1, K.p, b0, out)
    return out


def barrett_reduce_128_stacked(hi, lo, modulus: StackedModulus):
    (hi, lo), shape, bufs, mask, K = _setup(modulus, hi, lo)
    out = np.empty(shape, dtype=np.uint64)
    _reduce128_into(hi, lo, K, out, bufs, mask)
    return out


def mul_mod_stacked(a, b, modulus: StackedModulus):
    (a, b), shape, bufs, mask, K = _setup(modulus, a, b)
    out = np.empty(shape, dtype=np.uint64)
    hi, lo = bufs[10], bufs[11]
    _mul_wide_into(a, b, hi, lo, *bufs[:5])
    _reduce128_into(hi, lo, K, out, bufs, mask)
    return out


def mad_mod_stacked(a, b, c, modulus: StackedModulus):
    (a, b, c), shape, bufs, mask, K = _setup(modulus, a, b, c)
    out = np.empty(shape, dtype=np.uint64)
    hi, lo = bufs[10], bufs[11]
    _mul_wide_into(a, b, hi, lo, *bufs[:5])
    # lo, carry = add_carry(lo, c); hi += carry
    np.add(lo, c, out=bufs[0])
    np.less(bufs[0], lo, out=mask)
    np.copyto(lo, bufs[0])
    np.add(hi, mask, out=hi)
    _reduce128_into(hi, lo, K, out, bufs, mask)
    return out


def mul_mod_operand_stacked(x, w, wq_hi, wq_lo, modulus: StackedModulus):
    """Exact ``w * x mod p`` for a fixed per-limb operand ``w`` (Harvey).

    ``w`` and the split Harvey quotient ``wq`` broadcast against ``x``
    (typically ``(k, 1)`` columns).  One ``mulhi`` + two low multiplies
    + one conditional subtract — the fast path for constant multiplies
    such as the rescale ``d^{-1}`` scaling.  Value-identical to
    ``mul_mod(x, w, modulus)``.
    """
    (x,), shape, bufs, mask, K = _setup(modulus, x)
    w = np.asarray(w, dtype=np.uint64)
    wq_hi = np.asarray(wq_hi, dtype=np.uint64)
    wq_lo = np.asarray(wq_lo, dtype=np.uint64)
    out = np.empty(shape, dtype=np.uint64)
    b0, b1, b2, b3, b4, b5, b6 = bufs[:7]
    np.right_shift(x, _U32, out=b0)
    np.bitwise_and(x, _M32, out=b1)
    _mulhi_const_into(b0, b1, wq_hi, wq_lo, b5, b2, b3, b4, b6)
    np.multiply(w, x, out=b0)          # w*x (wrapping)
    np.multiply(b5, K.p, out=b1)       # q*p (wrapping)
    np.subtract(b0, b1, out=b0)        # Harvey lazy product in [0, 2p)
    _cond_sub(b0, K.p, b1, out)
    return out


def lazy_diff_mul_operand_stacked(m, r_lazy, w, wq_hi, wq_lo,
                                  modulus: StackedModulus):
    """``w * (m - r) mod p`` with ``r`` given lazily in ``[0, 4p)``.

    The divide-and-round tail: ``y = m + 4p - r_lazy`` stays positive
    (``m < p``, so ``y`` in ``(0, 5p]``, no wrap for ``p < 2**61``) and
    congruent to ``m - r``; Harvey's lazy product with the fixed
    per-limb operand ``w`` then lands in ``[0, 2p)`` and one
    conditional subtract reaches the canonical value — identical to
    ``mul_mod(sub_mod(m, reduce(r_lazy)), w)`` without ever fully
    reducing the NTT output.
    """
    (m, r_lazy), shape, bufs, mask, K = _setup(modulus, m, r_lazy)
    w = np.asarray(w, dtype=np.uint64)
    wq_hi = np.asarray(wq_hi, dtype=np.uint64)
    wq_lo = np.asarray(wq_lo, dtype=np.uint64)
    out = np.empty(shape, dtype=np.uint64)
    b0, b1, b2, b3, b4, b5, b6, b7 = bufs[:8]
    # y = m + 4p - r_lazy
    np.add(K.two_p, K.two_p, out=b7)
    np.add(m, b7, out=b7)
    np.subtract(b7, r_lazy, out=b7)
    # Harvey lazy product with the constant operand, then one subtract.
    np.right_shift(b7, _U32, out=b0)
    np.bitwise_and(b7, _M32, out=b1)
    _mulhi_const_into(b0, b1, wq_hi, wq_lo, b5, b2, b3, b4, b6)
    np.multiply(w, b7, out=b0)
    np.multiply(b5, K.p, out=b1)
    np.subtract(b0, b1, out=b0)        # in [0, 2p)
    _cond_sub(b0, K.p, b1, out)
    return out


def dyadic_product_stacked(a0, a1, b0, b1, modulus: StackedModulus):
    """The ciphertext tensor product ``(a0 b0, a0 b1 + a1 b0, a1 b1)``.

    Karatsuba over the component axis: the cross term is computed as
    ``(a0+a1)(b0+b1) - a0 b0 - a1 b1`` at 128-bit precision — one wide
    multiply and one reduction instead of two of each (the operand sums
    stay < 2**62, so the 124-bit product is exact, and the difference
    never underflows).  Canonically identical to
    ``add_mod(mul_mod(a0,b1), mul_mod(a1,b0))`` for the cross term.
    """
    (a0, a1, b0, b1), shape, bufs, mask, K = _setup(modulus, a0, a1, b0, b1)
    out = np.empty((3,) + shape, dtype=np.uint64)
    hiA, loA = bufs[10], bufs[11]
    hiB, loB = bufs[8], bufs[9]
    hiC, loC = bufs[12], bufs[13]
    _mul_wide_into(a0, b0, hiA, loA, *bufs[:5])
    _reduce128_into(hiA, loA, K, out[0], bufs, mask)
    _mul_wide_into(a1, b1, hiB, loB, *bufs[:5])
    _reduce128_into(hiB, loB, K, out[2], bufs, mask)
    # (a0 + a1) * (b0 + b1): sums < 2p < 2**62 need no reduction.
    np.add(a0, a1, out=bufs[6])
    np.add(b0, b1, out=bufs[7])
    _mul_wide_into(bufs[6], bufs[7], hiC, loC, *bufs[:5])
    # 128-bit subtract of both square terms (the difference is the
    # non-negative cross sum, so no global underflow).
    for h2, l2 in ((hiA, loA), (hiB, loB)):
        np.less(loC, l2, out=mask)         # borrow
        np.subtract(loC, l2, out=loC)
        np.subtract(hiC, h2, out=hiC)
        np.subtract(hiC, mask, out=hiC)
    _reduce128_into(hiC, loC, K, out[1], bufs, mask)
    return out


def dyadic_square_stacked(a0, a1, modulus: StackedModulus):
    """``(a0^2, 2 a0 a1, a1^2)`` — the squaring tensor product.

    The doubled cross term is one 128-bit shift-free add before a single
    reduction; canonically identical to ``add_mod(c, c)`` with
    ``c = mul_mod(a0, a1)``.
    """
    (a0, a1), shape, bufs, mask, K = _setup(modulus, a0, a1)
    out = np.empty((3,) + shape, dtype=np.uint64)
    hi, lo = bufs[10], bufs[11]
    _mul_wide_into(a0, a0, hi, lo, *bufs[:5])
    _reduce128_into(hi, lo, K, out[0], bufs, mask)
    _mul_wide_into(a1, a1, hi, lo, *bufs[:5])
    _reduce128_into(hi, lo, K, out[2], bufs, mask)
    _mul_wide_into(a0, a1, hi, lo, *bufs[:5])
    # Double the 128-bit product: (hi:lo) + (hi:lo).
    np.less(np.uint64(0x7FFFFFFFFFFFFFFF), lo, out=mask)  # carry of lo+lo
    np.add(lo, lo, out=lo)
    np.add(hi, hi, out=hi)
    np.add(hi, mask, out=hi)
    _reduce128_into(hi, lo, K, out[1], bufs, mask)
    return out
