"""Vectorized radix-2 negacyclic NTT (forward Cooley-Tukey, inverse GS).

The forward transform takes coefficients in natural order and produces NTT
values in bit-reversed order; the inverse consumes that same order, so
element-wise products between transforms are position-consistent (the
SEAL/HEXL convention).

Two laziness levels, mirroring the paper's kernels:

* ``lazy=True``  — outputs in ``[0, 4p)`` (forward) / ``[0, 2p)`` (inverse),
  skipping the final correction: this is what the fused "last round
  processing" kernels consume;
* ``lazy=False`` — fully reduced outputs in ``[0, p)``.

All functions operate on the last axis and broadcast over leading axes,
so a whole RNS row batch transforms in one call.  The ``*_stacked``
variants go one axis further: with :class:`~repro.ntt.tables.StackedNTTTables`
the limb axis (second-to-last) is transformed too, so each butterfly
stage runs *once* for every prime of the base and every ciphertext
component in front — the packed-RNS hot path.  Stacked results are
bit-identical to the per-row transforms (same butterfly sequences, same
laziness windows), which ``tests/test_packed_ab.py`` enforces.
"""

from __future__ import annotations

import numpy as np

from ..modmath import Modulus
from ..modmath.harvey import reduce_from_lazy
from ..modmath.scratch import ScratchRegistry
from ..modmath.uint128 import mul_high, mul_low, wrapping
from ..native import backend as _backend
from .tables import NTTTables, StackedNTTTables

__all__ = [
    "ntt_forward",
    "ntt_inverse",
    "ntt_forward_stacked",
    "ntt_inverse_stacked",
    "forward_stage",
    "inverse_stage",
    "naive_ntt_rounds",
    "scratch_pool_info",
    "clear_scratch_pool",
]


@wrapping
def _mul_lazy_vec(y, w, wq, p):
    """Array-W Harvey lazy product: result in [0, 2p)."""
    q = mul_high(wq, y)
    return mul_low(w, y) - mul_low(q, p)


@wrapping
def _ct_butterfly_vec(x, y, w, wq, p, two_p):
    """Lazy CT butterfly with array twiddles; [0,4p) -> [0,4p)."""
    x = np.where(x >= two_p, x - two_p, x)
    t = _mul_lazy_vec(y, w, wq, p)
    return x + t, x - t + two_p


@wrapping
def _gs_butterfly_vec(x, y, w, wq, p, two_p):
    """Lazy GS butterfly with array twiddles; [0,2p) -> [0,2p)."""
    s = x + y
    s = np.where(s >= two_p, s - two_p, s)
    d = x + two_p - y
    return s, _mul_lazy_vec(d, w, wq, p)


def forward_stage(x: np.ndarray, tables: NTTTables, m: int) -> None:
    """Apply one forward stage (``m`` groups) in place.

    ``m`` is the power-of-two stage index: 1, 2, 4, ..., n/2.  The exchange
    distance is ``t = n / (2m)`` — the paper's ``gap``.
    """
    n = tables.degree
    t = n // (2 * m)
    p = tables.modulus.u64
    two_p = np.uint64(2 * tables.modulus.value)
    lead = x.shape[:-1]
    v = x.reshape(lead + (m, 2, t))
    w = tables.w[m : 2 * m].reshape((1,) * len(lead) + (m, 1))
    wq = tables.wq[m : 2 * m].reshape((1,) * len(lead) + (m, 1))
    xo, yo = _ct_butterfly_vec(v[..., 0, :], v[..., 1, :], w, wq, p, two_p)
    v[..., 0, :] = xo
    v[..., 1, :] = yo


def inverse_stage(x: np.ndarray, tables: NTTTables, h: int) -> None:
    """Apply one inverse (GS) stage with ``h`` groups in place."""
    n = tables.degree
    t = n // (2 * h)
    p = tables.modulus.u64
    two_p = np.uint64(2 * tables.modulus.value)
    lead = x.shape[:-1]
    v = x.reshape(lead + (h, 2, t))
    w = tables.iw[h : 2 * h].reshape((1,) * len(lead) + (h, 1))
    wq = tables.iwq[h : 2 * h].reshape((1,) * len(lead) + (h, 1))
    xo, yo = _gs_butterfly_vec(v[..., 0, :], v[..., 1, :], w, wq, p, two_p)
    v[..., 0, :] = xo
    v[..., 1, :] = yo


def ntt_forward(x: np.ndarray, tables: NTTTables, *, lazy: bool = False) -> np.ndarray:
    """Out-of-place forward negacyclic NTT over the last axis."""
    n = tables.degree
    if x.shape[-1] != n:
        raise ValueError(f"last axis must be {n}, got {x.shape[-1]}")
    out = np.array(x, dtype=np.uint64, copy=True)
    m = 1
    while m < n:
        forward_stage(out, tables, m)
        m <<= 1
    if not lazy:
        out = reduce_from_lazy(out, tables.modulus)
    return out


@wrapping
def ntt_inverse(x: np.ndarray, tables: NTTTables, *, lazy: bool = False) -> np.ndarray:
    """Out-of-place inverse negacyclic NTT over the last axis."""
    n = tables.degree
    if x.shape[-1] != n:
        raise ValueError(f"last axis must be {n}, got {x.shape[-1]}")
    out = np.array(x, dtype=np.uint64, copy=True)
    h = n // 2
    while h >= 1:
        inverse_stage(out, tables, h)
        h >>= 1
    # Final scaling by n^{-1} (SEAL folds this into the last stage; we keep
    # it explicit for clarity — the performance model accounts it fused).
    op = tables.n_inv
    p = tables.modulus.u64
    q = mul_high(np.uint64(op.quotient), out)
    out = mul_low(np.uint64(op.operand), out) - mul_low(q, p)
    if not lazy:
        out = reduce_from_lazy(out, tables.modulus)
    else:
        out = np.where(out >= p + p, out - (p + p), out)
    return out


_U32S = np.uint64(32)
_M32 = np.uint64(0xFFFFFFFF)


def _check_stacked(x: np.ndarray, st: StackedNTTTables) -> int:
    if x.shape[-1] != st.degree:
        raise ValueError(f"last axis must be {st.degree}, got {x.shape[-1]}")
    if x.ndim < 2:
        raise ValueError("stacked transform expects (..., k, n) input")
    k = x.shape[-2]
    if k != len(st):
        raise ValueError(
            f"limb axis is {k} but tables stack {len(st)} limbs "
            "(use StackedNTTTables.prefix)"
        )
    return k


class _StageScratch:
    """Preallocated buffers for one stacked transform invocation.

    NumPy temporaries at stack sizes (hundreds of KiB) fall over the
    allocator's mmap threshold, so expression-style butterflies spend
    more time in page faults than arithmetic.  Every stage of the
    stacked kernels therefore runs through these reused buffers with
    explicit ``out=`` ufunc calls — identical value sequences, zero
    per-op allocation.
    """

    __slots__ = ("flat", "mask", "count")

    def __init__(self, count: int):
        self.count = count
        self.flat = np.empty((7, count), dtype=np.uint64)
        self.mask = np.empty(count, dtype=bool)

    @property
    def nbytes(self) -> int:
        return self.flat.nbytes + self.mask.nbytes

    def stage(self, shape):
        bufs = [b.reshape(shape) for b in self.flat]
        return bufs, self.mask.reshape(shape)


#: Per-thread scratch caches so repeated transforms reuse warm pages,
#: globally byte-bounded (LRU across threads) so long-lived worker pools
#: cannot accumulate one unbounded pool per thread.
_SCRATCH = ScratchRegistry("ntt-radix2")


def _get_scratch(count: int) -> _StageScratch:
    return _SCRATCH.get(count, _StageScratch)


def scratch_pool_info():
    """Live scratch accounting: ``threads``, ``buffers``, ``bytes``."""
    return _SCRATCH.info()


def clear_scratch_pool():
    """Drop every thread's cached stage buffers (tests, trim-memory)."""
    _SCRATCH.clear()


def _cond_sub_into(x, bound, mask, scratch, out) -> None:
    """``out = x - bound if x >= bound else x`` in two mask-free passes.

    Valid whenever ``bound <= 2**63`` (always: bound is ``p`` or ``2p``
    with ``p < 2**61``): if ``x >= bound`` the subtraction is the
    smaller value; otherwise it wraps above ``2**63 > x`` and the
    minimum keeps ``x``.  Identical values to the reference
    ``np.where``, ~2.5x cheaper (``mask`` is kept for signature
    stability; it is unused).
    """
    np.subtract(x, bound, out=scratch)
    np.minimum(scratch, x, out=out)


def _lazy_mul_into(y, w, wq_hi, wq_lo, p, out, s0, s1, s2, s3, s4) -> None:
    """Harvey lazy product ``w*y - mulhi(wq, y)*p (mod 2**64)`` into ``out``.

    Bit-identical to :func:`_mul_lazy_vec` (the 32x32 partial-product
    emulation of ``mulhi``), but allocation-free.  ``out`` may alias
    ``y``; it must not alias any scratch buffer.
    """
    np.right_shift(y, _U32S, out=s0)   # y_hi
    np.bitwise_and(y, _M32, out=s1)    # y_lo
    np.multiply(wq_lo, s1, out=s2)     # ll
    np.multiply(wq_lo, s0, out=s3)     # lh
    np.multiply(wq_hi, s1, out=s4)     # hl
    np.multiply(wq_hi, s0, out=s0)     # hh (y_hi dead)
    np.right_shift(s2, _U32S, out=s2)
    np.bitwise_and(s3, _M32, out=s1)
    np.add(s2, s1, out=s2)
    np.bitwise_and(s4, _M32, out=s1)
    np.add(s2, s1, out=s2)             # mid = (ll>>32) + (lh&M) + (hl&M)
    np.right_shift(s2, _U32S, out=s2)
    np.right_shift(s3, _U32S, out=s3)
    np.right_shift(s4, _U32S, out=s4)
    np.add(s0, s3, out=s0)
    np.add(s0, s4, out=s0)
    np.add(s0, s2, out=s0)             # q = mulhi(wq, y)
    np.multiply(w, y, out=s1)          # w*y (wrapping)
    np.multiply(s0, p, out=s2)         # q*p (wrapping)
    np.subtract(s1, s2, out=out)       # t in [0, 2p)


#: Stages whose trailing axis is at most this long run on contiguous
#: scratch copies of the strided x/y butterfly views: two extra strided
#: passes buy ~24 contiguous ones, a net win everywhere except the very
#: first stages whose views are already near-contiguous (tuned at
#: N=4096, level 8).
_COPY_THROUGH_T = 512


def ntt_forward_stacked(
    x: np.ndarray, st: StackedNTTTables, *, lazy: bool = False
) -> np.ndarray:
    """Out-of-place forward NTT of a whole ``(..., k, n)`` limb stack.

    Runs the selected backend's kernel table: one compiled call for the
    whole stage chain (native), :func:`ntt_forward_packed` (packed), or
    :func:`ntt_forward` row by row (serial).  Laziness semantics and
    output values are the same in all three, bit for bit.
    """
    _check_stacked(x, st)
    return _backend.kernels().ntt_forward(x, st, lazy=lazy)


def ntt_inverse_stacked(
    x: np.ndarray, st: StackedNTTTables, *, lazy: bool = False
) -> np.ndarray:
    """Out-of-place inverse NTT of a whole ``(..., k, n)`` limb stack.

    Dispatches like :func:`ntt_forward_stacked`; bit-identical to
    :func:`ntt_inverse` applied row by row.
    """
    _check_stacked(x, st)
    return _backend.kernels().ntt_inverse(x, st, lazy=lazy)


@wrapping
def ntt_forward_packed(
    x: np.ndarray, st: StackedNTTTables, *, lazy: bool = False
) -> np.ndarray:
    """The packed-table body of :func:`ntt_forward_stacked`.

    Each butterfly stage is a single vectorized pass across all ``k``
    limbs (and any leading ciphertext-component axes): the per-limb
    twiddle grids broadcast (or are materialized) per stage and the
    per-limb moduli broadcast from ``(k, 1, 1)`` columns.
    """
    k = len(st)
    n = st.degree
    out = np.array(x, dtype=np.uint64, copy=True)
    lead = out.shape[:-2]
    batch = int(np.prod(lead, dtype=np.int64)) if lead else 1
    p = st.p3
    two_p = st.two_p3
    scratch = _get_scratch(batch * k * (n // 2))
    m = 1
    while m < n:
        t = n // (2 * m)
        v = out.reshape(lead + (k, m, 2, t))
        w, wq_hi, wq_lo = st.stage_twiddles(m, forward=True)
        xv = v[..., 0, :]
        yv = v[..., 1, :]
        (t0, s0, s1, s2, s3, s4, c), mask = scratch.stage(lead + (k, m, t))
        if 1 < t <= _COPY_THROUGH_T:
            np.copyto(c, xv)                     # contiguous x
            np.copyto(t0, yv)                    # contiguous y
            _lazy_mul_into(t0, w, wq_hi, wq_lo, p, t0, s0, s1, s2, s3, s4)
            _cond_sub_into(c, two_p, mask, s0, c)
            np.add(c, t0, out=xv)                # x' = x + t
            np.subtract(c, t0, out=c)
            np.add(c, two_p, out=yv)             # y' = x - t + 2p
        else:
            _lazy_mul_into(yv, w, wq_hi, wq_lo, p, t0, s0, s1, s2, s3, s4)
            _cond_sub_into(xv, two_p, mask, s0, c)   # x in [0,4p) -> [0,2p)
            np.add(c, t0, out=xv)
            np.subtract(c, t0, out=c)
            np.add(c, two_p, out=yv)
        m <<= 1
    if not lazy:
        _reduce_from_lazy_inplace(out, st, scratch)
    return out


@wrapping
def ntt_inverse_packed(
    x: np.ndarray, st: StackedNTTTables, *, lazy: bool = False
) -> np.ndarray:
    """The packed-table body of :func:`ntt_inverse_stacked`."""
    k = len(st)
    n = st.degree
    out = np.array(x, dtype=np.uint64, copy=True)
    lead = out.shape[:-2]
    batch = int(np.prod(lead, dtype=np.int64)) if lead else 1
    p = st.p3
    two_p = st.two_p3
    scratch = _get_scratch(batch * k * (n // 2))
    h = n // 2
    while h >= 1:
        t = n // (2 * h)
        v = out.reshape(lead + (k, h, 2, t))
        w, wq_hi, wq_lo = st.stage_twiddles(h, forward=False)
        xv = v[..., 0, :]
        yv = v[..., 1, :]
        (t0, s0, s1, s2, s3, s4, c), mask = scratch.stage(lead + (k, h, t))
        if 1 < t <= _COPY_THROUGH_T:
            np.copyto(s1, xv)                    # contiguous x
            np.copyto(s2, yv)                    # contiguous y
            np.add(s1, s2, out=c)                # s = x + y in [0, 4p)
            _cond_sub_into(c, two_p, mask, s0, c)
            np.add(s1, two_p, out=t0)
            np.subtract(t0, s2, out=t0)          # d = x + 2p - y
            _lazy_mul_into(t0, w, wq_hi, wq_lo, p, t0, s0, s1, s2, s3, s4)
            np.copyto(yv, t0)                    # y' = W * d (lazy)
            np.copyto(xv, c)                     # x' = s
        else:
            np.add(xv, yv, out=c)                # s = x + y in [0, 4p)
            _cond_sub_into(c, two_p, mask, s0, c)
            np.add(xv, two_p, out=t0)
            np.subtract(t0, yv, out=t0)          # d = x + 2p - y
            _lazy_mul_into(t0, w, wq_hi, wq_lo, p, yv, s0, s1, s2, s3, s4)
            np.copyto(xv, c)                     # x' = s
        h >>= 1
    # Final scaling by n^{-1} with per-limb Harvey operands, run over the
    # two contiguous halves so the half-size stage buffers fit.
    half = n // 2
    p2 = st.modulus.u64
    for sl in (np.s_[..., :half], np.s_[..., half:]):
        v = out[sl]
        (t0, s0, s1, s2, s3, s4, c), mask = scratch.stage(v.shape)
        _lazy_mul_into(v, st.ninv_w, st.ninv_q_hi, st.ninv_q_lo, p2,
                       v, s0, s1, s2, s3, s4)
        if not lazy:
            _cond_sub_into(v, st.modulus.two_p, mask, s0, v)
            _cond_sub_into(v, p2, mask, s0, v)
        else:
            _cond_sub_into(v, st.modulus.two_p, mask, s0, v)
    return out


def _reduce_from_lazy_inplace(
    out: np.ndarray, st: StackedNTTTables, scratch: _StageScratch
) -> None:
    """In-place "last round processing": ``[0, 4p)`` -> ``[0, p)``.

    Runs over the two contiguous halves of the last axis so the
    half-size stage buffers can be reused; values match
    :func:`~repro.modmath.harvey.reduce_from_lazy`.
    """
    half = st.degree // 2
    p = st.modulus.u64
    two_p = st.modulus.two_p
    for sl in (np.s_[..., :half], np.s_[..., half:]):
        v = out[sl]
        bufs, mask = scratch.stage(v.shape)
        _cond_sub_into(v, two_p, mask, bufs[0], v)
        _cond_sub_into(v, p, mask, bufs[0], v)


def naive_ntt_rounds(x: np.ndarray, tables: NTTTables) -> list:
    """The paper's Fig. 6 naive kernel: one global round per stage.

    Returns the list of intermediate arrays (one per round) so tests and
    the performance model can audit per-round global traffic; the final
    entry is the fully reduced transform.
    """
    n = tables.degree
    snapshots = []
    out = np.array(x, dtype=np.uint64, copy=True)
    m = 1
    while m < n:
        forward_stage(out, tables, m)
        snapshots.append(out.copy())
        m <<= 1
    out = reduce_from_lazy(out, tables.modulus)  # "last round processing"
    snapshots.append(out)
    return snapshots
