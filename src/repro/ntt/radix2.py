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
dispatchers go one axis further: with :class:`~repro.ntt.tables.StackedNTTTables`
the limb axis (second-to-last) is transformed too, in one call to the
selected kernel table — the compiled stage chain (native) or
:func:`ntt_forward`/:func:`ntt_inverse` row by row (serial).  Both are
bit-identical (same butterfly sequences, same laziness windows), which
``tests/test_backend_ab.py`` enforces.
"""

from __future__ import annotations

import numpy as np

from ..modmath.harvey import reduce_from_lazy
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


def ntt_forward_stacked(
    x: np.ndarray, st: StackedNTTTables, *, lazy: bool = False
) -> np.ndarray:
    """Out-of-place forward NTT of a whole ``(..., k, n)`` limb stack.

    Runs the selected backend's kernel table: one compiled call for the
    whole stage chain (native) or :func:`ntt_forward` row by row
    (serial).  Laziness semantics and output values are the same in
    both, bit for bit.
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
