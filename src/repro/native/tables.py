"""The two kernel tables behind :func:`repro.native.backend.kernels`.

Every stacked entry point — ``add/sub/neg/mul/mad_mod`` and the Barrett
reductions on a ``StackedModulus``, the tensor products, the constant-
operand multiplies, the stacked NTTs, the key-switch decompose and the
scaler tail — reads its implementation from one :class:`KernelTable`.
The tables share one surface and one set of output values:

``NATIVE``
    Each entry offers the call to the compiled library
    (:mod:`repro.native.glue`) and falls through to the serial body when
    the glue declines it (``None``: no library, ineligible shape, or an
    injected kernel fault).
``SERIAL``
    The per-limb oracle: a row loop over the scalar-``Modulus``
    reference kernels, with the textbook tensor-product cross term
    ``add(mul(a0, b1), mul(a1, b0))``, row-by-row transforms, and the
    canonical ``mul(sub(m, reduce(r)), d^-1)`` divide-round tail.  The
    two composites (``ks_decompose``, ``scaler_tail``) are plain
    sequences of stacked entry points.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from ..modmath import barrett, ops
from ..modmath.harvey import reduce_from_lazy
from ..ntt import radix2
from . import glue

__all__ = ["KernelTable", "NATIVE", "SERIAL", "TABLES"]


class KernelTable(NamedTuple):
    """One backend's implementation of every stacked kernel entry point.

    The elementwise entries take broadcastable uint64 operands and a
    ``StackedModulus``; the transforms take a ``(..., k, n)`` stack and
    ``StackedNTTTables``.  Field names are the keys of
    :data:`repro.native.glue.KERNELS`.
    """

    name: str
    add_mod: Callable
    sub_mod: Callable
    neg_mod: Callable
    conditional_sub: Callable
    barrett_reduce_64: Callable
    barrett_reduce_128: Callable
    mul_mod: Callable
    mad_mod: Callable
    dyadic_product: Callable
    dyadic_square: Callable
    mul_operand: Callable
    lazy_diff_mul_operand: Callable
    ntt_forward: Callable
    ntt_inverse: Callable
    ks_decompose: Callable
    scaler_tail: Callable


# -- composites as sequences of stacked entry points --------------------------
#
# These call the public dispatching functions, so under the serial table
# every step is a row loop, and under the native table (where they are
# the fall-through) every step still gets its own native attempt.


def _ks_decompose_unfused(poly_ntt, inv_tables, fwd_tables):
    """iNTT over the source primes, Barrett onto the target grid, NTT."""
    d = radix2.ntt_inverse_stacked(poly_ntt, inv_tables)
    reduced = barrett.barrett_reduce_64(d[:, None, :], fwd_tables.modulus)
    return radix2.ntt_forward_stacked(reduced, fwd_tables)


def _scaler_tail_unfused(matrix, half_d, kept_st, inv_d, inv_d_quot, d_mod):
    """``LastModulusScaler.divide_round`` over the whole kept stack.

    Same derivation as ``divide_round_reference``; when ``d < q_j`` the
    ``%`` is a value-exact no-op (``last < d < q_j``), so it runs
    unconditionally across limbs.
    """
    last = np.asarray(matrix[-1], dtype=np.uint64)
    is_high = last > np.uint64(half_d)
    last_mod = last[None, :] % kept_st.u64
    r = np.where(
        is_high[None, :],
        ops.sub_mod(last_mod, d_mod[:, None], kept_st),
        last_mod,
    )
    diff = ops.sub_mod(matrix[:-1], r, kept_st)
    return ops.mul_mod(diff, inv_d[:, None], kept_st)


# -- serial: row loops over the scalar-Modulus reference kernels --------------


def _rows(fn: Callable, st, *operands) -> np.ndarray:
    """Apply scalar-``Modulus`` kernel ``fn`` limb by limb over a stack."""
    arrs = [np.asarray(a, dtype=np.uint64) for a in operands]
    shape = np.broadcast_shapes(*(a.shape for a in arrs), st.u64.shape)
    arrs = [np.broadcast_to(a, shape) for a in arrs]
    if len(st) == 1:
        # A one-limb stack's constants broadcast uniformly over any shape.
        return fn(*arrs, st[0])
    out = np.empty(shape, dtype=np.uint64)
    for i, modulus in enumerate(st):
        row = (Ellipsis, i) + (slice(None),) * st.trailing
        out[row] = fn(*(a[row] for a in arrs), modulus)
    return out


def _rowwise(fn: Callable) -> Callable:
    def kernel(*args):
        return _rows(fn, args[-1], *args[:-1])

    kernel.__name__ = kernel.__qualname__ = f"serial_{fn.__name__}"
    return kernel


_add_rows = _rowwise(ops.add_mod)
_mul_rows = _rowwise(ops.mul_mod)


def _dyadic_product_rows(a0, a1, b0, b1, st):
    cross = _add_rows(_mul_rows(a0, b1, st), _mul_rows(a1, b0, st), st)
    return np.stack([_mul_rows(a0, b0, st), cross, _mul_rows(a1, b1, st)])


def _dyadic_square_rows(a0, a1, st):
    c = _mul_rows(a0, a1, st)
    return np.stack(
        [_mul_rows(a0, a0, st), _add_rows(c, c, st), _mul_rows(a1, a1, st)]
    )


def _mul_operand_rows(x, w, wq_hi, wq_lo, st):
    return _mul_rows(x, w, st)


def _diff_mul(m, r_lazy, w, modulus):
    diff = ops.sub_mod(m, reduce_from_lazy(r_lazy, modulus), modulus)
    return ops.mul_mod(diff, w, modulus)


def _lazy_diff_mul_operand_rows(m, r_lazy, w, wq_hi, wq_lo, st):
    return _rows(_diff_mul, st, m, r_lazy, w)


def _ntt_rows(row_fn: Callable) -> Callable:
    def kernel(x, st_tables, *, lazy: bool = False):
        x = np.asarray(x, dtype=np.uint64)
        out = np.empty_like(x)
        for i, tables in enumerate(st_tables.tables):
            out[..., i, :] = row_fn(x[..., i, :], tables, lazy=lazy)
        return out

    kernel.__name__ = kernel.__qualname__ = f"serial_{row_fn.__name__}"
    return kernel


SERIAL = KernelTable(
    name="serial",
    add_mod=_add_rows,
    sub_mod=_rowwise(ops.sub_mod),
    neg_mod=_rowwise(ops.neg_mod),
    conditional_sub=_rowwise(barrett.conditional_sub),
    barrett_reduce_64=_rowwise(barrett.barrett_reduce_64),
    barrett_reduce_128=_rowwise(barrett.barrett_reduce_128),
    mul_mod=_mul_rows,
    mad_mod=_rowwise(ops.mad_mod),
    dyadic_product=_dyadic_product_rows,
    dyadic_square=_dyadic_square_rows,
    mul_operand=_mul_operand_rows,
    lazy_diff_mul_operand=_lazy_diff_mul_operand_rows,
    ntt_forward=_ntt_rows(radix2.ntt_forward),
    ntt_inverse=_ntt_rows(radix2.ntt_inverse),
    ks_decompose=_ks_decompose_unfused,
    scaler_tail=_scaler_tail_unfused,
)


# -- native: glue call first, serial body on None -----------------------------


def _native_first(field: str) -> Callable:
    native_fn = glue.KERNELS[field]
    serial_fn = getattr(SERIAL, field)

    def kernel(*args, **kwargs):
        out = native_fn(*args, **kwargs)
        if out is None:
            return serial_fn(*args, **kwargs)
        return out

    kernel.__name__ = kernel.__qualname__ = f"native_{field}"
    return kernel


NATIVE = KernelTable("native", *map(_native_first, KernelTable._fields[1:]))


TABLES = {table.name: table for table in (NATIVE, SERIAL)}
