"""The two kernel tables behind :func:`repro.native.backend.kernels`.

Every stacked entry point — ``add/sub/neg/mul/mad_mod`` and the Barrett
reductions on a ``StackedModulus``, the tensor products, the constant-
operand multiplies, the stacked NTTs, the key switch's two halves
(decompose, accumulate), the NTT-form mod-down and the scaler tail —
reads its implementation from one :class:`KernelTable`.
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
    four composites (``ks_decompose``, ``ks_accumulate``,
    ``divide_round_drop``, ``scaler_tail``) are plain sequences of
    stacked entry points.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from ..modmath import barrett, ops
from ..modmath.harvey import reduce_from_lazy
from ..ntt import radix2
from ..ntt.tables import get_stacked_tables
from . import backend as _backend
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
    ks_accumulate: Callable
    divide_round_drop: Callable
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


def _divide_round_drop_unfused(matrix, tables, inv_d, inv_d_q_hi,
                              inv_d_q_lo, d_mod):
    """Drop the last row and divide-and-round by its prime, in NTT form.

    ``matrix`` is ``(..., k, N)`` over the ``k`` rows of ``tables``: rows
    ``0..k-2`` are the kept primes, row ``k-1`` the dropped prime ``d``;
    the columns are ``d^{-1}`` (with its split Harvey quotient) and
    ``d mod q_j`` over the kept primes.  SEAL's sequence: iNTT the
    dropped row, center it, then per kept prime subtract its (re-NTT-ed)
    reduction and multiply by ``d^{-1}`` — five stacked calls over the
    whole kept stack.
    """
    matrix = np.asarray(matrix, dtype=np.uint64)
    k = matrix.shape[-2]
    if k < 2:
        raise ValueError("need at least two rows to drop one")
    dropped = tables.modulus[k - 1]
    half = np.uint64(dropped.value >> 1)

    # The dropped row transforms as a one-limb stack so the batched
    # (component) axis rides the fast buffered kernel.
    last_coeff = radix2.ntt_inverse_stacked(
        matrix[..., k - 1 : k, :],
        get_stacked_tables(tables.degree, [dropped]),
    )[..., 0, :]
    is_high = last_coeff > half
    kept = tables.prefix(k - 1)
    st = kept.modulus
    r = barrett.barrett_reduce_64(last_coeff[..., None, :], st)
    # Centered representative: r - d when the residue is "negative"
    # (subtracting 0 elsewhere is a value-exact no-op since r < q_j).
    r = ops.sub_mod(r, d_mod * is_high[..., None, :], st)
    # Lazy forward transform + lazy difference: the [0, 4p) window
    # folds into the final multiply by d^{-1}, so a backend may skip
    # the NTT's correction pass (values unchanged).
    r_ntt = radix2.ntt_forward_stacked(r, kept, lazy=True)
    return _backend.kernels().lazy_diff_mul_operand(
        matrix[..., : k - 1, :], r_ntt, inv_d, inv_d_q_hi, inv_d_q_lo, st
    )


def _ks_accumulate_unfused(decomposed, key_blocks, target_rows, tables,
                           inv_d, inv_d_q_hi, inv_d_q_lo, d_mod):
    """Key products + mod-down by the special prime (last target row).

    Each source prime contributes one ``mad_mod`` over all ``level + 1``
    target rows, its key block gathered at ``target_rows``; both sums
    then drop the special prime.
    """
    level = len(key_blocks)
    target_rows = list(target_rows)
    st_t = tables.modulus
    acc0 = np.zeros((level + 1, tables.degree), dtype=np.uint64)
    acc1 = np.zeros((level + 1, tables.degree), dtype=np.uint64)
    for i in range(level):
        key = key_blocks[i]
        dn = decomposed[i]
        acc0 = ops.mad_mod(dn, key[0][target_rows], acc0, st_t)
        acc1 = ops.mad_mod(dn, key[1][target_rows], acc1, st_t)
    drop = _backend.kernels().divide_round_drop
    cols = (inv_d, inv_d_q_hi, inv_d_q_lo, d_mod)
    return np.stack([drop(acc0, tables, *cols), drop(acc1, tables, *cols)])


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
    ks_accumulate=_ks_accumulate_unfused,
    divide_round_drop=_divide_round_drop_unfused,
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
