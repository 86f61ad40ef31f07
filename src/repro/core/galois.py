"""Galois automorphisms of the ring ``Z_q[x]/(x^N + 1)``.

The map ``kappa_g : m(x) -> m(x^g)`` (``g`` odd) permutes plaintext slots:
with the encoder's ``5^i`` orbit, ``g = 5^r mod 2N`` rotates the slot
vector left by ``r`` and ``g = 2N - 1`` conjugates every slot.  On
coefficients the map sends ``a_j`` to position ``j*g mod 2N``, negating
when the landing spot wraps past ``x^N`` (since ``x^N = -1``).

Every product caller — key generation, ``Evaluator.rotate``/``conjugate``
and hoisted rotations — applies the map in NTT form, where it is a pure
index permutation (:func:`apply_galois_ntt`).  The coefficient-domain
map (:func:`galois_permutation`, :func:`apply_galois_coeff`) stays as
the definition the tests check the NTT-form permutation against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from ..modmath import Modulus
from ..rns import RNSBase

__all__ = [
    "rotation_galois_elt",
    "conjugation_galois_elt",
    "galois_permutation",
    "apply_galois_coeff",
    "galois_permutation_ntt",
    "apply_galois_ntt",
]


def rotation_galois_elt(steps: int, degree: int) -> int:
    """Galois element for a cyclic slot rotation by ``steps`` (left)."""
    slots = degree // 2
    steps %= slots
    return pow(5, steps, 2 * degree)


def conjugation_galois_elt(degree: int) -> int:
    """Galois element for slot-wise complex conjugation."""
    return 2 * degree - 1


@lru_cache(maxsize=256)
def galois_permutation(degree: int, elt: int) -> Tuple[np.ndarray, np.ndarray]:
    """(target_index, sign_flip) arrays for ``kappa_elt`` on coefficients."""
    if elt % 2 == 0 or not 0 < elt < 2 * degree:
        raise ValueError(f"galois element must be odd in (0, 2N), got {elt}")
    j = np.arange(degree, dtype=np.int64)
    raw = (j * elt) % (2 * degree)
    flip = raw >= degree
    tgt = raw % degree
    tgt.setflags(write=False)
    flip.setflags(write=False)
    return tgt, flip


def apply_galois_coeff(matrix: np.ndarray, elt: int, base: RNSBase) -> np.ndarray:
    """Apply ``kappa_elt`` to a coefficient-form RNS stack ``(..., k, N)``.

    Packed over the limb axis: the sign flips run as one whole-tensor
    pass with the per-limb modulus broadcast from a ``(k, 1)`` column.
    """
    matrix = np.asarray(matrix, dtype=np.uint64)
    k, n = matrix.shape[-2], matrix.shape[-1]
    if k != len(base):
        raise ValueError(f"matrix has {k} limb rows but base has {len(base)}")
    tgt, flip = galois_permutation(n, elt)
    p = base.stacked.u64
    vals = np.where(flip, np.where(matrix == 0, matrix, p - matrix), matrix)
    out = np.empty_like(matrix)
    out[..., tgt] = vals
    return out


@lru_cache(maxsize=256)
def galois_permutation_ntt(degree: int, elt: int) -> np.ndarray:
    """Source-index table for ``kappa_elt`` applied directly in NTT form.

    The bit-reversed negacyclic NTT stores, at index ``bit_reverse(i)``,
    the evaluation of ``m`` at ``zeta**(2i+1)``.  The automorphism
    ``m(x) -> m(x**g)`` maps that value to the evaluation at exponent
    ``g*(2i+1) mod 2N`` — a pure permutation of evaluation points (no
    sign flips, unlike the coefficient-domain map).  Returns ``perm``
    such that ``new[k] = old[perm[k]]``.

    This is what makes *hoisted* rotations cheap: the expensive NTT-form
    key-switch decomposition can be permuted per rotation instead of
    being recomputed (Halevi-Shoup hoisting).
    """
    if elt % 2 == 0 or not 0 < elt < 2 * degree:
        raise ValueError(f"galois element must be odd in (0, 2N), got {elt}")
    from ..ntt.tables import bit_reverse_vector

    rev = bit_reverse_vector(degree)
    i = np.arange(degree, dtype=np.int64)
    src = (elt * (2 * i + 1) % (2 * degree) - 1) // 2
    perm = np.empty(degree, dtype=np.int64)
    perm[rev] = rev[src]
    perm.setflags(write=False)
    return perm


def apply_galois_ntt(matrix: np.ndarray, elt: int) -> np.ndarray:
    """Apply ``kappa_elt`` to an NTT-form stack ``(..., N)`` (permutation)."""
    matrix = np.asarray(matrix, dtype=np.uint64)
    perm = galois_permutation_ntt(matrix.shape[-1], elt)
    return matrix[..., perm]
