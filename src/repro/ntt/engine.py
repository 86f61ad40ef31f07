"""RNS-batched NTT engine: the facade the CKKS layer uses.

A polynomial in RNS form is a ``(k, n)`` uint64 matrix (one residue row
per prime); ciphertext stacks add leading axes.  In the paper's terms,
both the RNS dimension and the batch dimension are sources of
embarrassing parallelism (Fig. 10); here they are NumPy axes of one
stacked transform: the engine hands the whole stack to
:func:`~repro.ntt.radix2.ntt_forward_stacked` /
:func:`~repro.ntt.radix2.ntt_inverse_stacked`, which run the selected
backend's kernel table (compiled, or the row-by-row oracle — both
bit-identical).
"""

from __future__ import annotations

import numpy as np

from ..modmath import mul_mod
from ..rns import RNSBase
from .radix2 import ntt_forward_stacked, ntt_inverse_stacked
from .tables import StackedNTTTables, get_stacked_tables

__all__ = ["NTTEngine"]


class NTTEngine:
    """Forward/inverse negacyclic NTT over all primes of an RNS base."""

    def __init__(self, degree: int, base: RNSBase):
        for m in base:
            if not m.supports_ntt(degree):
                raise ValueError(
                    f"modulus {m.value} does not support degree-{degree} NTT"
                )
        self.degree = degree
        self.base = base
        self.stacked: StackedNTTTables = get_stacked_tables(degree, base)

    def _check(self, matrix: np.ndarray, rows: int | None = None) -> None:
        if matrix.shape[-1] != self.degree:
            raise ValueError(
                f"last axis must be {self.degree}, got {matrix.shape[-1]}"
            )
        k = rows if rows is not None else len(self.base)
        if matrix.ndim < 2 or matrix.shape[-2] > k:
            raise ValueError("matrix must be (..., k, n) with k <= base size")

    def forward(self, matrix: np.ndarray, *, lazy: bool = False) -> np.ndarray:
        """NTT each residue row; input coefficient form, output NTT form.

        Accepts ``(k', n)`` or stacks ``(..., k', n)`` where ``k'`` may be a
        prefix of the base (lower ciphertext level).
        """
        self._check(matrix)
        k = matrix.shape[-2]
        return ntt_forward_stacked(matrix, self.stacked.prefix(k), lazy=lazy)

    def inverse(self, matrix: np.ndarray, *, lazy: bool = False) -> np.ndarray:
        """Inverse-NTT each residue row back to coefficient form."""
        self._check(matrix)
        k = matrix.shape[-2]
        return ntt_inverse_stacked(matrix, self.stacked.prefix(k), lazy=lazy)

    def dyadic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise product of two NTT-form stacks, per-prime reduction."""
        if a.shape != b.shape:
            raise ValueError("operand shapes differ")
        self._check(a)
        k = a.shape[-2]
        return mul_mod(a, b, self.stacked.modulus.prefix(k))
