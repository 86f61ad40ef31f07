"""Fast (approximate) RNS base conversion, HPS style.

Converts a residue matrix over an input base ``B = {q_1..q_k}`` to residues
over an output base ``B' = {p_1..p_m}`` without big integers:

    conv(x)_j = sum_i [ x_i * (q/q_i)^{-1} ]_{q_i} * (q/q_i)  (mod p_j)

The result is congruent to ``x + alpha*q (mod p_j)`` for some overshoot
``0 <= alpha < k``; downstream consumers either tolerate the ``alpha*q``
term as noise (key switching) or eliminate it with a correction residue.
"""

from __future__ import annotations

import numpy as np

from ..modmath import mul_mod
from ..modmath.ops import add_mod
from .base import RNSBase

__all__ = ["BaseConverter"]


class BaseConverter:
    """Precomputed fast conversion from ``ibase`` to ``obase``.

    Precomputes ``inv_punctured`` scalars of the input base and the
    ``(q/q_i) mod p_j`` matrix.  :meth:`convert` is written against the
    stacked kernels: one whole-tensor multiply per step with the
    per-limb constants broadcast from stacked columns;
    :meth:`convert_reference` keeps the per-limb loop as the
    bit-identical oracle.
    """

    def __init__(self, ibase: RNSBase, obase: RNSBase):
        self.ibase = ibase
        self.obase = obase
        k = len(ibase)
        m = len(obase)
        #: (k,) uint64 — [ (q/q_i)^{-1} mod q_i ]
        self._inv_punc = np.array(ibase.inv_punctured, dtype=np.uint64)
        #: (m, k) uint64 — (q/q_i) mod p_j
        self._punc_mod_out = np.empty((m, k), dtype=np.uint64)
        for j, pj in enumerate(obase):
            for i in range(k):
                self._punc_mod_out[j, i] = ibase.punctured[i] % pj.value
        #: (k, m, 1) — the same matrix laid out input-major so products
        #: against the output stack broadcast in one call.
        self._punc_in_major = np.ascontiguousarray(
            self._punc_mod_out.T
        )[:, :, None]

    def convert(self, matrix: np.ndarray) -> np.ndarray:
        """Convert a ``(k, n)`` residue matrix to ``(m, n)`` over obase.

        ``y`` is one stacked multiply over all input limbs; the
        ``k * m`` output products land as one ``(k, m, n)`` tensor and
        fold with ``k`` stacked additions.  Bit-identical to
        :meth:`convert_reference` (same accumulation order per limb)
        under every backend.
        """
        k, n = matrix.shape
        if k != len(self.ibase):
            raise ValueError("matrix does not match input base")
        ist = self.ibase.stacked
        ost = self.obase.stacked
        # y_i = [x_i * inv_punc_i] mod q_i  -- exact, per input prime.
        y = mul_mod(matrix, self._inv_punc[:, None], ist)
        # term[i, j] = y_i * ((q/q_i) mod p_j) mod p_j, all (i, j) at once.
        terms = mul_mod(y[:, None, :], self._punc_in_major, ost)
        acc = np.zeros((len(self.obase), n), dtype=np.uint64)
        for i in range(k):
            acc = add_mod(acc, terms[i], ost)
        return acc

    def convert_reference(self, matrix: np.ndarray) -> np.ndarray:
        """Per-limb oracle for :meth:`convert` (one NumPy call per prime)."""
        k, n = matrix.shape
        if k != len(self.ibase):
            raise ValueError("matrix does not match input base")
        y = np.empty_like(matrix)
        for i, qi in enumerate(self.ibase):
            y[i] = mul_mod(matrix[i], self._inv_punc[i], qi)
        out = np.zeros((len(self.obase), n), dtype=np.uint64)
        for j, pj in enumerate(self.obase):
            acc = np.zeros(n, dtype=np.uint64)
            for i in range(k):
                term = mul_mod(y[i], self._punc_mod_out[j, i], pj)
                acc = add_mod(acc, term, pj)
            out[j] = acc
        return out

