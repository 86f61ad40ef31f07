"""Divide-and-round by the trailing modulus of a base.

Two pillars of RNS-CKKS are expressed with the same primitive:

* **Rescale** (paper ``RS``): drop ``q_last`` and scale the message by
  ``1/q_last``;
* **Mod-down** after key switching: drop the special prime ``P`` and scale
  the key-switched accumulator by ``1/P``.

Given ``x`` over ``{q_1..q_{k-1}, d}`` (``d`` = dropped modulus), compute

    x'_j = (x_j - [x]_d) * d^{-1}   (mod q_j)

where ``[x]_d`` is *centered* into ``(-d/2, d/2]`` before subtraction, so
the result is the rounding-to-nearest of ``x/d`` up to 1/2 ulp — the
``round(q_l'/q_l * c)`` of the paper's RS definition.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..modmath import Modulus, inv_mod, mul_mod
from ..modmath.ops import sub_mod
from ..native import backend as _backend
from .base import RNSBase

__all__ = ["LastModulusScaler"]


class LastModulusScaler:
    """Precomputed divide-and-round by the last modulus of ``base``."""

    def __init__(self, base: RNSBase):
        if len(base) < 2:
            raise ValueError("need at least two moduli to drop one")
        self.base = base
        self.kept = base.drop_last()
        self.dropped: Modulus = base[len(base) - 1]
        d = self.dropped.value
        #: d^{-1} mod q_j for every kept modulus.
        self._inv_d = np.array(
            [inv_mod(d % m.value, m) for m in self.kept], dtype=np.uint64
        )
        #: Harvey quotients floor(d^{-1} * 2**64 / q_j): the native fused
        #: tail multiplies by d^{-1} as a constant operand.
        self._inv_d_quot = np.array(
            [(int(v) << 64) // m.value for v, m in zip(self._inv_d, self.kept)],
            dtype=np.uint64,
        )
        #: d mod q_j (used to shift the centered residue non-negatively).
        self._d_mod = np.array([d % m.value for m in self.kept], dtype=np.uint64)
        self._half_d = d >> 1

    def divide_round(self, matrix: np.ndarray) -> np.ndarray:
        """Apply divide-and-round to a ``(k, n)`` matrix; returns ``(k-1, n)``.

        The last row must be the residues modulo the dropped modulus.
        The centered-residue correction and the final multiply run as
        the backend's ``scaler_tail`` kernel — one fused compiled pass
        under ``native``, stacked calls over the whole ``(k-1, n)`` kept
        stack otherwise; bit-identical to :meth:`divide_round_reference`.
        """
        k, n = matrix.shape
        if k != len(self.base):
            raise ValueError("matrix does not match base")
        return _backend.kernels().scaler_tail(
            matrix, self._half_d, self.kept.stacked,
            self._inv_d, self._inv_d_quot, self._d_mod,
        )

    def divide_round_reference(self, matrix: np.ndarray) -> np.ndarray:
        """Per-limb oracle for :meth:`divide_round`."""
        k, n = matrix.shape
        if k != len(self.base):
            raise ValueError("matrix does not match base")
        last = matrix[-1]
        d = self.dropped.value
        # Centered representative r in (-d/2, d/2]; store r + d/2 >= 0 trick:
        # we need (x_j - r) mod q_j; with r possibly negative we compute
        # x_j + (d - r) == x_j - r (mod d ... careful: mod q_j), so express
        # r mod q_j from the non-negative residue `last`:
        #   r = last            if last <= d/2
        #   r = last - d        otherwise
        # => r mod q_j = last mod q_j            (first case)
        #    r mod q_j = (last mod q_j) - (d mod q_j)  (second case)
        out = np.empty((k - 1, n), dtype=np.uint64)
        is_high = last.astype(np.uint64) > np.uint64(self._half_d)
        for j, qj in enumerate(self.kept):
            last_mod = last % qj.u64 if d >= qj.value else last.copy()
            r = np.where(
                is_high,
                sub_mod(last_mod, self._d_mod[j], qj),
                last_mod,
            )
            diff = sub_mod(matrix[j], r, qj)
            out[j] = mul_mod(diff, self._inv_d[j], qj)
        return out

    def exact_check_value(self, value: int) -> int:
        """Reference big-integer divide-and-round of a scalar (for tests).

        Computes ``round_half_up_centered(value / d) mod prod(kept)`` the
        same way :meth:`divide_round` does: using the centered residue.
        """
        q = self.base.product
        value = int(value) % q
        d = self.dropped.value
        r = value % d
        if r > d // 2:
            r -= d
        return ((value - r) // d) % self.kept.product
