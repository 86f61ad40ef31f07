"""CKKS encoder: complex vectors <-> ring plaintexts (paper Sec. II-A).

Implements the canonical-embedding encoding via the HEAAN-style "special
FFT".  The multiplicative group of odd residues modulo ``2N`` is generated
by ``{-1, 5}``; evaluating a real polynomial at the primitive roots
``zeta^{5^i}`` for ``i < N/2`` (one per conjugate pair) gives the slot
values.  Using the ``5^i`` orbit makes slot *rotation* an automorphism
``x -> x^{5^r}`` — exactly what the paper's Rotate routine key-switches.

Encode(z, Delta): inverse special FFT, scale by Delta, round to integers,
reduce into RNS rows.  Decode: CRT-compose to centered integers, divide by
Delta, forward special FFT.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..ntt.tables import bit_reverse_vector
from ..rns import RNSBase, compose_signed_float
from .context import CkksContext
from .plaintext import Plaintext

__all__ = ["CkksEncoder"]


class CkksEncoder:
    """Encoder bound to a context; supports ``slots = N/2`` (full packing)
    and sparse power-of-two slot counts."""

    def __init__(self, context: CkksContext):
        self.context = context
        self.degree = context.degree
        self.slots = self.degree // 2
        m = 2 * self.degree
        #: rot_group[i] = 5**i mod 2N — the slot orbit.
        rot = np.empty(self.slots, dtype=np.int64)
        acc = 1
        for i in range(self.slots):
            rot[i] = acc
            acc = (acc * 5) % m
        self._rot_group = rot
        #: ksi_pows[k] = exp(2 pi i k / 2N), with wraparound slot at [m].
        k = np.arange(m + 1)
        self._ksi = np.exp(2j * np.pi * k / m)
        self._m = m

    # -- special FFT (HEAAN ring.cpp layout) -----------------------------------

    def _fft_special(self, vals: np.ndarray) -> np.ndarray:
        """Forward transform: coefficients-embedding -> slot values."""
        n = len(vals)
        v = vals[bit_reverse_vector(n)]
        length = 2
        while length <= n:
            lenh = length >> 1
            lenq = length << 2
            idx = (self._rot_group[:lenh] % lenq) * (self._m // lenq)
            w = self._ksi[idx]
            blocks = v.reshape(n // length, length)
            u = blocks[:, :lenh].copy()  # copy: the next line overwrites it
            t = blocks[:, lenh:] * w
            blocks[:, :lenh] = u + t
            blocks[:, lenh:] = u - t
            length <<= 1
        return v

    def _fft_special_inv(self, vals: np.ndarray) -> np.ndarray:
        """Inverse transform: slot values -> coefficients-embedding."""
        n = len(vals)
        v = vals.copy()
        length = n
        while length >= 2:
            lenh = length >> 1
            lenq = length << 2
            idx = (lenq - (self._rot_group[:lenh] % lenq)) * (self._m // lenq)
            w = self._ksi[idx]
            blocks = v.reshape(n // length, length)
            u = blocks[:, :lenh] + blocks[:, lenh:]
            t = (blocks[:, :lenh] - blocks[:, lenh:]) * w
            blocks[:, :lenh] = u
            blocks[:, lenh:] = t
            length >>= 1
        v /= n
        return v[bit_reverse_vector(n)]

    # -- public API ---------------------------------------------------------------

    def encode(self, values: Sequence[complex], scale: float | None = None,
               *, level: int | None = None) -> Plaintext:
        """Encode up to ``N/2`` complex values into a plaintext.

        Shorter inputs are zero-padded to the next power of two and
        sparsely embedded (each value repeats every ``N/2 / slots`` slots
        structurally, but decode returns only the encoded prefix).
        """
        scale = float(self.context.params.scale if scale is None else scale)
        level = self.context.max_level if level is None else level
        vals = np.asarray(values, dtype=np.complex128)
        if vals.ndim != 1 or len(vals) == 0:
            raise ValueError("values must be a non-empty 1-D sequence")
        if len(vals) > self.slots:
            raise ValueError(f"at most {self.slots} values fit, got {len(vals)}")
        slots = 1 << max(0, (len(vals) - 1).bit_length())
        slots = max(slots, 1)
        padded = np.zeros(slots, dtype=np.complex128)
        padded[: len(vals)] = vals

        emb = self._fft_special_inv_sized(padded)
        gap = self.slots // slots
        nh = self.degree // 2
        coeffs = np.zeros(self.degree, dtype=np.float64)
        coeffs[0 : nh : gap] = emb.real
        coeffs[nh :: gap] = emb.imag
        scaled = np.round(coeffs * scale)
        limit = float(self.context.level_base(level).product)
        if np.abs(scaled).max() * 2 >= limit:
            raise ValueError("encoded value too large for the modulus chain")
        data = self.context.signed_to_ntt(scaled.astype(np.int64), level)
        return Plaintext(data, scale, is_ntt=True)

    def decode(self, plaintext: Plaintext, *, slots: int | None = None) -> np.ndarray:
        """Decode a plaintext back to ``slots`` complex values."""
        slots = self.slots if slots is None else slots
        if slots < 1 or slots > self.slots or slots & (slots - 1):
            raise ValueError("slots must be a power of two <= N/2")
        data = plaintext.data
        base = self.context.level_base(plaintext.level)
        coeff = self.context.from_ntt(data) if plaintext.is_ntt else data
        arr = compose_signed_float(coeff, base) / plaintext.scale
        gap = self.slots // slots
        nh = self.degree // 2
        emb = arr[0 : nh : gap] + 1j * arr[nh :: gap]
        return self._fft_special_sized(emb)

    # -- helpers ---------------------------------------------------------------------

    def _fft_special_sized(self, vals: np.ndarray) -> np.ndarray:
        if len(vals) == 1:
            return vals.copy()
        return self._fft_special(np.asarray(vals, dtype=np.complex128))

    def _fft_special_inv_sized(self, vals: np.ndarray) -> np.ndarray:
        if len(vals) == 1:
            return vals.copy()
        return self._fft_special_inv(np.asarray(vals, dtype=np.complex128))
