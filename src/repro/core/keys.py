"""Key containers for the CKKS scheme (paper Sec. II-A, KeyGen)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

__all__ = ["SecretKey", "PublicKey", "KSwitchKey", "RelinKey", "GaloisKeys"]


@dataclass
class SecretKey:
    """Ternary secret ``s``: NTT rows over the full key base, plus the raw
    signed coefficients (serialized with the key)."""

    ntt_rows: np.ndarray          # (L+1, N) uint64, NTT form
    signed_coeffs: np.ndarray     # (N,) int64 in {-1, 0, 1}

    @property
    def degree(self) -> int:
        return self.ntt_rows.shape[1]


@dataclass
class PublicKey:
    """Encryption key ``(b, a) = (-(a s + e), a)`` over the ciphertext base."""

    data: np.ndarray              # (2, L, N) uint64, NTT form

    @property
    def b(self) -> np.ndarray:
        return self.data[0]

    @property
    def a(self) -> np.ndarray:
        return self.data[1]


@dataclass
class KSwitchKey:
    """A key-switching key: one (b_i, a_i) pair per decomposition prime.

    ``data[i]`` has shape ``(2, L+1, N)`` over the full key base; component
    ``b_i`` hides ``P * target_key`` in RNS slot ``i`` (SEAL's layout).
    """

    data: List[np.ndarray] = field(default_factory=list)

    @property
    def decomp_count(self) -> int:
        return len(self.data)

    def b(self, i: int) -> np.ndarray:
        return self.data[i][0]

    def a(self, i: int) -> np.ndarray:
        return self.data[i][1]


@dataclass
class RelinKey:
    """Relinearization key: switches ``s**2`` back to ``s`` (paper Relin)."""

    key: KSwitchKey


@dataclass
class GaloisKeys:
    """Per-automorphism switching keys for rotations/conjugation."""

    keys: Dict[int, KSwitchKey] = field(default_factory=dict)

    def has(self, elt: int) -> bool:
        return elt in self.keys

    def get(self, elt: int) -> KSwitchKey:
        try:
            return self.keys[elt]
        except KeyError:
            raise KeyError(
                f"no Galois key for element {elt}; generate it first"
            ) from None
