"""CKKS encryption parameters (SEAL-style).

A parameter set fixes the polynomial modulus degree ``N``, the RNS
coefficient-modulus chain ``[q_0, q_1, ..., q_{L-1}, P]`` (the trailing
prime is the key-switching *special prime*), and the default encoding
scale.  The chain convention matches SEAL's CKKS guidance: a wide first
prime (decryption precision), mid primes near the scale (stable
rescaling), and a wide special prime (key-switch noise control).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..modmath import gen_ntt_primes
from ..rns import RNSBase

__all__ = ["CkksParameters", "max_modulus_bits_128", "SecurityWarning"]

#: HE-standard (homomorphicencryption.org) maxima for total coefficient
#: modulus bits at 128-bit classical security, per degree.
_MAX_BITS_128 = {
    1024: 27,
    2048: 54,
    4096: 109,
    8192: 218,
    16384: 438,
    32768: 881,
}


def max_modulus_bits_128(degree: int) -> int:
    """Maximum total coeff-modulus bits for 128-bit security at ``degree``."""
    try:
        return _MAX_BITS_128[degree]
    except KeyError:
        raise ValueError(f"no security table entry for degree {degree}") from None


class SecurityWarning(UserWarning):
    """Raised/warned when a parameter set is not 128-bit secure."""


@dataclass(frozen=True)
class CkksParameters:
    """Validated CKKS parameter set.

    Parameters
    ----------
    poly_modulus_degree:
        Ring degree ``N`` (power of two >= 8).
    coeff_modulus_bits:
        Bit sizes of the modulus chain *including* the special prime as
        the last entry, e.g. ``[60, 40, 40, 40, 60]`` for 3 levels.
    scale:
        Default encoding scale Delta (typically ``2**mid_prime_bits``).
    moduli:
        Derived: concrete NTT-friendly primes (generated, not supplied).
    """

    poly_modulus_degree: int
    coeff_modulus_bits: Sequence[int]
    scale: float
    moduli: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.poly_modulus_degree
        if n < 8 or n & (n - 1):
            raise ValueError(f"degree must be a power of two >= 8, got {n}")
        bits = list(self.coeff_modulus_bits)
        if len(bits) < 2:
            raise ValueError("need at least one ciphertext prime plus the special prime")
        if self.scale <= 1:
            raise ValueError("scale must exceed 1")
        primes = gen_ntt_primes(bits, n)
        object.__setattr__(self, "coeff_modulus_bits", tuple(bits))
        object.__setattr__(self, "moduli", tuple(primes))

    # -- views -------------------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.poly_modulus_degree

    @property
    def slot_count(self) -> int:
        return self.poly_modulus_degree // 2

    @property
    def levels(self) -> int:
        """Number of ciphertext primes L (max ciphertext level)."""
        return len(self.moduli) - 1

    def key_base(self) -> RNSBase:
        """All primes including the special prime (key material base)."""
        return RNSBase.from_values(self.moduli)

    def ciphertext_base(self) -> RNSBase:
        """The ciphertext primes ``q_0 .. q_{L-1}``."""
        return RNSBase.from_values(self.moduli[:-1])

    def is_128_bit_secure(self) -> bool:
        """True when the chain satisfies the HE-standard 128-bit table.

        Test parameter sets in this repository typically are *not* —
        they trade security for speed, as the docstrings note.
        """
        try:
            limit = max_modulus_bits_128(self.poly_modulus_degree)
        except ValueError:
            return False
        # Security is determined by the full key modulus (incl. special).
        total = 1
        for p in self.moduli:
            total *= p
        return total.bit_length() <= limit

    # -- convenience constructors -----------------------------------------------------

    @classmethod
    def default(cls, degree: int = 4096, levels: int = 3, *,
                scale_bits: int = 30, first_bits: int = 50,
                special_bits: int = 50) -> "CkksParameters":
        """A small, fast parameter set for tests and examples."""
        bits = [first_bits] + [scale_bits] * levels + [special_bits]
        return cls(
            poly_modulus_degree=degree,
            coeff_modulus_bits=bits,
            scale=float(2**scale_bits),
        )
