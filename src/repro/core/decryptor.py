"""Decryption (paper Decrypt): ``m' = c0 + c1 s (+ c2 s**2 ...) mod q_l``."""

from __future__ import annotations

from ..modmath.ops import add_mod, mul_mod
from .ciphertext import Ciphertext
from .context import CkksContext
from .keys import SecretKey
from .plaintext import Plaintext

__all__ = ["Decryptor"]


class Decryptor:
    """Secret-key decryptor; accepts any ciphertext size (Horner in s).

    Each Horner step is one stacked multiply-add over all level primes.
    """

    def __init__(self, context: CkksContext, secret_key: SecretKey):
        self.context = context
        self.sk = secret_key

    def decrypt(self, ct: Ciphertext) -> Plaintext:
        if not ct.is_ntt:
            raise ValueError("ciphertext must be in NTT form")
        st = self.context.stacked_modulus(ct.level)
        s = self.sk.ntt_rows[: ct.level]
        # Horner: acc = ((c_k s + c_{k-1}) s + ...) + c_0, all primes at
        # once (size >= 2, so the loop always rebinds acc: no copy needed).
        acc = ct.data[ct.size - 1]
        for comp in range(ct.size - 2, -1, -1):
            acc = add_mod(mul_mod(acc, s, st), ct.data[comp], st)
        return Plaintext(acc, ct.scale, is_ntt=True)
