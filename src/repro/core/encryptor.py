"""Encryption (paper Encrypt): ``c = (b u + e0 + m,  a u + e1)``."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..modmath.ops import add_mod, mul_mod
from .ciphertext import Ciphertext
from .context import CkksContext
from .keys import PublicKey
from .plaintext import Plaintext

__all__ = ["Encryptor"]


class Encryptor:
    """Public-key encryptor; all arithmetic stays in NTT form.

    Signed samples reduce against all level primes in one broadcast
    pass, transform through one stacked NTT, and the masking products
    ``b u`` / ``a u`` run as single stacked calls.  The sampling order
    is fixed, so the same seed gives the same ciphertext under every
    backend.
    """

    def __init__(self, context: CkksContext, public_key: PublicKey,
                 *, seed: Optional[int] = None):
        self.context = context
        self.pk = public_key
        self.rng = np.random.default_rng(seed)

    def encrypt_zero(self, level: Optional[int] = None,
                     scale: Optional[float] = None) -> Ciphertext:
        """Encryption of zero at the requested level (paper Encrypt)."""
        level = self.context.max_level if level is None else level
        scale = float(self.context.params.scale if scale is None else scale)
        n = self.context.degree
        u = self.rng.integers(-1, 2, size=n, dtype=np.int64)
        e0 = np.round(self.rng.normal(0, 3.2, size=n)).astype(np.int64)
        e1 = np.round(self.rng.normal(0, 3.2, size=n)).astype(np.int64)
        ctx = self.context
        u_ntt = ctx.signed_to_ntt(u, level)
        e0_ntt = ctx.signed_to_ntt(e0, level)
        e1_ntt = ctx.signed_to_ntt(e1, level)

        st = ctx.stacked_modulus(level)
        c0 = add_mod(mul_mod(self.pk.b[:level], u_ntt, st), e0_ntt, st)
        c1 = add_mod(mul_mod(self.pk.a[:level], u_ntt, st), e1_ntt, st)
        return Ciphertext(np.stack([c0, c1]), scale, is_ntt=True)

    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        """Encrypt an encoded message."""
        if not plaintext.is_ntt:
            raise ValueError("plaintext must be in NTT form")
        ct = self.encrypt_zero(level=plaintext.level, scale=plaintext.scale)
        st = self.context.stacked_modulus(plaintext.level)
        ct.data[0] = add_mod(ct.data[0], plaintext.data, st)
        return ct
