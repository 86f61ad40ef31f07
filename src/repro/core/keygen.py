"""Key generation (paper KeyGen): secret, public, relin and Galois keys.

Distributions follow SEAL: uniform ternary secret, centered-Gaussian
errors (sigma = 3.2, rounded), uniform ``a`` sampled directly in NTT form
(uniformity is preserved by the bijective transform).

The key-switching keys use the per-RNS-prime decomposition with a single
special prime ``P`` (Sec. II of this repo's DESIGN.md): component ``i``
of a key encrypts ``P * target`` in RNS slot ``i`` only, which makes the
switch work at every ciphertext level with no big-integer arithmetic.

Like the encoder, encryptor and evaluator, key generation is written
against the stacked kernel entry points: signed samples reach NTT form
through :meth:`CkksContext.signed_to_ntt`, key arithmetic runs as
whole-stack modular kernels, and Galois keys permute the NTT-form
secret directly.  The only ordering constraint is the seeded draws —
the secret first, then per key ``a`` before ``e`` — so a seed gives the
same keys under every backend and in either call order of
``secret_key``/``public_key``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from ..modmath.ops import add_mod, mul_mod, neg_mod
from .context import CkksContext
from .galois import apply_galois_ntt, conjugation_galois_elt, rotation_galois_elt
from .keys import GaloisKeys, KSwitchKey, PublicKey, RelinKey, SecretKey

__all__ = ["KeyGenerator", "ERROR_STDDEV"]

#: Standard deviation of the error distribution (HE-standard sigma).
ERROR_STDDEV = 3.2


class KeyGenerator:
    """Samples all key material for a context."""

    def __init__(self, context: CkksContext, *, seed: Optional[int] = None):
        self.context = context
        self.rng = np.random.default_rng(seed)
        self._secret: Optional[SecretKey] = None

    # -- sampling --------------------------------------------------------------

    def _sample_ternary(self) -> np.ndarray:
        return self.rng.integers(-1, 2, size=self.context.degree, dtype=np.int64)

    def _sample_error(self) -> np.ndarray:
        e = self.rng.normal(0.0, ERROR_STDDEV, size=self.context.degree)
        return np.round(e).astype(np.int64)

    def _sample_uniform_ntt(self, rows: int) -> np.ndarray:
        """Uniform polynomial over the first ``rows`` key-base primes (NTT form)."""
        out = np.empty((rows, self.context.degree), dtype=np.uint64)
        for r in range(rows):
            p = self.context.modulus(r).value
            out[r] = self.rng.integers(0, p, size=self.context.degree, dtype=np.uint64)
        return out

    def _encrypt_zero(self, rows: int) -> Tuple[np.ndarray, np.ndarray]:
        """Fresh ``(b, a)`` with ``b = -(a s + e)`` over the first ``rows``.

        Draws the secret (if not yet drawn), then ``a``, then ``e``.
        """
        ctx = self.context
        sk = self.secret_key()
        a = self._sample_uniform_ntt(rows)
        e = ctx.signed_to_ntt(self._sample_error(), rows)
        st = ctx.stacked_modulus(rows)
        b = neg_mod(add_mod(mul_mod(a, sk.ntt_rows[:rows], st), e, st), st)
        return b, a

    # -- keys ---------------------------------------------------------------------

    def secret_key(self) -> SecretKey:
        """Sample (once) and return the ternary secret key."""
        if self._secret is None:
            coeffs = self._sample_ternary()
            self._secret = SecretKey(
                ntt_rows=self.context.signed_to_ntt(
                    coeffs, len(self.context.key_base)
                ),
                signed_coeffs=coeffs,
            )
        return self._secret

    def public_key(self) -> PublicKey:
        """``(b, a)`` with ``b = -(a s + e)`` over the ciphertext base."""
        return PublicKey(data=np.stack(self._encrypt_zero(self.context.max_level)))

    def _switching_key(self, target_ntt: np.ndarray) -> KSwitchKey:
        """Key-switching key hiding ``P * target`` (target in NTT form, full base)."""
        ctx = self.context
        n_keys = ctx.max_level  # decomposition over ciphertext primes
        st = ctx.stacked_modulus(n_keys)
        p_col = np.array(
            [[ctx.special.value % ctx.modulus(i).value] for i in range(n_keys)],
            dtype=np.uint64,
        )
        p_target = mul_mod(target_ntt[:n_keys], p_col, st)
        out = KSwitchKey()
        for i in range(n_keys):
            b, a = self._encrypt_zero(len(ctx.key_base))
            # Embed P * target into RNS slot i only.
            b[i] = add_mod(b[i], p_target[i], ctx.modulus(i))
            out.data.append(np.stack([b, a]))
        return out

    def relin_key(self) -> RelinKey:
        """Switching key for ``s**2 -> s`` (paper Relin)."""
        s = self.secret_key().ntt_rows
        st = self.context.stacked_modulus(len(self.context.key_base))
        return RelinKey(key=self._switching_key(mul_mod(s, s, st)))

    def galois_keys(self, steps: Iterable[int] = (), *,
                    include_conjugate: bool = False) -> GaloisKeys:
        """Switching keys for ``kappa(s) -> s`` per requested rotation."""
        sk = self.secret_key()
        elts = [rotation_galois_elt(s, self.context.degree) for s in steps]
        if include_conjugate:
            elts.append(conjugation_galois_elt(self.context.degree))
        out = GaloisKeys()
        for elt in elts:
            if not out.has(elt):
                out.keys[elt] = self._switching_key(
                    apply_galois_ntt(sk.ntt_rows, elt)
                )
        return out
