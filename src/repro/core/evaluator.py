"""Homomorphic evaluation (paper Sec. II-A: Add, Mul, Relin, RS, Rotate).

All operations act on double-CRT (RNS + NTT) ciphertexts:

* ``add``/``sub``/``add_plain``/``multiply_plain`` — pure dyadic kernels;
* ``multiply`` — the 3-component tensor product;
* ``relinearize`` — per-RNS-prime key switching with the special prime,
  i.e. the NTT-heavy routine that dominates Fig. 5;
* ``rescale`` — drop ``q_{l-1}`` and divide-and-round (keeps the scale
  stable after Mul);
* ``mod_switch_to_next`` — drop a prime without scaling;
* ``rotate``/``conjugate`` — Galois automorphism + key switch; the
  automorphism is an index permutation of the NTT-form components
  (:func:`~repro.core.galois.apply_galois_ntt`), the same mechanism
  key generation and ``rotate_hoisted`` use.

The evaluator is written once against the stacked kernel entry points:
every dyadic op is a handful of whole-tensor calls over the full
``(size, level, N)`` stack (per-limb constants broadcast from stacked
columns, Fig. 10's RNS-axis parallelism), and the key-switch
decomposition batches all ``level * (level + 1)`` NTTs into stacked
transforms.  Which implementation those calls run — compiled, or the
per-limb oracle — is the process-wide backend's kernel table
(:func:`repro.native.backend.kernels`), never the evaluator's choice;
the A/B suite (``tests/test_backend_ab.py``) holds the two
bit-identical.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..modmath.ops import add_mod, mul_mod, neg_mod, sub_mod
from ..native import backend as _backend
from ..ntt.tables import StackedNTTTables
from .ciphertext import Ciphertext
from .context import CkksContext
from .galois import apply_galois_ntt, conjugation_galois_elt, rotation_galois_elt
from .keys import GaloisKeys, KSwitchKey, RelinKey
from .plaintext import Plaintext

__all__ = ["Evaluator"]

#: Relative tolerance for scale equality checks (CKKS scales are floats).
SCALE_RTOL = 1e-9


class Evaluator:
    """Stateless evaluator bound to a context."""

    def __init__(self, context: CkksContext):
        self.context = context

    # -- shape checks ------------------------------------------------------------

    def _check_pair(self, a: Ciphertext, b: Ciphertext) -> None:
        if a.level != b.level:
            raise ValueError(f"level mismatch: {a.level} vs {b.level}")
        if not (a.is_ntt and b.is_ntt):
            raise ValueError("operands must be in NTT form")

    def _check_scales(self, sa: float, sb: float) -> None:
        if not math.isclose(sa, sb, rel_tol=SCALE_RTOL):
            raise ValueError(f"scale mismatch: {sa} vs {sb}")

    def _stacked(self, level: int):
        return self.context.stacked_modulus(level)

    # -- additive ops ---------------------------------------------------------------

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Element-wise ciphertext addition (paper Add)."""
        self._check_pair(a, b)
        self._check_scales(a.scale, b.scale)
        size = max(a.size, b.size)
        common = min(a.size, b.size)
        if common == size:
            return Ciphertext(
                add_mod(a.data, b.data, self._stacked(a.level)), a.scale
            )
        out = np.empty((size, a.level, a.degree), dtype=np.uint64)
        out[:common] = add_mod(
            a.data[:common], b.data[:common], self._stacked(a.level)
        )
        if a.size > common:
            out[common:] = a.data[common:]
        else:
            out[common:] = b.data[common:]
        return Ciphertext(out, a.scale)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Element-wise ciphertext subtraction."""
        self._check_pair(a, b)
        self._check_scales(a.scale, b.scale)
        size = max(a.size, b.size)
        st = self._stacked(a.level)
        common = min(a.size, b.size)
        if common == size:
            return Ciphertext(sub_mod(a.data, b.data, st), a.scale)
        out = np.empty((size, a.level, a.degree), dtype=np.uint64)
        out[:common] = sub_mod(a.data[:common], b.data[:common], st)
        if a.size > common:
            # sub_mod(x, 0) == x for canonical x: plain copy, bit-identical.
            out[common:] = a.data[common:]
        else:
            out[common:] = sub_mod(np.uint64(0), b.data[common:], st)
        return Ciphertext(out, a.scale)

    def add_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        if ct.level != pt.level:
            raise ValueError("level mismatch with plaintext")
        self._check_scales(ct.scale, pt.scale)
        # Only component 0 changes: fill the rest instead of copying the
        # whole ciphertext first and overwriting component 0 again.
        out = np.empty_like(ct.data)
        out[0] = add_mod(ct.data[0], pt.data, self._stacked(ct.level))
        out[1:] = ct.data[1:]
        return Ciphertext(out, ct.scale, ct.is_ntt)

    # -- multiplicative ops -------------------------------------------------------------

    def multiply(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Tensor product: sizes (2,2) -> 3 (paper Mul)."""
        self._check_pair(a, b)
        if a.size != 2 or b.size != 2:
            raise ValueError("multiply expects size-2 ciphertexts (relinearize first)")
        out = _backend.kernels().dyadic_product(
            a.data[0], a.data[1], b.data[0], b.data[1], self._stacked(a.level)
        )
        return Ciphertext(out, a.scale * b.scale)

    def square(self, a: Ciphertext) -> Ciphertext:
        """Ciphertext squaring (one fewer dyadic multiply than Mul)."""
        if a.size != 2:
            raise ValueError("square expects a size-2 ciphertext")
        out = _backend.kernels().dyadic_square(
            a.data[0], a.data[1], self._stacked(a.level)
        )
        return Ciphertext(out, a.scale * a.scale)

    def negate(self, ct: Ciphertext) -> Ciphertext:
        """Element-wise negation (free in CKKS: negate every component)."""
        data = neg_mod(ct.data, self._stacked(ct.level))
        return Ciphertext(data, ct.scale, ct.is_ntt)

    def _scalar_residues(self, scaled: int, level: int) -> np.ndarray:
        """``scaled mod q_i`` for each level prime, as a ``(level, 1)`` column."""
        col = np.array(
            [scaled % self.context.modulus(i).value for i in range(level)],
            dtype=np.uint64,
        )
        return col[:, None]

    def add_scalar(self, ct: Ciphertext, value: float) -> Ciphertext:
        """Add a public scalar to every slot.

        A constant slot vector encodes to the constant polynomial
        ``round(value * scale)``, whose NTT form is that same constant in
        every position — one broadcast modular addition per prime.
        """
        scaled = round(value * ct.scale)
        out = np.empty_like(ct.data)
        out[0] = add_mod(
            ct.data[0], self._scalar_residues(scaled, ct.level),
            self._stacked(ct.level),
        )
        out[1:] = ct.data[1:]
        return Ciphertext(out, ct.scale, ct.is_ntt)

    def multiply_scalar(self, ct: Ciphertext, value: float,
                        *, scale: float | None = None) -> Ciphertext:
        """Multiply every slot by a public scalar.

        The scalar is encoded at ``scale`` (default: the context scale),
        so the result's scale is ``ct.scale * scale`` — rescale after, as
        with any multiplication.
        """
        scale = float(self.context.params.scale if scale is None else scale)
        scaled = round(value * scale)
        data = mul_mod(
            ct.data, self._scalar_residues(scaled, ct.level),
            self._stacked(ct.level),
        )
        return Ciphertext(data, ct.scale * scale, ct.is_ntt)

    def multiply_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        if ct.level != pt.level:
            raise ValueError("level mismatch with plaintext")
        data = mul_mod(ct.data, pt.data, self._stacked(ct.level))
        return Ciphertext(data, ct.scale * pt.scale, ct.is_ntt)

    # -- key switching ------------------------------------------------------------------

    def _target_rows(self, level: int) -> Tuple[int, ...]:
        special_idx = len(self.context.key_base) - 1
        return tuple(range(level)) + (special_idx,)

    def _switch_tables(self, level: int) -> StackedNTTTables:
        """NTT tables of the key switch's target rows: the ``level``
        current primes, then the special prime."""
        return self.context.stacked_tables_rows(self._target_rows(level))

    def _decompose_for_switch(self, poly_ntt: np.ndarray, level: int,
                              tables: StackedNTTTables) -> np.ndarray:
        """Key-switch decomposition: the NTT-heavy half of _switch_key.

        Returns ``D`` of shape ``(level, level+1, N)`` in NTT form:
        ``D[i, r] = NTT_r([poly]_{q_i} mod modulus_r)`` for target row
        ``r`` (``tables``) over the current primes plus the special
        prime.  This is the part *hoisting* shares across rotations of
        one ciphertext.

        The table entry is one stacked inverse NTT over all source
        primes, one broadcast Barrett reduction onto the ``(level,
        level+1, N)`` grid, and one stacked forward NTT over the whole
        grid — fused into a single call without the two intermediate
        tensors when the backend has such a kernel.
        """
        return _backend.kernels().ks_decompose(
            poly_ntt, self.context.stacked_tables.prefix(level), tables
        )

    def _accumulate_switch(self, decomposed: np.ndarray, level: int,
                           ksk: KSwitchKey,
                           tables: StackedNTTTables) -> np.ndarray:
        """Dyadic half of the key switch: key products + mod-down by P.

        Returns the ``(2, level, N)`` pair ``(d0, d1)``.  One table entry:
        per target row, both key components' inner products over the
        source primes (the paper's one-reduction multiply-accumulate,
        key rows read in place), then both sums divided by the special
        prime.
        """
        ctx = self.context
        return _backend.kernels().ks_accumulate(
            decomposed, ksk.data[:level], self._target_rows(level), tables,
            *ctx.divide_round_columns(len(ctx.key_base) - 1, level),
        )

    def _switch_key(
        self, poly_ntt: np.ndarray, level: int, ksk: KSwitchKey
    ) -> np.ndarray:
        """Key-switch one polynomial; returns ``(d0, d1)`` over ``level`` primes.

        The NTT-dominated inner loop of Relin and Rotate: for each source
        prime the coefficient-form residue is re-reduced and re-NTT-ed per
        target prime (including the special prime), multiplied into the
        key, accumulated, and finally divided by ``P`` (mod-down) — two
        kernel-table calls, ``ks_decompose`` and ``ks_accumulate``.
        """
        tables = self._switch_tables(level)
        decomposed = self._decompose_for_switch(poly_ntt, level, tables)
        return self._accumulate_switch(decomposed, level, ksk, tables)

    def relinearize(self, ct: Ciphertext, rlk: RelinKey) -> Ciphertext:
        """Shrink a size-3 ciphertext back to 2 (paper Relin)."""
        if ct.size != 3:
            raise ValueError("relinearize expects a size-3 ciphertext")
        d = self._switch_key(ct.data[2], ct.level, rlk.key)
        return Ciphertext(
            add_mod(ct.data[:2], d, self._stacked(ct.level)), ct.scale
        )

    # -- modulus management --------------------------------------------------------------

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Divide by ``q_{l-1}`` and drop it (paper RS)."""
        if ct.level < 2:
            raise ValueError("cannot rescale below one remaining prime")
        new = self.context.rescale_ntt(ct.data, ct.level)
        dropped = self.context.modulus(ct.level - 1).value
        return Ciphertext(new, ct.scale / dropped)

    def mod_switch_to_next(self, ct: Ciphertext) -> Ciphertext:
        """Drop ``q_{l-1}`` without scaling (paper ModSw)."""
        if ct.level < 2:
            raise ValueError("cannot switch below one remaining prime")
        return Ciphertext(ct.data[:, : ct.level - 1, :].copy(), ct.scale)

    def mod_switch_to(self, ct: Ciphertext, level: int) -> Ciphertext:
        """Drop primes down to ``level`` in one slice (no per-step copies)."""
        if ct.level == level:
            return ct
        if not 1 <= level < ct.level:
            raise ValueError(f"cannot switch from level {ct.level} to {level}")
        return Ciphertext(ct.data[:, :level, :].copy(), ct.scale)

    # -- automorphisms -------------------------------------------------------------------

    def _apply_galois(self, ct: Ciphertext, elt: int,
                      ksk: KSwitchKey) -> Ciphertext:
        level = ct.level
        rotated = apply_galois_ntt(ct.data[:2], elt)
        d0, d1 = self._switch_key(rotated[1], level, ksk)
        out = np.empty((2, level, ct.degree), dtype=np.uint64)
        out[0] = add_mod(rotated[0], d0, self._stacked(level))
        out[1] = d1
        return Ciphertext(out, ct.scale)

    def rotate(self, ct: Ciphertext, steps: int, galois_keys: GaloisKeys) -> Ciphertext:
        """Rotate the slot vector left by ``steps`` (paper Rotate)."""
        if ct.size != 2:
            raise ValueError("rotate expects a size-2 ciphertext")
        elt = rotation_galois_elt(steps, self.context.degree)
        return self._apply_galois(ct, elt, galois_keys.get(elt))

    def conjugate(self, ct: Ciphertext, galois_keys: GaloisKeys) -> Ciphertext:
        """Complex-conjugate every slot."""
        if ct.size != 2:
            raise ValueError("conjugate expects a size-2 ciphertext")
        elt = conjugation_galois_elt(self.context.degree)
        return self._apply_galois(ct, elt, galois_keys.get(elt))

    def rotate_hoisted(self, ct: Ciphertext, steps_list: list,
                       galois_keys: GaloisKeys) -> list:
        """Rotate one ciphertext by several step counts, hoisting shared work.

        Halevi-Shoup hoisting: the key-switch *decomposition* of ``c1``
        (the ``l*(l+1)`` NTT transforms that dominate Rotate) is computed
        once; each rotation then applies its Galois permutation directly
        to the decomposed NTT-form polynomials — the automorphism commutes
        with per-prime reduction, and in NTT form it is a pure index
        permutation (:func:`~repro.core.galois.galois_permutation_ntt`).

        Returns the rotated ciphertexts in the order of ``steps_list``.
        They decrypt like :meth:`rotate`'s but are not bit-identical to
        them: here each digit is permuted *after* its reduction, so a
        sign-flipped coefficient ``-a`` of source prime ``q_i`` lands in
        target row ``r`` as ``q_r - (a mod q_r)``, where :meth:`rotate`
        reduces the already-negated ``(q_i - a) mod q_r``.
        """
        if ct.size != 2:
            raise ValueError("rotate expects a size-2 ciphertext")
        if not steps_list:
            return []
        ctx = self.context
        level = ct.level
        tables = self._switch_tables(level)
        decomposed = self._decompose_for_switch(ct.data[1], level, tables)
        out = []
        for steps in steps_list:
            elt = rotation_galois_elt(steps, ctx.degree)
            ksk = galois_keys.get(elt)
            rotated_decomp = apply_galois_ntt(decomposed, elt)
            d0, d1 = self._accumulate_switch(rotated_decomp, level, ksk,
                                             tables)
            c0_rot = apply_galois_ntt(ct.data[0], elt)
            data = np.empty((2, level, ct.degree), dtype=np.uint64)
            data[0] = add_mod(c0_rot, d0, self._stacked(level))
            data[1] = d1
            out.append(Ciphertext(data, ct.scale))
        return out
