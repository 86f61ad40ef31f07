"""Key generation and rotation on the stacked kernel path: equivalence pins.

Key generation reaches NTT form through ``CkksContext.signed_to_ntt``
and applies Galois maps to the NTT-form secret; ``Evaluator.rotate`` /
``conjugate`` permute NTT-form components directly.  Both replaced a
per-row / coefficient-domain path.  The old code is kept here, verbatim
in behaviour, as the reference the new one must match bit for bit:

* ``_PerRowKeyGenerator`` — per-row serial NTTs, scalar-``Modulus``
  arithmetic and the coefficient-domain Galois map on the secret;
* ``_coefficient_path_rotate`` — iNTT -> ``apply_galois_coeff`` -> NTT,
  then the evaluator's key switch.
"""

import functools
import gc
import warnings
import weakref

import numpy as np
import pytest

from repro import native as repro_native
from repro.core import CkksContext, CkksParameters, Evaluator, KeyGenerator
from repro.core.ciphertext import Ciphertext
from repro.core.galois import (
    apply_galois_coeff,
    conjugation_galois_elt,
    rotation_galois_elt,
)
from repro.core.keygen import ERROR_STDDEV
from repro.modmath.ops import add_mod, mul_mod, neg_mod
from repro.native import use_backend
from repro.ntt.radix2 import ntt_forward
from repro.ntt.tables import get_tables

needs_native = pytest.mark.skipif(
    not repro_native.available(),
    reason="no usable C toolchain: native backend leg skipped "
           f"({repro_native.availability_error()})",
)

BACKENDS = [pytest.param("native", marks=needs_native), "serial"]


class _PerRowKeyGenerator:
    """The per-row key generator the stacked one replaced (reference)."""

    def __init__(self, context, seed):
        self.context = context
        self.rng = np.random.default_rng(seed)
        self.tables = [get_tables(context.degree, m) for m in context.key_base]
        self._secret = None

    def _sample_ternary(self):
        return self.rng.integers(-1, 2, size=self.context.degree, dtype=np.int64)

    def _sample_error(self):
        e = self.rng.normal(0.0, ERROR_STDDEV, size=self.context.degree)
        return np.round(e).astype(np.int64)

    def _sample_uniform_ntt(self, rows):
        out = np.empty((len(rows), self.context.degree), dtype=np.uint64)
        for r, idx in enumerate(rows):
            p = self.context.modulus(idx).value
            out[r] = self.rng.integers(0, p, size=self.context.degree, dtype=np.uint64)
        return out

    def _reduce_and_ntt(self, coeffs, rows):
        out = np.empty((len(rows), self.context.degree), dtype=np.uint64)
        for r, idx in enumerate(rows):
            m = self.context.modulus(idx)
            reduced = (coeffs % np.int64(m.value)).astype(np.uint64)
            out[r] = ntt_forward(reduced, self.tables[idx])
        return out

    def secret_key(self):
        if self._secret is None:
            coeffs = self._sample_ternary()
            rows = list(range(len(self.context.key_base)))
            self._secret = (self._reduce_and_ntt(coeffs, rows), coeffs)
        return self._secret

    def public_key(self):
        s_ntt, _ = self.secret_key()
        rows = list(range(self.context.max_level))
        a = self._sample_uniform_ntt(rows)
        e = self._reduce_and_ntt(self._sample_error(), rows)
        b = np.empty_like(a)
        for i in rows:
            m = self.context.modulus(i)
            b[i] = neg_mod(add_mod(mul_mod(a[i], s_ntt[i], m), e[i], m), m)
        return np.stack([b, a])

    def _switching_key(self, target_ntt):
        s_ntt, _ = self.secret_key()
        ctx = self.context
        all_rows = list(range(len(ctx.key_base)))
        out = []
        for i in range(ctx.max_level):
            a = self._sample_uniform_ntt(all_rows)
            e = self._reduce_and_ntt(self._sample_error(), all_rows)
            b = np.empty_like(a)
            for j in all_rows:
                m = ctx.modulus(j)
                b[j] = neg_mod(add_mod(mul_mod(a[j], s_ntt[j], m), e[j], m), m)
            m_i = ctx.modulus(i)
            p_mod = np.uint64(ctx.special.value % m_i.value)
            b[i] = add_mod(b[i], mul_mod(target_ntt[i], p_mod, m_i), m_i)
            out.append(np.stack([b, a]))
        return out

    def relin_key(self):
        s_ntt, _ = self.secret_key()
        s2 = np.empty_like(s_ntt)
        for j in range(s2.shape[0]):
            m = self.context.modulus(j)
            s2[j] = mul_mod(s_ntt[j], s_ntt[j], m)
        return self._switching_key(s2)

    def galois_keys(self, elts):
        _, coeffs = self.secret_key()
        ctx = self.context
        coeff_rows = np.stack([
            (coeffs % np.int64(m.value)).astype(np.uint64) for m in ctx.key_base
        ])
        out = {}
        for elt in elts:
            if elt in out:
                continue
            rotated = apply_galois_coeff(coeff_rows, elt, ctx.key_base)
            rotated_ntt = np.stack([
                ntt_forward(rotated[j], self.tables[j])
                for j in range(len(ctx.key_base))
            ])
            out[elt] = self._switching_key(rotated_ntt)
        return out


def _coefficient_path_rotate(ev, ct, elt, ksk):
    """The iNTT -> coefficient Galois map -> NTT rotation (reference)."""
    ctx = ev.context
    level = ct.level
    coeff = ctx.from_ntt(ct.data[:2])
    rotated = ctx.to_ntt(apply_galois_coeff(coeff, elt, ctx.level_base(level)))
    d0, d1 = ev._switch_key(rotated[1], level, ksk)
    out = np.empty((2, level, ct.degree), dtype=np.uint64)
    out[0] = add_mod(rotated[0], d0, ctx.stacked_modulus(level))
    out[1] = d1
    return out


def _params(degree, levels):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return CkksParameters.default(degree=degree, levels=levels)


def _steps(degree):
    return sorted({1, 2, 3, degree // 4 - 1})


def _elts(degree):
    return [rotation_galois_elt(s, degree) for s in _steps(degree)] + [
        conjugation_galois_elt(degree)
    ]


@functools.lru_cache(maxsize=None)
def _reference_keys(degree, levels, seed, public_first):
    """Per-row reference keys, memoised: they do not depend on the backend."""
    ref = _PerRowKeyGenerator(CkksContext(_params(degree, levels)), seed)
    if public_first:
        pk = ref.public_key()
        sk = ref.secret_key()
    else:
        sk = ref.secret_key()
        pk = ref.public_key()
    return sk, pk, ref.relin_key(), ref.galois_keys(_elts(degree))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("public_first", [False, True])
@pytest.mark.parametrize("degree,levels", [(16, 2), (64, 3), (1024, 3)])
def test_keys_match_per_row_reference(backend, public_first, degree, levels):
    """Stacked keygen == the per-row keygen, byte for byte, either call order."""
    (ref_s, ref_coeffs), ref_pk, ref_rlk, ref_gk = _reference_keys(
        degree, levels, 21, public_first
    )
    with use_backend(backend):
        kg = KeyGenerator(CkksContext(_params(degree, levels)), seed=21)
        if public_first:
            pk = kg.public_key()
            sk = kg.secret_key()
        else:
            sk = kg.secret_key()
            pk = kg.public_key()
        rlk = kg.relin_key()
        gk = kg.galois_keys(_steps(degree), include_conjugate=True)
    assert np.array_equal(sk.ntt_rows, ref_s)
    assert np.array_equal(sk.signed_coeffs, ref_coeffs)
    assert np.array_equal(pk.data, ref_pk)
    assert len(rlk.key.data) == len(ref_rlk)
    for got, want in zip(rlk.key.data, ref_rlk):
        assert np.array_equal(got, want)
    assert sorted(gk.keys) == sorted(ref_gk)
    for elt, want_key in ref_gk.items():
        for got, want in zip(gk.get(elt).data, want_key):
            assert np.array_equal(got, want), elt


@needs_native
@pytest.mark.parametrize("degree,levels", [(4096, 4), (8192, 7)])
def test_native_keys_match_per_row_reference_large(degree, levels):
    """Paper-sized shapes: relin and Galois keys byte-identical (native)."""
    _, ref_pk, ref_rlk, ref_gk = _reference_keys(degree, levels, 5, True)
    with use_backend("native"):
        kg = KeyGenerator(CkksContext(_params(degree, levels)), seed=5)
        pk = kg.public_key()
        rlk = kg.relin_key()
        gk = kg.galois_keys(_steps(degree), include_conjugate=True)
    assert np.array_equal(pk.data, ref_pk)
    for got, want in zip(rlk.key.data, ref_rlk):
        assert np.array_equal(got, want)
    for elt, want_key in ref_gk.items():
        for got, want in zip(gk.get(elt).data, want_key):
            assert np.array_equal(got, want), elt


def _assert_rotations_match_coefficient_path(backend, degree, levels):
    ctx = CkksContext(_params(degree, levels))
    ev = Evaluator(ctx)
    rng = np.random.default_rng(degree + levels)
    with use_backend(backend):
        gk = KeyGenerator(ctx, seed=9).galois_keys(
            _steps(degree), include_conjugate=True
        )
        for level in range(ctx.max_level, 0, -1):
            data = np.stack([
                rng.integers(0, ctx.modulus(i).value, (2, degree), dtype=np.uint64)
                for i in range(level)
            ], axis=1)
            ct = Ciphertext(data, float(ctx.params.scale))
            for steps in _steps(degree):
                elt = rotation_galois_elt(steps, degree)
                want = _coefficient_path_rotate(ev, ct, elt, gk.get(elt))
                got = ev.rotate(ct, steps, gk)
                assert np.array_equal(got.data, want), (level, steps)
                assert got.scale == ct.scale
            elt = conjugation_galois_elt(degree)
            want = _coefficient_path_rotate(ev, ct, elt, gk.get(elt))
            assert np.array_equal(ev.conjugate(ct, gk).data, want), level


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("degree", [16, 64, 1024, 4096])
def test_rotate_conjugate_match_coefficient_path(backend, degree):
    """NTT-form rotate/conjugate == the iNTT/coefficient/NTT round trip,
    at every level from the top down to one prime."""
    _assert_rotations_match_coefficient_path(backend, degree, 3)


@needs_native
@pytest.mark.parametrize("degree,levels", [(8192, 7), (16384, 3)])
def test_native_rotate_conjugate_match_coefficient_path_large(degree, levels):
    """The benchmark shapes N=8192/L8 and N=16384/L4."""
    _assert_rotations_match_coefficient_path("native", degree, levels)


def test_keygen_does_not_pin_context():
    """A discarded context (and its stacked tables) is freed after keygen."""
    ctx = CkksContext(_params(64, 2))
    kg = KeyGenerator(ctx, seed=3)
    keys = (kg.public_key(), kg.relin_key(),
            kg.galois_keys([1], include_conjugate=True))
    ref = weakref.ref(ctx)
    del ctx, kg
    gc.collect()
    assert ref() is None
    assert keys[1].key.data
