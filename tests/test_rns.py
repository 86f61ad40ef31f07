"""Unit tests for the RNS substrate: base, CRT, base conversion, scaling."""

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.modmath import gen_ntt_primes
from repro.rns import (
    BaseConverter,
    LastModulusScaler,
    RNSBase,
    compose_poly,
    compose_signed_float,
    compose_signed_poly,
    decompose_poly,
    decompose_signed_poly,
)

RNG = np.random.default_rng(99)

PRIMES = gen_ntt_primes([40, 40, 40, 50], 1024)


@pytest.fixture(scope="module")
def base():
    return RNSBase.from_values(PRIMES)


class TestRNSBase:
    def test_product(self, base):
        prod = 1
        for p in PRIMES:
            prod *= p
        assert base.product == prod

    def test_punctured_identities(self, base):
        for i, m in enumerate(base):
            assert base.punctured[i] * m.value == base.product
            assert (base.punctured[i] * base.inv_punctured[i]) % m.value == 1

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            RNSBase.from_values([15, 25])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RNSBase(())

    def test_scalar_compose_decompose_roundtrip(self, base):
        for _ in range(50):
            x = int(RNG.integers(0, 2**62)) * int(RNG.integers(0, 2**62))
            x %= base.product
            assert base.compose(base.decompose(x)) == x

    def test_drop_last(self, base):
        smaller = base.drop_last()
        assert len(smaller) == len(base) - 1
        assert smaller.values == base.values[:-1]

    def test_drop_last_single_raises(self):
        with pytest.raises(ValueError):
            RNSBase.from_values([97]).drop_last()

    def test_prefix(self, base):
        assert RNSBase.from_values(PRIMES[:2]).values == base.prefix(2).values
        with pytest.raises(ValueError):
            base.prefix(0)

    def test_extend(self, base):
        extra = RNSBase.from_values(gen_ntt_primes([60], 1024))
        big = base.extend(extra)
        assert big.values == base.values + extra.values
        assert big.product == base.product * extra.product


class TestPolyCRT:
    def test_roundtrip_unsigned(self, base):
        coeffs = [int(RNG.integers(0, 2**61)) for _ in range(32)]
        mat = decompose_poly(coeffs, base)
        assert mat.shape == (len(base), 32)
        assert compose_poly(mat, base) == [c % base.product for c in coeffs]

    def test_roundtrip_negative(self, base):
        coeffs = [-5, -1, 0, 1, 5, -(2**40)]
        mat = decompose_poly(coeffs, base)
        signed = compose_signed_poly(mat, base)
        assert signed == coeffs

    def test_signed_fast_path_matches_generic(self, base):
        coeffs = RNG.integers(-(2**50), 2**50, size=64, dtype=np.int64)
        fast = decompose_signed_poly(coeffs, base)
        slow = decompose_poly([int(c) for c in coeffs], base)
        assert np.array_equal(fast, slow)

    def test_compose_rejects_wrong_shape(self, base):
        with pytest.raises(ValueError):
            compose_poly(np.zeros((2, 8), dtype=np.uint64), base)


@lru_cache(maxsize=None)
def _float_base(bits: tuple, degree: int) -> RNSBase:
    return RNSBase.from_values(gen_ntt_primes(list(bits), degree))


def _edge_values(base):
    """Centred values on both sides of every boundary the fast path checks."""
    half = base.half_q()
    return [0, 1, -1, 2**63 - 1, -(2**63 - 1), -(2**63), 2**63, -(2**63) - 1,
            half, half + 1, half - 1, -half, -half + 1]


def _fast_vs_reference(mat, base):
    """``compose_signed_float`` against the big-int reference, bit for bit."""
    want = np.array(compose_signed_poly(mat, base), dtype=np.float64)
    got = compose_signed_float(mat, base)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _mixed_matrix(base, degree, seed):
    """Random full-range residues, small centred values and the edges."""
    rng = np.random.default_rng(seed)
    kind = rng.integers(0, 3, size=degree)
    bits = rng.integers(0, 63, size=degree)
    small = rng.integers(-(2**62), 2**62, size=degree) >> bits
    cols = [
        int(rng.integers(0, 2**62)) * int(rng.integers(0, 2**62))
        if t == 0 else int(v) for t, v in zip(kind, small)
    ]
    edges = _edge_values(base)
    cols[: len(edges)] = edges
    return decompose_poly(cols, base)


_BITS = st.sampled_from([30, 40, 50, 60])


class TestComposeSignedFloat:
    """The certified float CRT equals ``float(compose_signed_poly(...))``."""

    @settings(max_examples=40, deadline=None)
    @given(bits=st.lists(_BITS, min_size=1, max_size=8),
           logn=st.integers(4, 13), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference(self, bits, logn, seed):
        base = _float_base(tuple(bits), 1 << logn)
        _fast_vs_reference(_mixed_matrix(base, 1 << logn, seed), base)

    @settings(max_examples=3, deadline=None)
    @given(levels=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_at_16384(self, levels, seed):
        base = _float_base((60,) + (40,) * (levels - 1), 16384)
        _fast_vs_reference(_mixed_matrix(base, 16384, seed), base)

    def test_one_prime_base_below_2_63(self):
        base = _float_base((60,), 16)
        assert base.product < 2**63
        _fast_vs_reference(_mixed_matrix(base, 16, 5), base)

    def test_two_prime_base_below_2_64_near_half_q(self):
        """With ``q < 2**64`` the quotient guess near ``+-q/2`` is often
        off by one; both range bounds must reject those candidates."""
        base = _float_base((30, 30), 16)
        half = base.half_q()
        assert base.product < 2**64
        cols = [half - d for d in range(256)] + [-half + d for d in range(256)]
        _fast_vs_reference(decompose_poly(cols, base), base)

    def test_fallback_only_on_uncertified_columns(self, monkeypatch):
        import repro.rns.crt as crt

        base = _float_base((50, 40, 40), 16)
        cols = [3, -7, 2**63, 0, -(2**64), 12345]
        calls = []

        def spy(mat, b):
            calls.append(mat.shape[1])
            return compose_signed_poly(mat, b)

        monkeypatch.setattr(crt, "compose_signed_poly", spy)
        got = compose_signed_float(decompose_poly(cols, base), base)
        assert calls == [2]
        assert got.tolist() == [float(c) for c in cols]
        calls.clear()
        small = [c for c in cols if abs(c) < 2**63]
        compose_signed_float(decompose_poly(small, base), base)
        assert calls == []

    def test_rejects_wrong_shape(self, base):
        with pytest.raises(ValueError):
            compose_signed_float(np.zeros((2, 8), dtype=np.uint64), base)


class TestBaseConverter:
    def test_conversion_overshoot_bounded(self, base):
        obase = RNSBase.from_values(gen_ntt_primes([60, 59], 1024))
        conv = BaseConverter(base, obase)
        n = 16
        big = random.Random(123)
        coeffs = [big.randrange(base.product) for _ in range(n)]
        mat = decompose_poly(coeffs, base)
        out = conv.convert(mat)
        assert out.shape == (2, n)
        q = base.product
        k = len(base)  # the input size bounds the overshoot
        for j, pj in enumerate(obase):
            for idx in range(n):
                # out = (x + alpha*q) mod p_j with 0 <= alpha < k
                got = int(out[j, idx])
                ok = any(
                    got == (coeffs[idx] + alpha * q) % pj.value
                    for alpha in range(k)
                )
                assert ok, f"overshoot exceeded at ({j},{idx})"

    def test_small_values_convert_exactly(self, base):
        """For x << q the conversion is exact (alpha = 0 w.h.p... actually
        deterministically, since y_i*(q/q_i) sums to x exactly when each
        y_i = x * inv_punc_i mod q_i reconstructs x < q with no wrap)."""
        obase = RNSBase.from_values(gen_ntt_primes([60], 1024))
        conv = BaseConverter(base, obase)
        coeffs = [0, 1, 2, 3]
        mat = decompose_poly(coeffs, base)
        out = conv.convert(mat)
        q = base.product
        for idx, c in enumerate(coeffs):
            got = int(out[0, idx])
            assert any(
                got == (c + alpha * q) % obase[0].value for alpha in range(len(base))
            )

    def test_rejects_mismatched_matrix(self, base):
        obase = RNSBase.from_values(gen_ntt_primes([60], 1024))
        conv = BaseConverter(base, obase)
        with pytest.raises(ValueError):
            conv.convert(np.zeros((1, 4), dtype=np.uint64))


class TestLastModulusScaler:
    def test_divide_round_matches_bigint(self, base):
        scaler = LastModulusScaler(base)
        n = 64
        big = random.Random(321)
        coeffs = [big.randrange(base.product) for _ in range(n)]
        mat = decompose_poly(coeffs, base)
        out = scaler.divide_round(mat)
        assert out.shape == (len(base) - 1, n)
        kept = base.drop_last()
        for idx in range(n):
            expect = scaler.exact_check_value(coeffs[idx])
            got = kept.compose(out[:, idx])
            assert got == expect

    def test_divide_round_small_error(self, base):
        """|round(x/d) - x/d| <= 1/2 — verify the scaled value is close."""
        scaler = LastModulusScaler(base)
        d = scaler.dropped.value
        values = [123456789 * d + r for r in (0, 1, d // 2, d - 1)]
        mat = decompose_poly(values, base)
        out = scaler.divide_round(mat)
        kept = base.drop_last()
        for idx, v in enumerate(values):
            got = kept.compose(out[:, idx])
            assert abs(got - round(v / d)) <= 1

    def test_requires_two_moduli(self):
        with pytest.raises(ValueError):
            LastModulusScaler(RNSBase.from_values([97]))

    def test_shape_validation(self, base):
        scaler = LastModulusScaler(base)
        with pytest.raises(ValueError):
            scaler.divide_round(np.zeros((2, 4), dtype=np.uint64))
