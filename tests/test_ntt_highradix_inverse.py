"""Tests for the high-radix inverse NTT."""

import numpy as np
import pytest

from repro.modmath import Modulus, gen_ntt_prime
from repro.ntt import get_tables, ntt_forward, ntt_inverse
from repro.ntt.highradix import (
    high_radix_inverse_group,
    ntt_inverse_high_radix,
)
from repro.ntt.radix2 import inverse_stage

RNG = np.random.default_rng(17)


def make(n, bits=30):
    return get_tables(n, Modulus(gen_ntt_prime(bits, n)))


@pytest.mark.parametrize("radix", [4, 8, 16])
@pytest.mark.parametrize("n", [64, 256, 2048])
class TestInverseEquivalence:
    def test_matches_radix2_inverse(self, radix, n):
        t = make(n)
        a = RNG.integers(0, t.modulus.value, size=n, dtype=np.uint64)
        fa = ntt_forward(a, t)
        assert np.array_equal(
            ntt_inverse_high_radix(fa, t, radix), ntt_inverse(fa, t)
        )

    def test_roundtrip(self, radix, n):
        t = make(n)
        a = RNG.integers(0, t.modulus.value, size=n, dtype=np.uint64)
        assert np.array_equal(
            ntt_inverse_high_radix(ntt_forward(a, t), t, radix), a
        )

    def test_batched(self, radix, n):
        t = make(n)
        a = RNG.integers(0, t.modulus.value, size=(3, n), dtype=np.uint64)
        fa = ntt_forward(a, t)
        assert np.array_equal(
            ntt_inverse_high_radix(fa, t, radix), ntt_inverse(fa, t)
        )


class TestInverseGroupSemantics:
    def test_group_equals_consecutive_gs_stages(self):
        n = 512
        t = make(n)
        a = RNG.integers(0, t.modulus.value, size=n, dtype=np.uint64)
        grouped = a.copy()
        high_radix_inverse_group(grouped, t, h=n // 2, radix=8)
        staged = a.copy()
        for s in range(3):
            inverse_stage(staged, t, (n // 2) >> s)
        assert np.array_equal(grouped, staged)

    def test_tail_too_small_raises(self):
        t = make(64)
        a = np.zeros(64, dtype=np.uint64)
        with pytest.raises(ValueError):
            high_radix_inverse_group(a, t, h=2, radix=8)

    def test_invalid_radix(self):
        t = make(64)
        with pytest.raises(ValueError):
            high_radix_inverse_group(np.zeros(64, dtype=np.uint64), t, 32, 6)

