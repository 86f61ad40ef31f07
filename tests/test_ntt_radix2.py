"""Tests for tables and the radix-2 NTT against the O(n^2) reference."""

import numpy as np
import pytest

from repro.modmath import Modulus, gen_ntt_prime
from repro.ntt import (
    bit_reverse,
    find_primitive_root,
    get_tables,
    naive_ntt_rounds,
    ntt_forward,
    ntt_inverse,
    ntt_reference,
)
from repro.ntt.tables import bit_reverse_vector

RNG = np.random.default_rng(2021)


def make_tables(n, bits=30):
    return get_tables(n, Modulus(gen_ntt_prime(bits, n)))


class TestBitReverse:
    def test_known_values(self):
        assert bit_reverse(0b001, 3) == 0b100
        assert bit_reverse(0b110, 3) == 0b011
        assert bit_reverse(5, 4) == 10

    def test_involution(self):
        for bits in (3, 5, 8):
            for x in range(1 << bits):
                assert bit_reverse(bit_reverse(x, bits), bits) == x

    def test_vector_matches_scalar(self):
        v = bit_reverse_vector(64)
        assert all(int(v[i]) == bit_reverse(i, 6) for i in range(64))


class TestPrimitiveRoot:
    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_order(self, n):
        m = Modulus(gen_ntt_prime(30, n))
        psi = find_primitive_root(n, m)
        assert pow(psi, n, m.value) == m.value - 1
        assert pow(psi, 2 * n, m.value) == 1

    def test_unsupported_modulus_raises(self):
        with pytest.raises(ValueError):
            find_primitive_root(1024, Modulus(97))


class TestTables:
    def test_layout(self):
        t = make_tables(16)
        p = t.modulus.value
        for i in range(16):
            e = bit_reverse(i, 4)
            assert int(t.w[i]) == pow(t.psi, e, p)
            assert int(t.iw[i]) == pow(t.psi, -e, p)
            assert int(t.wq[i]) == (int(t.w[i]) << 64) // p

    def test_n_inv(self):
        t = make_tables(64)
        assert (t.n_inv.operand * 64) % t.modulus.value == 1

    def test_cache_returns_same_object(self):
        m = Modulus(gen_ntt_prime(30, 32))
        assert get_tables(32, m) is get_tables(32, m.value)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            get_tables(48, Modulus(97))


@pytest.mark.parametrize("n", [8, 32, 256, 1024])
class TestForwardInverse:
    def test_forward_matches_reference_bit_reversed(self, n):
        t = make_tables(n)
        a = RNG.integers(0, t.modulus.value, size=n, dtype=np.uint64)
        got = ntt_forward(a, t)
        ref = ntt_reference([int(v) for v in a], t.psi, t.modulus)
        logn = n.bit_length() - 1
        for i in range(n):
            assert int(got[i]) == ref[bit_reverse(i, logn)]

    def test_roundtrip(self, n):
        t = make_tables(n)
        a = RNG.integers(0, t.modulus.value, size=n, dtype=np.uint64)
        assert np.array_equal(ntt_inverse(ntt_forward(a, t), t), a)

    def test_lazy_forward_congruent_and_bounded(self, n):
        t = make_tables(n)
        p = t.modulus.value
        a = RNG.integers(0, p, size=n, dtype=np.uint64)
        lazy = ntt_forward(a, t, lazy=True)
        exact = ntt_forward(a, t)
        assert (lazy.astype(object) < 4 * p).all()
        assert ((lazy.astype(object) - exact.astype(object)) % p == 0).all()

    def test_batched_matches_loop(self, n):
        t = make_tables(n)
        batch = RNG.integers(0, t.modulus.value, size=(5, n), dtype=np.uint64)
        got = ntt_forward(batch, t)
        for i in range(5):
            assert np.array_equal(got[i], ntt_forward(batch[i], t))


class TestLinearity:
    def test_ntt_is_additive(self):
        t = make_tables(128)
        p = t.modulus.value
        a = RNG.integers(0, p, size=128, dtype=np.uint64)
        b = RNG.integers(0, p, size=128, dtype=np.uint64)
        s = ((a.astype(object) + b.astype(object)) % p).astype(np.uint64)
        fs = ntt_forward(s, t).astype(object)
        fa = ntt_forward(a, t).astype(object)
        fb = ntt_forward(b, t).astype(object)
        assert ((fa + fb - fs) % p == 0).all()

    def test_ntt_of_zero_is_zero(self):
        t = make_tables(64)
        z = np.zeros(64, dtype=np.uint64)
        assert (ntt_forward(z, t) == 0).all()

    def test_ntt_of_delta_is_constant_row(self):
        """NTT(e_0) = (1,...,1): x^0 evaluates to 1 at every root."""
        t = make_tables(64)
        d = np.zeros(64, dtype=np.uint64)
        d[0] = 1
        assert (ntt_forward(d, t) == 1).all()


class TestNaiveRounds:
    def test_snapshot_count_and_final(self):
        t = make_tables(64)
        a = RNG.integers(0, t.modulus.value, size=64, dtype=np.uint64)
        snaps = naive_ntt_rounds(a, t)
        # log2(64) butterfly rounds + the fused last-round correction.
        assert len(snaps) == 6 + 1
        assert np.array_equal(snaps[-1], ntt_forward(a, t))

    def test_shape_validation(self):
        t = make_tables(64)
        with pytest.raises(ValueError):
            ntt_forward(np.zeros(32, dtype=np.uint64), t)
        with pytest.raises(ValueError):
            ntt_inverse(np.zeros(32, dtype=np.uint64), t)
