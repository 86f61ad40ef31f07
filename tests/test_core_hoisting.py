"""Tests for NTT-domain Galois application and hoisted rotations."""

import numpy as np
import pytest

from repro.core.galois import (
    apply_galois_coeff,
    apply_galois_ntt,
    conjugation_galois_elt,
    galois_permutation_ntt,
    rotation_galois_elt,
)
from repro.ntt.tables import bit_reverse

TOL = 1e-3


class TestGaloisNttDomain:
    @pytest.mark.parametrize("steps", [1, 2, 3, 7])
    def test_matches_coeff_domain_path(self, ckks, rng, steps):
        """NTT-domain permutation == iNTT -> coeff galois -> NTT."""
        ctx = ckks["context"]
        lvl = ctx.max_level
        mat = np.stack([
            rng.integers(0, ctx.modulus(i).value, ctx.degree, dtype=np.uint64)
            for i in range(lvl)
        ])
        elt = rotation_galois_elt(steps, ctx.degree)
        via_coeff = ctx.to_ntt(
            apply_galois_coeff(ctx.from_ntt(mat), elt, ctx.level_base(lvl))
        )
        via_ntt = apply_galois_ntt(mat, elt)
        assert np.array_equal(via_ntt, via_coeff)

    @pytest.mark.parametrize("n", [16, 4096, 16384])
    def test_permutation_matches_scalar_loop(self, n):
        """The vectorised table equals the per-coefficient definition for
        the rotate steps the benchmark serves (1, 2) and conjugation."""
        logn = n.bit_length() - 1
        for elt in (rotation_galois_elt(1, n), rotation_galois_elt(2, n),
                    conjugation_galois_elt(n)):
            want = np.empty(n, dtype=np.int64)
            for i in range(n):
                src = ((elt * (2 * i + 1)) % (2 * n) - 1) // 2
                want[bit_reverse(i, logn)] = bit_reverse(src, logn)
            perm = galois_permutation_ntt(n, elt)
            assert np.array_equal(perm, want)
            assert perm is galois_permutation_ntt(n, elt)
            assert not perm.flags.writeable

    def test_permutation_is_bijective(self, ckks):
        n = ckks["context"].degree
        elt = rotation_galois_elt(1, n)
        perm = galois_permutation_ntt(n, elt)
        assert sorted(perm) == list(range(n))

    def test_identity_element(self, ckks):
        n = ckks["context"].degree
        perm = galois_permutation_ntt(n, 1)
        assert np.array_equal(perm, np.arange(n))

    def test_composition(self, ckks):
        """perm(g1) after perm(g2) == perm(g1*g2 mod 2N)."""
        n = ckks["context"].degree
        g1 = rotation_galois_elt(2, n)
        g2 = rotation_galois_elt(3, n)
        p1 = galois_permutation_ntt(n, g1)
        p2 = galois_permutation_ntt(n, g2)
        p12 = galois_permutation_ntt(n, (g1 * g2) % (2 * n))
        x = np.arange(n, dtype=np.uint64)
        assert np.array_equal(x[p2][p1], x[p12])

    def test_rejects_even_element(self, ckks):
        with pytest.raises(ValueError):
            galois_permutation_ntt(ckks["context"].degree, 4)


class TestHoistedRotation:
    def encrypt(self, ckks, rng):
        z = rng.normal(size=ckks["encoder"].slots)
        return z, ckks["encryptor"].encrypt(ckks["encoder"].encode(z))

    def decode(self, ckks, ct):
        return ckks["encoder"].decode(ckks["decryptor"].decrypt(ct)).real

    def test_matches_plain_rotations(self, ckks, rng):
        z, ct = self.encrypt(ckks, rng)
        steps = [1, 2, 3]
        hoisted = ckks["evaluator"].rotate_hoisted(ct, steps, ckks["galois"])
        assert len(hoisted) == 3
        for s, rot in zip(steps, hoisted):
            got = self.decode(ckks, rot)
            assert np.abs(got - np.roll(z, -s)).max() < TOL

    def test_single_rotation_equivalent(self, ckks, rng):
        z, ct = self.encrypt(ckks, rng)
        (hoisted,) = ckks["evaluator"].rotate_hoisted(ct, [2], ckks["galois"])
        plain = ckks["evaluator"].rotate(ct, 2, ckks["galois"])
        a = self.decode(ckks, hoisted)
        b = self.decode(ckks, plain)
        assert np.abs(a - b).max() < TOL

    def test_empty_steps(self, ckks, rng):
        _, ct = self.encrypt(ckks, rng)
        assert ckks["evaluator"].rotate_hoisted(ct, [], ckks["galois"]) == []

    def test_missing_key_raises(self, ckks, rng):
        _, ct = self.encrypt(ckks, rng)
        with pytest.raises(KeyError):
            ckks["evaluator"].rotate_hoisted(ct, [1, 99], ckks["galois"])

    def test_size3_rejected(self, ckks, rng):
        _, c1 = self.encrypt(ckks, rng)
        _, c2 = self.encrypt(ckks, rng)
        c3 = ckks["evaluator"].multiply(c1, c2)
        with pytest.raises(ValueError):
            ckks["evaluator"].rotate_hoisted(c3, [1], ckks["galois"])

    def test_scale_and_level_preserved(self, ckks, rng):
        _, ct = self.encrypt(ckks, rng)
        (rot,) = ckks["evaluator"].rotate_hoisted(ct, [1], ckks["galois"])
        assert rot.scale == ct.scale
        assert rot.level == ct.level
        assert rot.size == 2
