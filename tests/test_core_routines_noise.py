"""Tests for the five paper routines, params validation and noise estimation."""

import numpy as np
import pytest

from repro.core import (
    Ciphertext,
    CkksParameters,
    NoiseEstimator,
    ROUTINE_NAMES,
    measured_precision_bits,
    max_modulus_bits_128,
)

TOL = 1e-3


def enc(ckks, rng):
    z = rng.normal(size=ckks["encoder"].slots)
    return z, ckks["encryptor"].encrypt(ckks["encoder"].encode(z))


def dec(ckks, ct):
    return ckks["encoder"].decode(ckks["decryptor"].decrypt(ct)).real


class TestParams:
    def test_default_shape(self):
        p = CkksParameters.default(degree=2048, levels=2)
        assert p.degree == 2048
        assert p.levels == 3  # first + 2 mids (special excluded from levels)
        assert p.slot_count == 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            CkksParameters(poly_modulus_degree=1000,
                           coeff_modulus_bits=[40, 40], scale=2.0**30)
        with pytest.raises(ValueError):
            CkksParameters(poly_modulus_degree=1024,
                           coeff_modulus_bits=[40], scale=2.0**30)
        with pytest.raises(ValueError):
            CkksParameters(poly_modulus_degree=1024,
                           coeff_modulus_bits=[40, 40], scale=0.5)

    def test_security_table(self):
        assert max_modulus_bits_128(4096) == 109
        with pytest.raises(ValueError):
            max_modulus_bits_128(512)

    def test_test_params_flagged_insecure(self, ckks):
        assert not ckks["params"].is_128_bit_secure()

    def test_secure_params_recognized(self):
        p = CkksParameters(poly_modulus_degree=4096,
                           coeff_modulus_bits=[35, 35, 35], scale=2.0**30)
        assert p.is_128_bit_secure()

    def test_distinct_primes(self, ckks):
        assert len(set(ckks["params"].moduli)) == len(ckks["params"].moduli)


class TestRoutines:
    def test_names(self):
        assert ROUTINE_NAMES == [
            "MulLin", "MulLinRS", "SqrLinRS", "MulLinRSModSwAdd", "Rotate",
        ]

    def test_mul_lin(self, ckks, routines, rng):
        z1, c1 = enc(ckks, rng)
        z2, c2 = enc(ckks, rng)
        out = routines.mul_lin(c1, c2)
        assert out.size == 2 and out.level == c1.level
        assert np.abs(dec(ckks, out) - z1 * z2).max() < TOL

    def test_mul_lin_rs(self, ckks, routines, rng):
        z1, c1 = enc(ckks, rng)
        z2, c2 = enc(ckks, rng)
        out = routines.mul_lin_rs(c1, c2)
        assert out.level == c1.level - 1
        assert np.abs(dec(ckks, out) - z1 * z2).max() < TOL

    def test_sqr_lin_rs(self, ckks, routines, rng):
        z, c = enc(ckks, rng)
        out = routines.sqr_lin_rs(c)
        assert np.abs(dec(ckks, out) - z * z).max() < TOL

    def test_mul_lin_rs_modsw_add(self, ckks, routines, rng):
        z1, c1 = enc(ckks, rng)
        z2, c2 = enc(ckks, rng)
        z3, c3 = enc(ckks, rng)
        out = routines.mul_lin_rs_modsw_add(c1, c2, c3)
        assert out.level == c1.level - 1
        assert np.abs(dec(ckks, out) - (z1 * z2 + z3)).max() < 10 * TOL

    def test_rotate_routine(self, ckks, routines, rng):
        z, c = enc(ckks, rng)
        out = routines.rotate(c, 1)
        assert np.abs(dec(ckks, out) - np.roll(z, -1)).max() < TOL

    def test_by_name_dispatch(self, routines):
        for name in ROUTINE_NAMES:
            assert callable(routines.by_name(name))
        with pytest.raises(KeyError):
            routines.by_name("Bootstrap")


class TestNoise:
    def test_fresh_bound_scales_with_degree(self, ckks):
        est = NoiseEstimator(ckks["context"])
        assert est.fresh_noise_bound() > 0

    def test_fresh_bound_holds_empirically(self, ckks, rng):
        """Measured fresh error must be below bound/scale per slot."""
        est = NoiseEstimator(ckks["context"])
        z, c = enc(ckks, rng)
        err = np.abs(dec(ckks, c) - z).max()
        assert err < est.fresh_noise_bound() / ckks["params"].scale

    def test_precision_estimate_positive_depth1(self, ckks):
        est = NoiseEstimator(ckks["context"])
        assert est.precision_bits_after_depth(1) > 5

    def test_precision_decreases_with_depth(self, ckks):
        est = NoiseEstimator(ckks["context"])
        p1 = est.precision_bits_after_depth(1)
        p2 = est.precision_bits_after_depth(2)
        assert p2 <= p1

    def test_measured_precision(self, ckks, routines, rng):
        z1, c1 = enc(ckks, rng)
        z2, c2 = enc(ckks, rng)
        out = routines.mul_lin_rs(c1, c2)
        bits = measured_precision_bits(dec(ckks, out), z1 * z2)
        assert bits > 10  # at least ~3 decimal digits survive depth 1

    def test_measured_precision_exact(self):
        assert measured_precision_bits(np.array([1.0]), [1.0]) == float("inf")
