"""Tests for the CKKS encoder (canonical embedding / special FFT)."""

import numpy as np
import pytest

from repro import native as repro_native
from repro.core import CkksContext, CkksEncoder, CkksParameters, Plaintext
from repro.core.galois import apply_galois_coeff, rotation_galois_elt
from repro.modmath.ops import mul_mod
from repro.ntt.tables import bit_reverse, bit_reverse_vector

TOL = 1e-6


class TestRoundtrip:
    def test_full_slots(self, ckks, rng):
        enc = ckks["encoder"]
        z = rng.normal(size=enc.slots) + 1j * rng.normal(size=enc.slots)
        back = enc.decode(enc.encode(z))
        assert np.abs(back - z).max() < TOL

    def test_real_values(self, ckks, rng):
        enc = ckks["encoder"]
        z = rng.normal(size=enc.slots)
        back = enc.decode(enc.encode(z))
        assert np.abs(back.real - z).max() < TOL
        assert np.abs(back.imag).max() < TOL

    @pytest.mark.parametrize("slots", [1, 2, 8, 64])
    def test_sparse_slots(self, ckks, rng, slots):
        enc = ckks["encoder"]
        z = rng.normal(size=slots) + 1j * rng.normal(size=slots)
        back = enc.decode(enc.encode(z), slots=slots)
        assert np.abs(back - z).max() < TOL

    def test_short_input_padded(self, ckks):
        enc = ckks["encoder"]
        z = [1.0, 2.0, 3.0]
        back = enc.decode(enc.encode(z), slots=4)
        assert np.abs(back[:3] - np.array(z)).max() < TOL
        assert abs(back[3]) < TOL

    def test_large_magnitudes(self, ckks):
        enc = ckks["encoder"]
        z = np.array([1e4, -1e4, 5e3] + [0.0] * (enc.slots - 3))
        back = enc.decode(enc.encode(z))
        assert np.abs(back.real - z).max() < 1e-2

    def test_custom_scale(self, ckks, rng):
        enc = ckks["encoder"]
        z = rng.normal(size=enc.slots)
        pt = enc.encode(z, scale=2.0**40)
        assert pt.scale == 2.0**40
        assert np.abs(enc.decode(pt).real - z).max() < 1e-9  # finer scale


class TestValidation:
    def test_too_many_values(self, ckks):
        enc = ckks["encoder"]
        with pytest.raises(ValueError):
            enc.encode(np.ones(enc.slots + 1))

    def test_empty(self, ckks):
        with pytest.raises(ValueError):
            ckks["encoder"].encode([])

    def test_overflow_scale(self, ckks):
        enc = ckks["encoder"]
        with pytest.raises(ValueError):
            enc.encode([1e30], scale=2.0**120)

    def test_bad_slot_count_decode(self, ckks):
        enc = ckks["encoder"]
        pt = enc.encode([1.0])
        with pytest.raises(ValueError):
            enc.decode(pt, slots=3)


class TestHomomorphismProperties:
    """Encoding must turn ring ops into slot-wise ops (paper Sec. II-A)."""

    def test_plaintext_addition(self, ckks, rng):
        enc = ckks["encoder"]
        ctx = ckks["context"]
        z1 = rng.normal(size=enc.slots)
        z2 = rng.normal(size=enc.slots)
        p1, p2 = enc.encode(z1), enc.encode(z2)
        from repro.modmath.ops import add_mod

        summed = np.stack(
            [add_mod(p1.data[i], p2.data[i], ctx.modulus(i)) for i in range(p1.level)]
        )
        got = enc.decode(Plaintext(summed, p1.scale))
        assert np.abs(got.real - (z1 + z2)).max() < TOL

    def test_plaintext_multiplication(self, ckks, rng):
        enc = ckks["encoder"]
        ctx = ckks["context"]
        z1 = rng.normal(size=enc.slots)
        z2 = rng.normal(size=enc.slots)
        p1, p2 = enc.encode(z1), enc.encode(z2)
        prod = np.stack(
            [mul_mod(p1.data[i], p2.data[i], ctx.modulus(i)) for i in range(p1.level)]
        )
        got = enc.decode(Plaintext(prod, p1.scale * p2.scale))
        assert np.abs(got.real - z1 * z2).max() < TOL

    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_galois_rotates_slots(self, ckks, rng, steps):
        """kappa_{5^r} on the plaintext rotates slots left by r."""
        enc = ckks["encoder"]
        ctx = ckks["context"]
        z = rng.normal(size=enc.slots) + 1j * rng.normal(size=enc.slots)
        pt = enc.encode(z)
        coeff = ctx.from_ntt(pt.data)
        elt = rotation_galois_elt(steps, ctx.degree)
        perm = apply_galois_coeff(coeff, elt, ctx.level_base(pt.level))
        rotated = Plaintext(ctx.to_ntt(perm), pt.scale)
        got = enc.decode(rotated)
        assert np.abs(got - np.roll(z, -steps)).max() < TOL

    def test_conjugation_galois(self, ckks, rng):
        from repro.core.galois import conjugation_galois_elt

        enc = ckks["encoder"]
        ctx = ckks["context"]
        z = rng.normal(size=enc.slots) + 1j * rng.normal(size=enc.slots)
        pt = enc.encode(z)
        coeff = ctx.from_ntt(pt.data)
        elt = conjugation_galois_elt(ctx.degree)
        perm = apply_galois_coeff(coeff, elt, ctx.level_base(pt.level))
        got = enc.decode(Plaintext(ctx.to_ntt(perm), pt.scale))
        assert np.abs(got - np.conj(z)).max() < TOL


class TestFastDecode:
    def test_backends_decode_bit_identically(self, ckks, rng):
        """The certified CRT's stacked multiply runs on the active backend;
        every backend decodes one ciphertext to the same float bits."""
        z = rng.normal(size=ckks["encoder"].slots)
        ct = ckks["encryptor"].encrypt(ckks["encoder"].encode(z))
        names = ["serial"]
        if repro_native.available():
            names.append("native")
        decoded = {}
        for name in names:
            with repro_native.use_backend(name):
                pt = ckks["decryptor"].decrypt(ct)
                decoded[name] = ckks["encoder"].decode(pt)
        want = decoded["serial"].view(np.int64)
        for name, got in decoded.items():
            assert np.array_equal(got.view(np.int64), want), name
        assert np.abs(decoded["serial"].real - z).max() < 1e-3

    def test_decode_takes_no_fallback_on_fresh_ciphertexts(self, ckks, rng,
                                                            monkeypatch):
        import repro.rns.crt as crt

        def fail(*args):
            raise AssertionError("certified columns took the big-int path")

        monkeypatch.setattr(crt, "compose_signed_poly", fail)
        z = rng.normal(size=ckks["encoder"].slots)
        ct = ckks["encryptor"].encrypt(ckks["encoder"].encode(z))
        got = ckks["encoder"].decode(ckks["decryptor"].decrypt(ct))
        assert np.abs(got.real - z).max() < 1e-3

    def test_bit_reverse_vector(self):
        for logn in range(1, 15):
            n = 1 << logn
            v = bit_reverse_vector(n)
            assert v.tolist() == [bit_reverse(i, logn) for i in range(n)]
            assert bit_reverse_vector(n) is v
            with pytest.raises(ValueError):
                v[0] = 1
