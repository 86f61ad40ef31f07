"""Tests for the energy model and the evaluator convenience extensions."""

import numpy as np
import pytest

from repro.ntt import get_variant
from repro.xesim import DEVICE1, DEVICE2
from repro.xesim.energy import estimate_energy, variant_energy_ladder


class TestEnergyModel:
    def test_radix8_most_efficient(self):
        ladder = variant_energy_ladder(
            DEVICE1, ["naive", "simd(8,8)", "local-radix-8"]
        )
        assert ladder[-1].variant_name == "local-radix-8"
        assert ladder[0].variant_name == "naive"

    def test_optimization_saves_energy_not_just_time(self):
        naive = estimate_energy(get_variant("naive"), DEVICE1)
        opt = estimate_energy(get_variant("local-radix-8+asm"), DEVICE1)
        # Faster AND fewer joules: power rises sub-linearly with speed.
        assert opt.time_s < naive.time_s
        assert opt.energy_j < naive.energy_j
        assert opt.gop_per_joule > 2 * naive.gop_per_joule

    def test_power_within_bounds(self):
        for variant in ("naive", "local-radix-8+asm"):
            for dev, tiles in ((DEVICE1, 1), (DEVICE1, 2), (DEVICE2, 1)):
                rep = estimate_energy(get_variant(variant), dev, tiles=tiles)
                from repro.xesim.energy import IDLE_FRACTION, TDP_W_PER_TILE

                tdp = TDP_W_PER_TILE[dev.name] * tiles
                assert IDLE_FRACTION * tdp <= rep.avg_power_w <= tdp

    def test_dual_tile_perf_per_watt(self):
        """Two tiles nearly double throughput at ~double power: Gop/J holds."""
        one = estimate_energy(get_variant("local-radix-8+asm"), DEVICE1, tiles=1)
        two = estimate_energy(get_variant("local-radix-8+asm"), DEVICE1, tiles=2)
        assert 0.7 < two.gop_per_joule / one.gop_per_joule < 1.4


class TestEvaluatorExtras:
    def dec(self, ckks, ct):
        return ckks["encoder"].decode(ckks["decryptor"].decrypt(ct)).real

    def enc(self, ckks, rng):
        z = rng.normal(size=ckks["encoder"].slots)
        return z, ckks["encryptor"].encrypt(ckks["encoder"].encode(z))

    def test_negate(self, ckks, rng):
        z, ct = self.enc(ckks, rng)
        assert np.abs(self.dec(ckks, ckks["evaluator"].negate(ct)) + z).max() < 1e-3

    def test_negate_is_involution(self, ckks, rng):
        z, ct = self.enc(ckks, rng)
        ev = ckks["evaluator"]
        twice = ev.negate(ev.negate(ct))
        assert np.array_equal(twice.data, ct.data)

    def test_add_scalar(self, ckks, rng):
        z, ct = self.enc(ckks, rng)
        got = self.dec(ckks, ckks["evaluator"].add_scalar(ct, -1.75))
        assert np.abs(got - (z - 1.75)).max() < 1e-3

    def test_multiply_scalar(self, ckks, rng):
        z, ct = self.enc(ckks, rng)
        ev = ckks["evaluator"]
        out = ev.rescale(ev.multiply_scalar(ct, 2.5))
        assert np.abs(self.dec(ckks, out) - 2.5 * z).max() < 1e-3

    def test_multiply_scalar_scale_tracking(self, ckks, rng):
        _, ct = self.enc(ckks, rng)
        out = ckks["evaluator"].multiply_scalar(ct, 2.0)
        assert out.scale == pytest.approx(ct.scale * ckks["params"].scale)

