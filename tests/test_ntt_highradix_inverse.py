"""Tests for the high-radix inverse NTT and CLI entry points."""

import pathlib
import subprocess
import sys

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


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, timeout=600,
        )

    def test_info(self):
        r = self.run_cli("info")
        assert r.returncode == 0
        assert "arXiv:2109.14704" in r.stdout
        docs = next(l for l in r.stdout.splitlines() if l.startswith("docs:"))
        root = pathlib.Path(__file__).resolve().parents[1]
        for name in docs.split()[1:]:
            assert (root / name).is_file(), name

    def test_devices(self):
        r = self.run_cli("devices")
        assert r.returncode == 0
        assert "Device1" in r.stdout and "Device2" in r.stdout

    def test_calibration_all_in_band(self):
        r = self.run_cli("calibration")
        assert r.returncode == 0
        assert "18/18 calibration targets in band" in r.stdout

    def test_figures_single(self):
        r = self.run_cli("figures", "table1")
        assert r.returncode == 0
        assert "456" in r.stdout

    def test_figures_unknown(self):
        r = self.run_cli("figures", "fig99")
        assert r.returncode == 2

    def test_no_command_shows_help(self):
        r = self.run_cli()
        assert r.returncode == 2
        assert "figures" in r.stdout
