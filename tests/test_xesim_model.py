"""Unit tests for the GPU performance model: devices, ISA, kernels, executor."""

import pytest

from repro.ntt import get_variant
from repro.xesim import (
    ADD_MOD_MIX,
    DEVICE1,
    DEVICE2,
    MAD_MOD_MIX,
    MUL_MOD_MIX,
    KernelProfile,
    get_device,
    ntt_cycles_per_work_item_round,
    scale_profile,
    simulate_kernel,
    simulate_kernels,
    thread_slot_fill,
    utilization,
)
from repro.xesim.isa import COMM
from repro.xesim.nttmodel import build_ntt_profiles, simulate_ntt


class TestDeviceSpec:
    def test_peaks(self):
        # Device1: 512 EU/tile * 8 lanes * 1.4 GHz * 2 tiles.
        assert DEVICE1.peak_int64_gops() == pytest.approx(11468.8)
        assert DEVICE1.peak_int64_gops(tiles=1) == pytest.approx(5734.4)
        assert DEVICE2.peak_int64_gops() == pytest.approx(1152.0)

    def test_geometry(self):
        assert DEVICE1.subslices_per_tile == 64
        assert DEVICE1.grf_bytes_per_lane() == 256
        assert DEVICE1.eus_per_tile * DEVICE1.tiles == 1024

    def test_ipc_monotone_in_ilp(self):
        vals = [DEVICE1.ipc(i) for i in (1, 2, 4, 8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[0] < 0.45  # radix-2 dependency stalls
        assert vals[2] > 0.85  # radix-8 nearly saturates

    def test_ipc_rejects_bad_ilp(self):
        with pytest.raises(ValueError):
            DEVICE1.ipc(0)

    def test_get_device(self):
        assert get_device("Device1") is DEVICE1
        assert get_device("Device2") is DEVICE2
        with pytest.raises(KeyError):
            get_device("Device3")


class TestIsa:
    def test_table1_exact_with_asm_unity_cost(self):
        """With asm (cost 1.0) the cycles equal Table I's op totals."""
        for radix, total in [(2, 48), (4, 157), (8, 456), (16, 1156)]:
            got = ntt_cycles_per_work_item_round(radix, DEVICE1, asm=True)
            assert got == pytest.approx(total)

    def test_compiler_penalty_band(self):
        """Non-asm/asm cycle ratio must sit in the 35.8-40.7% band (D1)."""
        no = ntt_cycles_per_work_item_round(8, DEVICE1, asm=False)
        yes = ntt_cycles_per_work_item_round(8, DEVICE1, asm=True)
        assert 1.358 <= no / yes <= 1.407

    def test_mad_mod_cheaper_than_mul_plus_add(self):
        for asm in (False, True):
            fused = MAD_MOD_MIX.cycles(DEVICE1, asm=asm)
            eager = MUL_MOD_MIX.cycles(DEVICE1, asm=asm) + ADD_MOD_MIX.cycles(
                DEVICE1, asm=asm
            )
            assert fused < eager

    def test_asm_always_cheaper(self):
        for mix in (ADD_MOD_MIX, MUL_MOD_MIX, MAD_MOD_MIX):
            assert mix.cycles(DEVICE1, asm=True) < mix.cycles(DEVICE1, asm=False)

    def test_slot_penalty_zero_for_one_slot(self):
        assert COMM.slot_penalty(1) == 0
        assert COMM.slot_penalty(2) > 0
        assert COMM.slot_penalty(4) > COMM.slot_penalty(2)


class TestKernelProfile:
    def test_totals(self):
        p = KernelProfile("k", work_items=100, lane_cycles_per_item=10,
                          nominal_ops_per_item=5, global_bytes=800)
        assert p.total_cycles == 1000
        assert p.total_nominal_ops == 500

    def test_scale(self):
        p = KernelProfile("k", work_items=10, lane_cycles_per_item=1,
                          nominal_ops_per_item=1, global_bytes=80)
        s = scale_profile(p, 4)
        assert s.work_items == 40 and s.global_bytes == 320
        assert s.launches == p.launches

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelProfile("k", 0, 1, 1, 0)
        with pytest.raises(ValueError):
            KernelProfile("k", 1, -1, 1, 0)
        with pytest.raises(ValueError):
            KernelProfile("k", 1, 1, 1, 0, mem_pattern="random")
        with pytest.raises(ValueError):
            scale_profile(KernelProfile("k", 1, 1, 1, 0), 0)


class TestOccupancy:
    def test_fill_definition(self):
        cap = DEVICE1.thread_slot_lanes(1)
        assert thread_slot_fill(cap, DEVICE1, 1) == pytest.approx(1.0)

    def test_utilization_monotone(self):
        us = [utilization(w, DEVICE1, 1) for w in (10_000, 100_000, 10_000_000)]
        assert us[0] < us[1] < us[2] < 1.0

    def test_saturates(self):
        assert utilization(10**9, DEVICE1, 1) > 0.99


class TestExecutor:
    def make(self, cycles=100.0, bytes_=0.0, items=10**7, pattern="coalesced"):
        return KernelProfile("k", items, cycles, cycles, bytes_, mem_pattern=pattern)

    def test_compute_bound(self):
        t = simulate_kernel(self.make(cycles=1000.0), DEVICE1)
        assert t.bound == "compute"
        assert t.time_s > t.compute_s  # occupancy + launch overhead

    def test_memory_bound(self):
        t = simulate_kernel(self.make(cycles=1.0, bytes_=1e12), DEVICE1)
        assert t.bound == "memory"

    def test_strided_slower_than_coalesced(self):
        a = simulate_kernel(self.make(bytes_=1e10, pattern="coalesced"), DEVICE1)
        b = simulate_kernel(self.make(bytes_=1e10, pattern="strided"), DEVICE1)
        assert b.time_s > a.time_s

    def test_two_tiles_faster_but_not_2x(self):
        p = self.make(cycles=1000.0)
        one = simulate_kernel(p, DEVICE1, tiles=1)
        two = simulate_kernel(p, DEVICE1, tiles=2)
        assert one.time_s / two.time_s > 1.4
        assert one.time_s / two.time_s < 2.0  # inter-tile efficiency loss

    def test_tiles_validation(self):
        with pytest.raises(ValueError):
            simulate_kernel(self.make(), DEVICE1, tiles=3)
        with pytest.raises(ValueError):
            simulate_kernel(self.make(), DEVICE2, tiles=2)

    def test_aggregate_decomposition(self):
        ntt = KernelProfile("ntt", 10**6, 100, 100, 0, ntt_class=True)
        other = KernelProfile("oth", 10**6, 50, 50, 0)
        agg = simulate_kernels([ntt, other], DEVICE1)
        assert agg.time_s == pytest.approx(agg.ntt_time_s + agg.other_time_s)
        assert 0.5 < agg.ntt_fraction < 1.0

    def test_more_launches_cost_more(self):
        p1 = self.make()
        import dataclasses
        p2 = dataclasses.replace(p1, launches=10)
        t1 = simulate_kernel(p1, DEVICE1)
        t2 = simulate_kernel(p2, DEVICE1)
        assert t2.time_s > t1.time_s


class TestNttModelStructure:
    def test_profile_phases(self):
        prof = build_ntt_profiles(get_variant("simd(8,8)"), 32768, 8, DEVICE1)
        kinds = [p.name.split(":")[-1] for p in prof]
        assert kinds == ["global", "slm", "simd"]

    def test_naive_has_lastround(self):
        prof = build_ntt_profiles(get_variant("naive"), 32768, 8, DEVICE1)
        assert prof[-1].name.endswith("lastround")

    def test_nominal_ops_match_table1_totals(self):
        """Total nominal ops for naive = N/2 * 48 * log2(N) * batch (+ last round)."""
        n, batch = 4096, 3
        prof = build_ntt_profiles(get_variant("naive"), n, batch, DEVICE1)
        core = sum(p.total_nominal_ops for p in prof if "lastround" not in p.name)
        assert core == pytest.approx(n / 2 * 48 * 12 * batch)

    def test_radix16_spills_radix8_does_not(self):
        from repro.xesim.nttmodel import _spilled

        assert _spilled(get_variant("local-radix-16"), DEVICE1)
        assert not _spilled(get_variant("local-radix-8"), DEVICE1)

    def test_simulate_ntt_result_fields(self):
        res = simulate_ntt(get_variant("local-radix-8"), DEVICE1,
                           n=8192, instances=16, rns=4)
        assert res.time_s > 0
        assert 0 < res.efficiency < 1
        assert res.timing.ntt_fraction == pytest.approx(1.0)

    def test_efficiency_rises_with_instances(self):
        effs = [
            simulate_ntt(get_variant("local-radix-8"), DEVICE1, instances=i).efficiency
            for i in (1, 16, 256, 1024)
        ]
        assert all(b > a for a, b in zip(effs, effs[1:]))
