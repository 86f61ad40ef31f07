"""Tests for the stacked RNS NTT, stage schedules, SIMD model and variants."""

import numpy as np
import pytest

from repro.modmath import (
    Modulus,
    gen_ntt_prime,
    gen_ntt_primes,
    mul_mod,
    work_item_ops,
)
from repro.ntt import (
    VARIANTS,
    get_stacked_tables,
    get_tables,
    get_variant,
    negacyclic_polymul_reference,
    ntt_forward,
    ntt_forward_stacked,
    ntt_inverse_stacked,
    run_variant,
    shuffle_targets,
    simd_exchange_plan,
    stage_schedule,
)
from repro.ntt.stages import total_launches, total_rounds
from repro.rns import RNSBase, decompose_poly

RNG = np.random.default_rng(314)


@pytest.fixture(scope="module")
def base():
    return RNSBase.from_values(gen_ntt_primes([30, 30, 31], 256))


@pytest.fixture(scope="module")
def tables(base):
    return get_stacked_tables(256, base)


def _roundtrip(x, tables):
    return ntt_inverse_stacked(ntt_forward_stacked(x, tables), tables)


class TestEngine:
    """The stacked transforms over a whole RNS base."""

    def test_roundtrip_matrix(self, tables, base):
        mat = np.stack(
            [RNG.integers(0, m.value, size=256, dtype=np.uint64) for m in base]
        )
        assert np.array_equal(_roundtrip(mat, tables), mat)

    def test_roundtrip_stack(self, tables, base):
        stack = np.stack(
            [
                np.stack(
                    [RNG.integers(0, m.value, 256, dtype=np.uint64) for m in base]
                )
                for _ in range(4)
            ]
        )
        assert np.array_equal(_roundtrip(stack, tables), stack)

    def test_negacyclic_multiply_matches_schoolbook(self, tables, base):
        n = 256
        a_int = [int(x) for x in RNG.integers(0, 50, n)]
        b_int = [int(x) for x in RNG.integers(0, 50, n)]
        a = decompose_poly(a_int, base)
        b = decompose_poly(b_int, base)
        prod = mul_mod(ntt_forward_stacked(a, tables),
                       ntt_forward_stacked(b, tables), tables.modulus)
        got = ntt_inverse_stacked(prod, tables)
        for i, m in enumerate(base):
            expect = negacyclic_polymul_reference(a_int, b_int, m)
            assert [int(v) for v in got[i]] == expect

    def test_prefix_level(self, tables, base):
        mat = np.stack(
            [RNG.integers(0, base[i].value, 256, dtype=np.uint64) for i in range(2)]
        )
        out = ntt_forward_stacked(mat, tables.prefix(2))
        sub = get_stacked_tables(tables.degree, base.prefix(2))
        assert np.array_equal(out, ntt_forward_stacked(mat, sub))

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            get_stacked_tables(256, RNSBase.from_values([97]))

    def test_rejects_bad_shape(self, tables):
        with pytest.raises(ValueError):
            ntt_forward_stacked(np.zeros((3, 128), dtype=np.uint64), tables)


class TestStageSchedule:
    def test_rounds_sum_to_logn(self):
        for n in (4096, 8192, 32768):
            for v in VARIANTS.values():
                sched = v.schedule(n)
                assert total_rounds(sched) == n.bit_length() - 1, v.name

    def test_naive_is_one_launch_per_round(self):
        sched = stage_schedule(32768, naive=True)
        assert len(sched) == 1
        assert sched[0].kernel_launches == 15
        assert sched[0].kind == "global"

    def test_paper_32k_global_rounds(self):
        """Paper Sec. III-B.2: a 32K NTT does 3 global rounds before SLM."""
        sched = stage_schedule(32768, radix=2, ter_simd_gap=0)
        assert sched[0].kind == "global"
        assert sched[0].rounds == 3
        assert sched[1].kind == "slm"
        assert sched[1].rounds == 12

    def test_slm_is_single_launch(self):
        sched = stage_schedule(32768, radix=8, ter_simd_gap=0)
        slm = [g for g in sched if g.kind == "slm"]
        assert len(slm) == 1 and slm[0].kernel_launches == 1

    def test_simd_phase_fused(self):
        sched = stage_schedule(32768, radix=2, ter_simd_gap=8)
        simd = [g for g in sched if g.kind == "simd"]
        assert len(simd) == 1
        assert simd[0].kernel_launches == 0
        assert simd[0].fused_last_round
        # gaps 8,4,2,1 -> 4 rounds
        assert simd[0].rounds == 4

    def test_small_sizes_have_no_global_phase(self):
        sched = stage_schedule(4096, radix=8, ter_simd_gap=0)
        assert sched[0].kind == "slm"

    def test_launch_count_radix8_32k(self):
        """3 global rounds at radix 8 -> 1 launch; + 1 SLM launch."""
        sched = stage_schedule(32768, radix=8, ter_simd_gap=0)
        assert total_launches(sched) == 2

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            stage_schedule(1000)


class TestSimdModel:
    def test_targets_are_xor(self):
        for gap in (1, 2, 4):
            t = shuffle_targets(8, gap)
            assert all(int(t[lane]) == lane ^ gap for lane in range(8))

    def test_targets_are_involution(self):
        t = shuffle_targets(8, 4)
        assert all(int(t[int(t[lane])]) == lane for lane in range(8))

    def test_fig7_stage1_pattern(self):
        """Fig. 7 stage 1: lanes 0-3 exchange with lanes 4-7 (gap 4)."""
        t = shuffle_targets(8, 4)
        assert list(t[:4]) == [4, 5, 6, 7]
        assert list(t[4:]) == [0, 1, 2, 3]

    def test_exchange_plan_gaps(self):
        plan = simd_exchange_plan(8, 1)
        assert [e.gap for e in plan] == [4, 2, 1]

    def test_register_selection_alternates(self):
        plan = simd_exchange_plan(8, 1)
        stage1 = plan[0]  # gap 4: lanes 0-3 give reg 1, lanes 4-7 give reg 0
        assert stage1.registers[:4] == (1, 1, 1, 1)
        assert stage1.registers[4:] == (0, 0, 0, 0)

    def test_invalid_gap(self):
        with pytest.raises(ValueError):
            shuffle_targets(8, 8)
        with pytest.raises(ValueError):
            shuffle_targets(8, 3)


class TestVariants:
    def test_registry_contents(self):
        assert set(VARIANTS) == {
            "naive", "simd(8,8)", "simd(16,8)", "simd(32,8)",
            "local-radix-4", "local-radix-8", "local-radix-16",
        }

    def test_get_variant_asm_suffix(self):
        v = get_variant("local-radix-8+asm")
        assert v.asm and v.radix == 8
        assert get_variant("naive").asm is False

    def test_unknown_variant(self):
        with pytest.raises(KeyError):
            get_variant("radix-32")

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_all_variants_compute_same_transform(self, name):
        n = 512
        t = get_tables(n, Modulus(gen_ntt_prime(30, n)))
        a = RNG.integers(0, t.modulus.value, size=n, dtype=np.uint64)
        expect = ntt_forward(a, t)
        got = run_variant(a, t, VARIANTS[name])
        assert np.array_equal(got, expect), name

    def test_ops_per_round_match_table1(self):
        def ops(name):
            return work_item_ops(VARIANTS[name].radix)

        assert ops("naive") == 48
        assert ops("local-radix-4") == 157
        assert ops("local-radix-8") == 456
        assert ops("local-radix-16") == 1156

    def test_asm_reduces_ops(self):
        for name in VARIANTS:
            v = VARIANTS[name]
            assert work_item_ops(v.radix, asm=True) < work_item_ops(v.radix)

    def test_work_items(self):
        assert VARIANTS["naive"].work_items(32768) == 16384
        assert VARIANTS["local-radix-8"].work_items(32768) == 4096
        assert VARIANTS["simd(32,8)"].work_items(32768) == 4096

    def test_register_growth(self):
        r2 = VARIANTS["simd(8,8)"].registers_per_work_item()
        r16 = VARIANTS["local-radix-16"].registers_per_work_item()
        assert r16 > 4 * r2  # radix-16 is register hungry (spill risk)

    def test_shuffle_ops_only_for_simd_variants(self):
        def shuffles(name):
            return any(g.kind == "simd" for g in VARIANTS[name].schedule(4096))

        assert not shuffles("naive")
        assert not shuffles("local-radix-8")
        assert shuffles("simd(8,8)")
