"""Tests for the kernel-fusion compiler (repro.fusion).

Covers the fusion planner's compatibility rules and conservation laws,
the NTT epilogue fold, cross-request launch batching, a digest pinning
the planner's output over the paper's operation and routine chains, and
end-to-end bit-exactness through the GPU evaluator and the serving
dispatcher with fusion on vs off.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.fusion import (
    FusedKernelProfile,
    batch_chains,
    can_fuse,
    chain_signature,
    fold_lastround,
    fuse_run,
    plan_profiles,
)
from repro.gpu import GpuConfig, GpuEvaluator, GpuOpProfiler
from repro.ntt.variants import get_variant
from repro.xesim import DEVICE1, DEVICE2, KernelProfile, simulate_kernels
from repro.xesim.nttmodel import build_ntt_profiles


def _elem(name="k", work_items=4096, cycles=10.0, ops=8.0, bytes_=None,
          pattern="coalesced", launches=1, work_groups=None, ntt=False):
    return KernelProfile(
        name=name,
        work_items=work_items,
        lane_cycles_per_item=cycles,
        nominal_ops_per_item=ops,
        global_bytes=3 * 8 * work_items if bytes_ is None else bytes_,
        mem_pattern=pattern,
        launches=launches,
        work_groups=work_groups,
        ntt_class=ntt,
    )


def _total_cycles(profiles):
    return sum(p.work_items * p.lane_cycles_per_item for p in profiles)


def _total_ops(profiles):
    return sum(p.work_items * p.nominal_ops_per_item for p in profiles)


class TestEmptyAndSingleChains:
    def test_empty_chain(self):
        plan = plan_profiles([])
        assert plan.profiles == ()
        assert plan.launches == 0
        assert plan.launches_saved == 0

    def test_single_kernel_chain(self):
        k = _elem()
        plan = plan_profiles([k])
        assert plan.profiles == (k,)  # unchanged
        assert plan.launches_saved == 0
        assert plan.elided_bytes == 0.0


class TestCompatibilityRules:
    def test_compatible_pair_fuses(self):
        assert can_fuse(_elem("a"), _elem("b"))

    def test_mismatched_work_items_do_not_fuse(self):
        a, b = _elem(work_items=4096), _elem(work_items=8192)
        assert not can_fuse(a, b)
        plan = plan_profiles([a, b])
        assert len(plan.profiles) == 2
        assert plan.launches_saved == 0

    def test_mismatched_mem_pattern_does_not_fuse(self):
        a = _elem(pattern="coalesced")
        b = _elem(pattern="strided")
        assert not can_fuse(a, b)
        assert len(plan_profiles([a, b]).profiles) == 2

    def test_work_group_cap_blocks_fusion(self):
        a, b = _elem("a"), _elem("b", work_groups=8)
        assert not can_fuse(a, b)
        assert not can_fuse(b, a)
        plan = plan_profiles([a, b, _elem("c", work_groups=8)])
        assert len(plan.profiles) == 3
        assert plan.launches_saved == 0

    def test_multi_launch_profiles_do_not_fuse(self):
        a, b = _elem("a", launches=3), _elem("b")
        assert not can_fuse(a, b)
        assert not can_fuse(b, a)
        plan = plan_profiles([a, b])
        assert plan.launches == 4  # 3 + 1 preserved
        assert plan.launches_saved == 0

    def test_ntt_kernels_do_not_elementwise_fuse(self):
        a, b = _elem("a", ntt=True), _elem("b")
        assert not can_fuse(a, b)
        assert not can_fuse(b, a)

    def test_fuse_run_rejects_incompatible(self):
        with pytest.raises(ValueError):
            fuse_run([_elem(work_items=64), _elem(work_items=128)])
        with pytest.raises(ValueError):
            fuse_run([])


class TestFusedProfile:
    def test_fusion_conserves_compute_and_collapses_launches(self):
        run = [_elem(f"k{i}") for i in range(5)]
        fused = fuse_run(run)
        assert isinstance(fused, FusedKernelProfile)
        assert fused.launches == 1
        assert fused.collapsed_launches == 4
        assert fused.width == 5
        assert fused.work_items == run[0].work_items
        assert _total_cycles([fused]) == pytest.approx(_total_cycles(run))
        assert _total_ops([fused]) == pytest.approx(_total_ops(run))

    def test_fusion_elides_intermediate_bytes(self):
        run = [_elem(f"k{i}") for i in range(3)]
        fused = fuse_run(run)
        raw_bytes = sum(p.global_bytes for p in run)
        # Two interior edges, one store+load (2 * 8B * items) elided each.
        assert fused.global_bytes == raw_bytes - 2 * 2 * 8 * run[0].work_items
        assert fused.elided_bytes == 2 * 2 * 8 * run[0].work_items

    def test_same_name_rows_collapse_launches_without_elision(self):
        """Per-RNS-row instances of one pass share a launch, not registers."""
        run = [_elem("dyadic:ks.reduce") for _ in range(4)]
        fused = fuse_run(run)
        assert fused.launches == 1 and fused.collapsed_launches == 3
        assert fused.global_bytes == sum(p.global_bytes for p in run)
        assert fused.elided_bytes == 0.0

    def test_elision_never_goes_below_io_floor(self):
        # Kernels so lean the elidable volume exceeds the raw traffic.
        run = [_elem(f"k{i}", bytes_=8 * 4096) for i in range(8)]
        fused = fuse_run(run)
        assert fused.global_bytes >= 2 * 8 * fused.work_items
        assert fused.global_bytes <= sum(p.global_bytes for p in run)

    def test_fused_profile_simulates_strictly_faster(self):
        run = [_elem(f"k{i}") for i in range(4)]
        raw = simulate_kernels(run, DEVICE1)
        fused = simulate_kernels([fuse_run(run)], DEVICE1)
        assert fused.time_s < raw.time_s
        assert fused.launch_time_s < raw.launch_time_s


class TestLastRoundFold:
    def test_naive_ntt_correction_folds(self):
        profs = build_ntt_profiles(get_variant("naive"), 4096, 4, DEVICE1)
        assert profs[-1].name.endswith(":lastround")
        folded = fold_lastround(profs)
        assert len(folded) == len(profs) - 1
        host = folded[-1]
        assert isinstance(host, FusedKernelProfile)
        assert host.ntt_class
        assert host.name.endswith("+lastround")
        assert _total_cycles(folded) == pytest.approx(_total_cycles(profs))
        assert _total_ops(folded) == pytest.approx(_total_ops(profs))
        # The correction's 2N global accesses are elided entirely.
        assert host.elided_bytes == profs[-1].global_bytes
        assert sum(p.launches for p in folded) == \
            sum(p.launches for p in profs) - profs[-1].launches

    def test_orphan_lastround_is_kept(self):
        orphan = _elem("ntt:x:lastround", ntt=True)
        assert fold_lastround([orphan]) == [orphan]
        # An elementwise predecessor is not a fold host either.
        kept = fold_lastround([_elem("dyadic:a"), orphan])
        assert len(kept) == 2

    def test_opt_variant_has_nothing_to_fold(self):
        profs = build_ntt_profiles(get_variant("local-radix-8"), 4096, 4,
                                   DEVICE1)
        assert fold_lastround(profs) == list(profs)


class TestPlanner:
    def test_routine_chain_strictly_improves(self):
        profiler = GpuOpProfiler(8192, DEVICE1,
                                 GpuConfig(ntt_variant="local-radix-8",
                                           asm=True))
        profs = profiler.routine("MulLinRS", 4)
        plan = plan_profiles(profs)
        assert plan.launches < plan.raw_launches
        assert plan.elided_bytes > 0
        assert plan.simulate(DEVICE1).time_s < \
            simulate_kernels(profs, DEVICE1).time_s
        assert _total_cycles(plan.profiles) == \
            pytest.approx(_total_cycles(profs), rel=1e-12)

    def test_plan_flags_are_independent(self):
        """The planner's two passes are independent: the NTT fold
        touches only transform kernels, elementwise fusion only
        elementwise ones."""
        profiler = GpuOpProfiler(4096, DEVICE2, GpuConfig(ntt_variant="naive"))
        profs = profiler.routine("MulLin", 3)
        folded = fold_lastround(profs)
        assert sum(p.launches for p in folded) < sum(p.launches for p in profs)
        assert all(not isinstance(p, FusedKernelProfile) or p.ntt_class
                   for p in folded)
        head = profiler.multiply(3)  # the chain's elementwise prefix
        assert profs[:len(head)] == head
        assert fold_lastround(head) == head
        fused = fuse_run(head)
        assert fused.launches == 1 < len(head)
        assert not fused.ntt_class
        assert not any(p.ntt_class for p in fused.parts)


#: sha256 over ``(name, launches, work_items, global_bytes,
#: lane_cycles_per_item)`` of every planned profile of the 1,140
#: non-empty chains :func:`_pinned_chains` yields.  Recorded from the
#: planner that also accepted producer/consumer op-graphs; a linear
#: chain must plan to the same kernels bit for bit.
PLAN_DIGEST = "55ba339a1bd6a15426149cd237e99ed7bfb2e8fc6882bf405d4015ae178f621f"


def _pinned_chains():
    ops = ("add", "multiply", "square", "relinearize", "rescale",
           "mod_switch", "rotate")
    routines = ("MulLin", "MulLinRS", "SqrLinRS", "MulLinRSModSwAdd",
                "Rotate")
    for device in (DEVICE1, DEVICE2):
        for stage in ("naive", "opt-NTT+asm"):
            for degree in (4096, 8192, 32768):
                profiler = GpuOpProfiler(degree, device, GpuConfig.stage(stage))
                for level in range(1, 9):
                    for op in ops:
                        yield getattr(profiler, op)(level)
                    for name in routines:
                        yield profiler.routine(name, level)


class TestPlanDigest:
    def test_planner_output_is_pinned(self):
        digest = hashlib.sha256()
        chains = 0
        for chain in _pinned_chains():
            if not chain:  # mod_switch at level 1 drops nothing
                continue
            chains += 1
            for p in plan_profiles(chain).profiles:
                digest.update(repr((p.name, p.launches, p.work_items,
                                    p.global_bytes,
                                    p.lane_cycles_per_item)).encode())
            digest.update(b"|")
        assert chains == 1140
        assert digest.hexdigest() == PLAN_DIGEST


class TestCrossRequestBatching:
    def test_same_shape_chains_merge(self):
        profiler = GpuOpProfiler(1024, DEVICE1, GpuConfig())
        chains = [("a", profiler.square(3)), ("b", profiler.square(3)),
                  ("c", profiler.add(3))]
        groups = batch_chains(chains)
        assert len(groups) == 2
        merged, solo = groups
        assert merged.request_ids == ("a", "b") and merged.width == 2
        assert solo.request_ids == ("c",) and solo.width == 1
        # Widened: work-items and bytes scale, launches do not.
        base = profiler.square(3)
        assert merged.profiles[0].work_items == 2 * base[0].work_items
        assert merged.profiles[0].global_bytes == 2 * base[0].global_bytes
        assert merged.launches == sum(p.launches for p in base)

    def test_different_levels_stay_separate(self):
        profiler = GpuOpProfiler(1024, DEVICE1, GpuConfig())
        groups = batch_chains([("a", profiler.square(3)),
                               ("b", profiler.square(2))])
        assert len(groups) == 2
        assert all(g.width == 1 for g in groups)

    def test_signature_distinguishes_all_cost_fields(self):
        a, b = _elem("k"), _elem("k", launches=2)
        assert chain_signature([a]) != chain_signature([b])
        assert chain_signature([a]) == chain_signature([_elem("k")])

    def test_empty_chain_list(self):
        assert batch_chains([]) == []

    def test_widened_slm_kernels_scale_work_groups(self):
        """Each widened instance brings its own work-groups (nttmodel
        convention), so the WG utilization cap relaxes with the batch."""
        profiler = GpuOpProfiler(8192, DEVICE1,
                                 GpuConfig(ntt_variant="local-radix-8"))
        chain = profiler.ntt(2)
        assert any(p.work_groups is not None for p in chain)
        groups = batch_chains([("a", chain), ("b", chain)])
        assert groups[0].width == 2
        for orig, wide in zip(chain, groups[0].profiles):
            if orig.work_groups is None:
                assert wide.work_groups is None
            else:
                assert wide.work_groups == 2 * orig.work_groups

    def test_fused_chains_batch_too(self):
        """Planned (fused) chains group exactly like raw ones, and the
        widened fused kernel's bookkeeping scales consistently."""
        profiler = GpuOpProfiler(1024, DEVICE1, GpuConfig())
        pa = plan_profiles(profiler.square(3)).profiles
        pb = plan_profiles(profiler.square(3)).profiles
        groups = batch_chains([("a", pa), ("b", pb)])
        assert len(groups) == 1 and groups[0].width == 2
        wide = groups[0].profiles[0]
        assert isinstance(wide, FusedKernelProfile)
        # parts still sum to the profile they claim to compose.
        assert _total_cycles(wide.parts) == pytest.approx(_total_cycles([wide]))
        assert wide.elided_bytes == 2 * pa[0].elided_bytes
        assert wide.collapsed_launches == pa[0].collapsed_launches


class TestGpuEvaluatorBitExactness:
    def test_fused_results_bit_identical_and_faster(self, ckks, rng):
        enc = ckks["encoder"]
        ct_a = ckks["encryptor"].encrypt(enc.encode(rng.normal(size=enc.slots)))
        ct_b = ckks["encryptor"].encrypt(enc.encode(rng.normal(size=enc.slots)))

        def run(kernel_fusion):
            gpu = GpuEvaluator(
                ckks["evaluator"], DEVICE2,
                GpuConfig(ntt_variant="local-radix-8", asm=True,
                          kernel_fusion=kernel_fusion),
            )
            prod = gpu.relinearize(gpu.multiply(ct_a, ct_b), ckks["relin"])
            out = gpu.rescale(gpu.add(prod, prod))
            return gpu, out

        gpu_off, out_off = run(False)
        gpu_on, out_on = run(True)
        assert np.array_equal(out_off.data, out_on.data)
        assert out_off.scale == out_on.scale
        assert gpu_on.device_time < gpu_off.device_time
        assert gpu_on.submitted_launches < gpu_on.raw_launches
        assert gpu_on.launches_saved > 0
        assert gpu_off.launches_saved == 0

    @pytest.mark.parametrize("device,stage,device_time,launches", [
        (DEVICE1, "naive", 0.006390282531194283, 1211),
        (DEVICE1, "opt-NTT+asm", 0.0011875025760304104, 140),
        (DEVICE2, "naive", 0.00901863065240642, 1211),
        (DEVICE2, "opt-NTT+asm", 0.0023603002627960246, 140),
    ])
    def test_fused_timeline_is_pinned(self, ckks, rng, device, stage,
                                      device_time, launches):
        """Simulated time and submitted launches of a fixed op sequence,
        recorded from the planner that also accepted op-graphs."""
        enc = ckks["encoder"]
        ct_a = ckks["encryptor"].encrypt(enc.encode(rng.normal(size=enc.slots)))
        ct_b = ckks["encryptor"].encrypt(enc.encode(rng.normal(size=enc.slots)))
        rlk = ckks["relin"]
        gpu = GpuEvaluator(ckks["evaluator"], device,
                           replace(GpuConfig.stage(stage), kernel_fusion=True))
        prod = gpu.rescale(gpu.relinearize(gpu.multiply(ct_a, ct_b), rlk))
        sqr = gpu.rescale(gpu.relinearize(gpu.square(ct_a), rlk))
        rot = gpu.rotate(gpu.add(prod, sqr), 1, ckks["galois"])
        gpu.mod_switch_to_next(rot)
        assert gpu.device_time == device_time
        assert gpu.submitted_launches == launches
        assert gpu.raw_launches == (1730 if stage == "naive" else 540)


class TestServerFusion:
    @pytest.fixture()
    def traffic(self, ckks, rng):
        from repro.server import mixed_square_multiply_traffic

        return mixed_square_multiply_traffic(
            ckks["encoder"], ckks["encryptor"], requests=6, rng=rng)

    def _serve(self, ckks, traffic, kernel_fusion):
        from repro.core.serialize import save_relin_key, to_bytes
        from repro.server import serve_traffic

        return serve_traffic(
            ckks["params"], traffic, kernel_fusion=kernel_fusion,
            relin_wire=to_bytes(save_relin_key, ckks["relin"]))

    def test_fused_serving_bit_identical_fewer_launches(self, ckks, traffic):
        off = self._serve(ckks, traffic, False)
        on = self._serve(ckks, traffic, True)
        for rid, _, _, _ in traffic:
            r_off, r_on = off.response(rid), on.response(rid)
            assert r_off.ok and r_on.ok
            assert np.array_equal(r_off.result.data, r_on.result.data)
        assert on.metrics.raw_launches == off.metrics.raw_launches
        assert off.metrics.fused_launches == off.metrics.raw_launches
        assert on.metrics.fused_launches < on.metrics.raw_launches
        assert on.metrics.launch_reduction > 0.5
        assert on.metrics.span_us < off.metrics.span_us

    def test_fused_serving_decrypts_correctly(self, ckks, traffic):
        on = self._serve(ckks, traffic, True)
        dec, enc = ckks["decryptor"], ckks["encoder"]
        for rid, _, _, expected in traffic:
            got = enc.decode(dec.decrypt(on.response(rid).result)).real
            assert np.abs(got - expected).max() < 1e-3

    def test_metrics_render_has_percentiles_and_launches(self, ckks, traffic):
        on = self._serve(ckks, traffic, True)
        text = on.metrics.render()
        assert "p50/p95/p99" in text
        assert "kernel launches" in text
        assert "raw" in text
