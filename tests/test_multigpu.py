"""Tests for the multi-GPU/heterogeneous extension (paper's future work)."""

import pytest

from repro.ntt import get_variant
from repro.xesim import DEVICE1, DEVICE2
from repro.xesim.multigpu import (
    MultiGpuPlan,
    plan_split,
    simulate_multi_gpu_ntt,
)


class TestPlanSplit:
    def test_proportional_to_peak(self):
        plan = plan_split(100, [(DEVICE1, 2), (DEVICE2, 1)])
        shares = {dev.name: b for dev, _, b in plan.assignments}
        # Device1 (2 tiles) is ~10x Device2's peak: share ratio follows.
        assert shares["Device1"] > 8 * shares["Device2"]
        assert sum(shares.values()) == 100

    def test_homogeneous_even_split(self):
        plan = plan_split(64, [(DEVICE2, 1), (DEVICE2, 1)])
        shares = [b for _, _, b in plan.assignments]
        assert shares == [32, 32]

    def test_remainder_distributed(self):
        plan = plan_split(7, [(DEVICE2, 1), (DEVICE2, 1)])
        shares = sorted(b for _, _, b in plan.assignments)
        assert shares == [3, 4]

    def test_tiny_batch_drops_slow_device(self):
        plan = plan_split(1, [(DEVICE1, 2), (DEVICE2, 1)])
        assert sum(b for _, _, b in plan.assignments) == 1
        assert len(plan.assignments) == 1
        assert plan.assignments[0][0].name == "Device1"

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_split(0, [(DEVICE1, 1)])
        with pytest.raises(ValueError):
            plan_split(10, [])

    def test_describe(self):
        plan = plan_split(10, [(DEVICE1, 2)])
        assert "Device1" in plan.describe()[0]


class TestMultiGpuSimulation:
    def test_two_devices_beat_best_single(self):
        res = simulate_multi_gpu_ntt(
            get_variant("local-radix-8+asm"),
            [(DEVICE1, 2), (DEVICE2, 1)],
            batch=8192,
        )
        assert res.speedup_vs_best_single > 1.0

    def test_heterogeneous_gain_is_modest(self):
        """Adding a ~10x-slower device should add ~10%, not 2x."""
        res = simulate_multi_gpu_ntt(
            get_variant("local-radix-8+asm"),
            [(DEVICE1, 2), (DEVICE2, 1)],
            batch=8192,
        )
        assert 1.0 < res.speedup_vs_best_single < 1.3

    def test_dual_homogeneous_near_2x(self):
        res = simulate_multi_gpu_ntt(
            get_variant("local-radix-8+asm"),
            [(DEVICE2, 1), (DEVICE2, 1)],
            batch=8192,
        )
        assert 1.6 < res.speedup_vs_best_single <= 2.05

    def test_makespan_is_max_of_devices(self):
        res = simulate_multi_gpu_ntt(
            get_variant("local-radix-8"),
            [(DEVICE1, 1), (DEVICE2, 1)],
            batch=4096,
        )
        assert res.makespan_s == pytest.approx(max(res.per_device_s.values()))

    def test_balanced_finish_times(self):
        """Proportional split should finish devices within ~25%."""
        res = simulate_multi_gpu_ntt(
            get_variant("local-radix-8+asm"),
            [(DEVICE1, 2), (DEVICE2, 1)],
            batch=8192,
        )
        times = list(res.per_device_s.values())
        assert max(times) / min(times) < 1.3
