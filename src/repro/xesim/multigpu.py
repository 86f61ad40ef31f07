"""Multi-GPU and heterogeneous scaling — the paper's stated future work.

Sec. V: "Future work will focus on extending our HE library to multi-GPU
and heterogeneous platforms."  This module implements that extension on
the performance model: batched HE workloads (independent across
instances, Fig. 10) are split across several devices proportionally to
their modelled throughput, with a host-side coordination cost per device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..ntt.variants import NTTVariant
from .device import DeviceSpec
from .executor import simulate_kernels
from .nttmodel import build_ntt_profiles

__all__ = ["MultiGpuPlan", "plan_split", "simulate_multi_gpu_ntt",
           "MultiGpuResult"]

#: Host-side coordination overhead per participating device (queue set-up,
#: result gather) — the marginal cost of adding a device to the pool.
PER_DEVICE_OVERHEAD_US = 50.0


@dataclass(frozen=True)
class MultiGpuPlan:
    """A batch split across devices: (device, tiles, batch share)."""

    assignments: Tuple[Tuple[DeviceSpec, int, int], ...]

    def describe(self) -> List[str]:
        return [
            f"{dev.name} x{tiles} tiles: {batch} instances"
            for dev, tiles, batch in self.assignments
        ]


def plan_split(batch: int, devices: Sequence[Tuple[DeviceSpec, int]]) -> MultiGpuPlan:
    """Split a batch proportionally to each device's int64 peak.

    ``devices`` is a list of (device, tiles-to-use).  Every device gets at
    least one instance when the batch allows; throughput-proportional
    shares minimize the makespan for throughput-bound workloads.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if not devices:
        raise ValueError("need at least one device")
    peaks = [dev.peak_int64_gops(tiles) for dev, tiles in devices]
    total_peak = sum(peaks)
    raw = [batch * p / total_peak for p in peaks]
    shares = [int(r) for r in raw]
    # Distribute the remainder by largest fractional part.
    rem = batch - sum(shares)
    order = sorted(range(len(raw)), key=lambda i: raw[i] - shares[i],
                   reverse=True)
    for i in order[:rem]:
        shares[i] += 1
    assignments = tuple(
        (dev, tiles, share)
        for (dev, tiles), share in zip(devices, shares)
        if share > 0
    )
    return MultiGpuPlan(assignments=assignments)


@dataclass(frozen=True)
class MultiGpuResult:
    """Outcome of a multi-device batched workload."""

    plan: MultiGpuPlan
    makespan_s: float
    per_device_s: Dict[str, float]
    single_best_s: float

    @property
    def speedup_vs_best_single(self) -> float:
        return self.single_best_s / self.makespan_s


def simulate_multi_gpu_ntt(
    variant: NTTVariant,
    devices: Sequence[Tuple[DeviceSpec, int]],
    *,
    n: int = 32768,
    batch: int = 8192,
) -> MultiGpuResult:
    """Simulate a batched NTT workload split across heterogeneous devices.

    The batch axis (instances x RNS) is embarrassingly parallel, so each
    device runs its share independently; the makespan is the slowest
    device plus the per-device coordination overhead.
    """
    plan = plan_split(batch, devices)
    per_device: Dict[str, float] = {}
    for dev, tiles, share in plan.assignments:
        profiles = build_ntt_profiles(variant, n, share, dev)
        t = simulate_kernels(profiles, dev, tiles=tiles).time_s
        per_device[dev.name] = t + PER_DEVICE_OVERHEAD_US * 1e-6
    makespan = max(per_device.values())

    single_best = float("inf")
    for dev, tiles in devices:
        profiles = build_ntt_profiles(variant, n, batch, dev)
        t = simulate_kernels(profiles, dev, tiles=tiles).time_s
        single_best = min(single_best, t)
    return MultiGpuResult(
        plan=plan,
        makespan_s=makespan,
        per_device_s=per_device,
        single_best_s=single_best,
    )
