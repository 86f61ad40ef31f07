"""Runtime profiling utilities: timeline and kernel-cost analysis.

While :mod:`repro.analysis.figures` recomputes results analytically, this
module inspects *executed* runtime queues (functional mode), classifying
events into NTT vs other kernels — a working profiler for the library.

It also prices kernel sequences directly (simulate-only), reporting the
*launch-overhead share* of each bucket's simulated time — the quantity
the :mod:`repro.fusion` planner attacks — and a fused-vs-raw breakdown
(:func:`fusion_breakdown`) in the style of the paper's Fig. 5/16/18
decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..runtime.queue import Queue
from ..xesim.device import DeviceSpec
from ..xesim.executor import simulate_kernels
from ..xesim.kernel import KernelProfile

__all__ = [
    "ProfileReport",
    "profile_queue",
    "KernelCostReport",
    "kernel_cost_report",
    "FusionBreakdown",
    "fusion_breakdown",
]


@dataclass(frozen=True)
class ProfileReport:
    """Aggregated timings from one queue's event log."""

    total_s: float
    by_kind: Dict[str, float]
    event_count: int

    @property
    def ntt_fraction(self) -> float:
        ntt = self.by_kind.get("ntt", 0.0)
        return ntt / self.total_s if self.total_s else 0.0


def classify(event_name: str) -> str:
    """Map a queue/kernel event name to a profiling bucket.

    Serving-layer events carry a ``req:<id>:`` routing prefix; it is
    stripped so served kernels land in the same buckets as direct ones.
    """
    if event_name.startswith(("h2d:", "d2h:")):
        return "transfer"
    if event_name.startswith("req:"):
        event_name = event_name.split(":", 2)[-1]
    if event_name.startswith(("ntt:", "intt:")) or ":ntt[" in event_name:
        return "ntt"
    if event_name.startswith("fused:"):
        return "fused"
    if event_name.startswith("dyadic:"):
        return "dyadic"
    return "other"


def profile_queue(queue: Queue) -> ProfileReport:
    """Summarize the simulated busy time of an executed queue."""
    by_kind: Dict[str, float] = {}
    total = 0.0
    for ev in queue.events:
        kind = classify(ev.name)
        by_kind[kind] = by_kind.get(kind, 0.0) + ev.duration
        total += ev.duration
    return ProfileReport(total_s=total, by_kind=by_kind,
                         event_count=len(queue.events))


@dataclass(frozen=True)
class KernelCostReport:
    """Per-bucket simulated time with its launch-overhead share.

    ``rows`` maps bucket -> ``(time_s, launch_s, launches)``; the launch
    share makes the fixed per-submission cost visible in Fig. 5/16/18
    style breakdowns, so fusion savings have a denominator.
    """

    rows: Dict[str, tuple]
    total_s: float
    launch_s: float
    launches: int

    @property
    def launch_fraction(self) -> float:
        return self.launch_s / self.total_s if self.total_s else 0.0

    def render(self, title: str = "kernel cost") -> str:
        lines = [f"{title}: {self.total_s * 1e3:.3f} ms total, "
                 f"{self.launches} launches, "
                 f"{100 * self.launch_fraction:.1f}% launch overhead"]
        for kind, (t, l, n) in sorted(self.rows.items(), key=lambda kv: -kv[1][0]):
            share = l / t * 100 if t else 0.0
            lines.append(f"  {kind:<9}: {t * 1e3:8.3f} ms  "
                         f"({n:4d} launches, {share:5.1f}% launch overhead)")
        return "\n".join(lines)


def kernel_cost_report(
    profiles: Sequence[KernelProfile], device: DeviceSpec, *, tiles: int = 1
) -> KernelCostReport:
    """Price a kernel sequence and decompose launch overhead per bucket."""
    agg = simulate_kernels(list(profiles), device, tiles=tiles)
    rows: Dict[str, List[float]] = {}
    for t in agg.kernels:
        kind = classify(t.profile.name)
        row = rows.setdefault(kind, [0.0, 0.0, 0])
        row[0] += t.time_s
        row[1] += t.launch_s
        row[2] += t.profile.launches
    return KernelCostReport(
        rows={k: tuple(v) for k, v in rows.items()},
        total_s=agg.time_s,
        launch_s=agg.launch_time_s,
        launches=agg.launches,
    )


@dataclass(frozen=True)
class FusionBreakdown:
    """Fused-vs-unfused comparison of one kernel sequence."""

    raw: KernelCostReport
    fused: KernelCostReport

    @property
    def launches_saved(self) -> int:
        return self.raw.launches - self.fused.launches

    @property
    def speedup(self) -> float:
        return self.raw.total_s / self.fused.total_s if self.fused.total_s else 1.0

    def render(self) -> str:
        return "\n".join([
            self.raw.render("unfused"),
            self.fused.render("fused"),
            f"fusion: {self.raw.launches} -> {self.fused.launches} launches "
            f"(-{self.launches_saved}), {self.speedup:.2f}x faster",
        ])


def fusion_breakdown(
    profiles: Sequence[KernelProfile], device: DeviceSpec, *, tiles: int = 1
) -> FusionBreakdown:
    """Plan ``profiles`` through the fusion compiler and compare costs."""
    from ..fusion import plan_profiles

    plan = plan_profiles(profiles)
    return FusionBreakdown(
        raw=kernel_cost_report(profiles, device, tiles=tiles),
        fused=kernel_cost_report(plan.profiles, device, tiles=tiles),
    )
