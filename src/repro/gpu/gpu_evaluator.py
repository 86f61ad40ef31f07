"""The GPU backend: routine timing simulation + functional GPU evaluator.

Two entry points:

* :func:`simulate_routine` — simulate-only: runs a routine's kernel
  profiles through the performance model (optionally splitting across
  tiles via per-tile queues, Sec. III-C.2) and reports time plus the
  NTT-vs-others decomposition of Figs. 5/16/18;
* :class:`GpuEvaluator` — functional: wraps the exact
  :class:`~repro.core.evaluator.Evaluator` math while submitting the same
  kernel profiles (fused by :func:`~repro.fusion.plan_profiles` when
  ``config.kernel_fusion`` is on) to a runtime
  :class:`~repro.runtime.queue.Queue`, so applications get real
  ciphertexts *and* a simulated device timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.ciphertext import Ciphertext
from ..core.evaluator import Evaluator
from ..core.keys import GaloisKeys, RelinKey
from ..fusion import plan_profiles
from ..runtime.queue import Queue
from ..xesim.device import DeviceSpec
from ..xesim.executor import simulate_kernel, simulate_kernels
from ..xesim.kernel import KernelProfile
from .profiles import GpuConfig, GpuOpProfiler

__all__ = ["RoutineTiming", "simulate_routine", "GpuEvaluator"]


@dataclass(frozen=True)
class RoutineTiming:
    """Simulated timing of one HE routine at one optimization stage."""

    routine: str
    stage: GpuConfig
    time_s: float
    ntt_time_s: float
    other_time_s: float

    @property
    def ntt_fraction(self) -> float:
        return self.ntt_time_s / (self.ntt_time_s + self.other_time_s)

    def speedup_over(self, other: "RoutineTiming") -> float:
        return other.time_s / self.time_s


def _split_balanced(profiles: List[KernelProfile], parts: int,
                    device: DeviceSpec):
    """Greedy makespan balancing: assign each kernel to the least-loaded
    queue (kernels within one routine's transform stream are independent
    across RNS primes, so any assignment is legal)."""
    bins: List[List[KernelProfile]] = [[] for _ in range(parts)]
    loads = [0.0] * parts
    for p in profiles:
        t = simulate_kernel(p, device, tiles=1).time_s
        i = loads.index(min(loads))
        bins[i].append(p)
        loads[i] += t
    return bins


def simulate_routine(
    name: str,
    device: DeviceSpec,
    config: GpuConfig,
    *,
    degree: int = 32768,
    level: int = 8,
) -> RoutineTiming:
    """Simulate one of the paper's five routines under a config.

    With ``config.tiles > 1`` the *transform* kernels — mutually
    independent across RNS primes — are split round-robin over per-tile
    queues (the paper's explicit multi-queue submission, Sec. III-C.2),
    while the dyadic glue stays on the primary queue.  This matches
    Figs. 16/18, where the dual-tile stage shrinks the NTT bar but
    leaves the "Others" segment essentially unchanged.
    """
    profiler = GpuOpProfiler(degree, device, config)
    profiles = profiler.routine(name, level)
    tiles = config.tiles
    if tiles <= 1:
        agg = simulate_kernels(profiles, device, tiles=1)
        return RoutineTiming(name, config, agg.time_s, agg.ntt_time_s,
                             agg.other_time_s)
    ntt_profiles = [p for p in profiles if p.ntt_class]
    other_profiles = [p for p in profiles if not p.ntt_class]
    bins = _split_balanced(ntt_profiles, tiles, device)
    per_tile_ntt = [simulate_kernels(b, device, tiles=1).time_s for b in bins]
    other_time = simulate_kernels(other_profiles, device, tiles=1).time_s
    ntt_makespan = max(per_tile_ntt)
    return RoutineTiming(
        name, config, ntt_makespan + other_time, ntt_makespan, other_time
    )


class GpuEvaluator:
    """Functional evaluator that also advances a simulated GPU timeline.

    Every operation (a) computes the true result via the core evaluator
    and (b) submits the operation's kernel profiles to an in-order queue,
    so ``queue.device_time`` tracks what the op *would* cost on the
    modelled device.  Used by the application benchmarks (Fig. 19) where
    both the answer and the timeline matter.

    With ``config.kernel_fusion`` every operation's kernel chain runs
    through the :mod:`repro.fusion` planner before submission: fewer
    launches hit the queue, the math is untouched.
    """

    def __init__(self, evaluator: Evaluator, device: DeviceSpec,
                 config: GpuConfig, queue: Optional[Queue] = None):
        self.ev = evaluator
        self.device = device
        self.config = config
        self.queue = queue if queue is not None else Queue(device=device,
                                                           tiles=config.tiles)
        self.profiler = GpuOpProfiler(evaluator.context.degree, device, config)
        self.raw_launches = 0
        self.submitted_launches = 0

    def _submit(self, profiles: List[KernelProfile]) -> None:
        self.raw_launches += sum(p.launches for p in profiles)
        if self.config.kernel_fusion:
            profiles = list(plan_profiles(profiles).profiles)
        self.submitted_launches += sum(p.launches for p in profiles)
        for p in profiles:
            self.queue.submit(p)

    # -- mirrored operations ----------------------------------------------------

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        out = self.ev.add(a, b)
        self._submit(self.profiler.add(a.level))
        return out

    def multiply(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        out = self.ev.multiply(a, b)
        self._submit(self.profiler.multiply(a.level))
        return out

    def square(self, a: Ciphertext) -> Ciphertext:
        out = self.ev.square(a)
        self._submit(self.profiler.square(a.level))
        return out

    def relinearize(self, a: Ciphertext, rlk: RelinKey) -> Ciphertext:
        out = self.ev.relinearize(a, rlk)
        self._submit(self.profiler.relinearize(a.level))
        return out

    def rescale(self, a: Ciphertext) -> Ciphertext:
        out = self.ev.rescale(a)
        self._submit(self.profiler.rescale(a.level))
        return out

    def mod_switch_to_next(self, a: Ciphertext) -> Ciphertext:
        out = self.ev.mod_switch_to_next(a)
        self._submit(self.profiler.mod_switch(a.level))
        return out

    def rotate(self, a: Ciphertext, steps: int, gk: GaloisKeys) -> Ciphertext:
        out = self.ev.rotate(a, steps, gk)
        self._submit(self.profiler.rotate(a.level))
        return out

    @property
    def device_time(self) -> float:
        return self.queue.device_time

    @property
    def launches_saved(self) -> int:
        """Driver submissions the fusion planner removed so far."""
        return self.raw_launches - self.submitted_launches
