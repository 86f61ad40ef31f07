"""The fusion planner: greedy elementwise-chain fusion + NTT epilogue fold.

Two of the paper's biggest single-kernel wins are *fusions*:

* the fused ``mad_mod`` accumulation (Sec. III-A.1) — a multiply pass and
  an add pass become one kernel, and the intermediate polynomial never
  round-trips through DRAM;
* the last-round correction folded into the final NTT pass
  (Sec. III-B.1) — the separate [0,4p) -> [0,p) pass and its 2N global
  accesses disappear.

This module generalizes both into a planner over the in-order kernel
chain each operation emits (the paper's queues are in-order, Fig. 2, so
kernel ``i`` consumes kernel ``i-1``'s output).  Adjacent *elementwise*
kernels fuse when the merged kernel is launchable as one grid:

* same ``work_items`` (one grid shape serves both bodies);
* same ``mem_pattern`` (a fused body cannot switch access pattern);
* neither kernel is work-group-limited (``work_groups is None`` — SLM
  phase kernels pin groups to sub-slices and may not be merged past the
  WG cap, Sec. IV-C);
* single-launch profiles only (``launches == 1`` — a multi-launch
  profile already stands for a sweep of distinct grids);
* neither kernel is an NTT phase (those have internal round structure;
  their fusion opportunity is the epilogue fold below).

A fused kernel sums per-item cycles and nominal ops, keeps the grid
shape, and collapses the driver launches to one.  DRAM elision is
per *pass boundary*: adjacent kernels with different (base) names are
producer/consumer passes whose intermediate stays in registers — one
store+load (``2 * 8 * work_items`` bytes) disappears; adjacent kernels
with the *same* name are independent row instances of one pass (the
evaluator's per-RNS-row loops), so their launches collapse but every
row's traffic remains live.  Elision never drops the fused kernel below
its one-input/one-output floor.

The NTT fold attaches a ``:lastround`` correction kernel to the NTT
kernel preceding it: its compute folds into the transform's final round
(amortized per work-item) and its separate launch and 2N global accesses
are elided entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..xesim.device import DeviceSpec
from ..xesim.executor import AggregateTiming, simulate_kernels
from ..xesim.kernel import KernelProfile
from ..xesim.nttmodel import BYTES_PER_ELEM

__all__ = [
    "ELEM_BYTES",
    "FusedKernelProfile",
    "FusionPlan",
    "can_fuse",
    "fuse_run",
    "fold_lastround",
    "plan_profiles",
]

#: Bytes per polynomial coefficient (int64, shared with the NTT cost
#: model) — one elided intermediate costs a store plus the consumer's
#: load of the same array.
ELEM_BYTES = BYTES_PER_ELEM


@dataclass(frozen=True)
class FusedKernelProfile(KernelProfile):
    """A :class:`KernelProfile` produced by fusing ``parts`` into one launch.

    Behaves exactly like a plain profile under the executor (it *is*
    one), but remembers what it was made of for reporting:

    ``parts``
        The original profiles, in submission order.
    ``elided_bytes``
        DRAM traffic removed by keeping intermediates in registers.
    ``collapsed_launches``
        Driver submissions removed (``sum(part launches) - launches``).
    """

    parts: Tuple[KernelProfile, ...] = ()
    elided_bytes: float = 0.0
    collapsed_launches: int = 0

    @property
    def width(self) -> int:
        return len(self.parts)


def _base_name(profile: KernelProfile) -> str:
    name = profile.name
    for prefix in ("dyadic:", "fused:"):
        if name.startswith(prefix):
            name = name[len(prefix):]
    return name


def can_fuse(a: KernelProfile, b: KernelProfile) -> bool:
    """True when ``a`` and ``b`` may merge into one elementwise launch."""
    return (
        not a.ntt_class
        and not b.ntt_class
        and a.work_items == b.work_items
        and a.mem_pattern == b.mem_pattern
        and a.work_groups is None
        and b.work_groups is None
        and a.launches == 1
        and b.launches == 1
    )


def fuse_run(run: Sequence[KernelProfile]) -> KernelProfile:
    """Merge a compatible adjacent run into one fused profile.

    A single-element run is returned unchanged (nothing to fuse).
    """
    if not run:
        raise ValueError("cannot fuse an empty run")
    if len(run) == 1:
        return run[0]
    for prev, nxt in zip(run, run[1:]):
        if not can_fuse(prev, nxt):
            raise ValueError(
                f"incompatible profiles in fusion run: {prev.name!r} -> {nxt.name!r}"
            )
    head = run[0]
    floor = 2 * ELEM_BYTES * head.work_items  # one input + one output
    # Only a pass boundary (name change) has a register-resident
    # intermediate to elide; same-name neighbours are independent rows.
    elidable = sum(
        2 * ELEM_BYTES * head.work_items
        for prev, nxt in zip(run, run[1:])
        if _base_name(prev) != _base_name(nxt)
    )
    raw_bytes = sum(p.global_bytes for p in run)
    fused_bytes = max(raw_bytes - elidable, min(raw_bytes, floor))
    raw_launches = sum(p.launches for p in run)
    return FusedKernelProfile(
        name="fused:" + "+".join(_base_name(p) for p in run),
        work_items=head.work_items,
        lane_cycles_per_item=sum(p.lane_cycles_per_item for p in run),
        nominal_ops_per_item=sum(p.nominal_ops_per_item for p in run),
        global_bytes=fused_bytes,
        mem_pattern=head.mem_pattern,
        launches=1,
        work_groups=None,
        ntt_class=False,
        parts=tuple(run),
        elided_bytes=raw_bytes - fused_bytes,
        collapsed_launches=raw_launches - 1,
    )


def _is_lastround(profile: KernelProfile) -> bool:
    return profile.ntt_class and profile.name.endswith(":lastround")


def fold_lastround(profiles: Sequence[KernelProfile]) -> List[KernelProfile]:
    """Fold ``:lastround`` correction kernels into the preceding NTT kernel.

    The correction's compute amortizes over the transform kernel's
    work-items (it runs in registers during the final round), its driver
    launch disappears, and its 2N global accesses are elided
    (Sec. III-B.1).  A correction with no preceding NTT kernel is kept
    as-is — there is nothing to fold it into.
    """
    out: List[KernelProfile] = []
    for prof in profiles:
        if (
            _is_lastround(prof)
            and out
            and out[-1].ntt_class
            and not _is_lastround(out[-1])
        ):
            host = out.pop()
            parts = (
                host.parts + (prof,)
                if isinstance(host, FusedKernelProfile)
                else (host, prof)
            )
            prior_elided = getattr(host, "elided_bytes", 0.0)
            prior_collapsed = getattr(host, "collapsed_launches", 0)
            out.append(
                FusedKernelProfile(
                    name=f"{host.name}+lastround",
                    work_items=host.work_items,
                    lane_cycles_per_item=host.lane_cycles_per_item
                    + prof.total_cycles / host.work_items,
                    nominal_ops_per_item=host.nominal_ops_per_item
                    + prof.total_nominal_ops / host.work_items,
                    global_bytes=host.global_bytes,
                    mem_pattern=host.mem_pattern,
                    launches=host.launches,
                    work_groups=host.work_groups,
                    ntt_class=True,
                    parts=parts,
                    elided_bytes=prior_elided + prof.global_bytes,
                    collapsed_launches=prior_collapsed + prof.launches,
                )
            )
        else:
            out.append(prof)
    return out


@dataclass(frozen=True)
class FusionPlan:
    """The planner's output: a launchable sequence plus its savings."""

    profiles: Tuple[KernelProfile, ...]
    raw_launches: int
    raw_bytes: float

    @property
    def launches(self) -> int:
        return sum(p.launches for p in self.profiles)

    @property
    def launches_saved(self) -> int:
        return self.raw_launches - self.launches

    @property
    def global_bytes(self) -> float:
        return sum(p.global_bytes for p in self.profiles)

    @property
    def elided_bytes(self) -> float:
        return self.raw_bytes - self.global_bytes

    def simulate(self, device: DeviceSpec, *, tiles: int = 1) -> AggregateTiming:
        return simulate_kernels(list(self.profiles), device, tiles=tiles)


def plan_profiles(profiles: Sequence[KernelProfile]) -> FusionPlan:
    """Greedy adjacent fusion over an in-order kernel chain.

    Walks the chain once, extending the current elementwise run while
    :func:`can_fuse` holds and flushing it as one fused kernel when it
    breaks.  The NTT epilogue fold runs first so a freed correction
    kernel cannot block an elementwise run.
    """
    out: List[KernelProfile] = []
    run: List[KernelProfile] = []
    for prof in fold_lastround(profiles):
        if run and can_fuse(run[-1], prof):
            run.append(prof)
            continue
        if run:
            out.append(fuse_run(run))
        run = [prof] if not prof.ntt_class else []
        if prof.ntt_class:
            out.append(prof)
    if run:
        out.append(fuse_run(run))
    return FusionPlan(
        profiles=tuple(out),
        raw_launches=sum(p.launches for p in profiles),
        raw_bytes=sum(p.global_bytes for p in profiles),
    )
