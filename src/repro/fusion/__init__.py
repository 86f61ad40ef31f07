"""Kernel-fusion compiler: chain fusion and launch batching.

The paper's biggest single-kernel wins are fusions — the ``mad_mod``
accumulation (Sec. III-A.1), the last-round correction folded into the
final NTT pass (Sec. III-B.1), and batching independent polynomials into
one launch grid (Fig. 8).  This subsystem turns those one-off tricks
into a small compiler pipeline over the kernel chains every evaluator
operation emits.  The paper's queues are in-order (Fig. 2), so each
chain is linear: kernel ``i`` consumes kernel ``i-1``'s output.

1. :mod:`~repro.fusion.planner` — greedily fuse compatible adjacent
   elementwise kernels and fold NTT correction epilogues
   (:func:`plan_profiles`, :class:`FusionPlan`,
   :class:`FusedKernelProfile`);
2. :mod:`~repro.fusion.batching` — merge same-shape chains from
   different requests in one dispatch batch into a single widened
   launch grid (:func:`batch_chains`, :class:`LaunchGroup`).

Consumers: ``GpuEvaluator`` (opt-in via ``GpuConfig.kernel_fusion``),
the serving ``BatchDispatcher`` (fuses within each dispatched batch),
``analysis.profiling`` (fused-vs-raw breakdowns) and the
``python -m repro fuse`` CLI.  Fusion changes *timing only* — the
functional ciphertext math is untouched, so results are bit-identical
with the flag on or off.
"""

from .batching import LaunchGroup, batch_chains, chain_signature, widen_profile
from .planner import (
    FusedKernelProfile,
    FusionPlan,
    can_fuse,
    fold_lastround,
    fuse_run,
    plan_profiles,
)

__all__ = [
    "FusedKernelProfile",
    "FusionPlan",
    "can_fuse",
    "fuse_run",
    "fold_lastround",
    "plan_profiles",
    "LaunchGroup",
    "chain_signature",
    "batch_chains",
    "widen_profile",
]
