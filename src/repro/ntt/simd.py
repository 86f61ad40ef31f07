"""Sub-group SIMD shuffle modelling (paper Sec. III-B.3, Figs. 7 and 9).

When the exchange gap fits inside one sub-group, the paper swaps NTT
elements between work-item registers with ``shuffle`` instead of memory.
This module reproduces the exchange pattern of Fig. 9:

    shift_idx = lane >> log_gap
    tmp1      = (shift_idx + 1) & 1
    tgt       = lane + (((tmp1 << 1) - 1) << log_gap)

which is exactly ``tgt = lane XOR gap``; the register selected per slot is
``reg = tmp1 + 2*slot``.  The functional result of the SIMD rounds is just
more radix-2 stages (verified in tests); what differs is *where* the data
moves, which the performance model prices as shuffle operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = [
    "shuffle_targets",
    "shuffle_register_index",
    "SimdExchange",
    "simd_exchange_plan",
]


def shuffle_targets(simd_width: int, gap: int) -> np.ndarray:
    """Partner lane for each lane at a given exchange gap (Fig. 9).

    ``gap`` is in units of register slots within the sub-group.
    """
    if gap < 1 or gap >= simd_width:
        raise ValueError(f"gap must be in [1, {simd_width}), got {gap}")
    if simd_width & (simd_width - 1) or gap & (gap - 1):
        raise ValueError("simd_width and gap must be powers of two")
    lanes = np.arange(simd_width, dtype=np.int64)
    return lanes ^ gap


def shuffle_register_index(lane: int, gap: int, slot: int) -> int:
    """Which local register a lane contributes at this exchange (Fig. 9)."""
    log_gap = gap.bit_length() - 1
    shift_idx = lane >> log_gap
    tmp1 = (shift_idx + 1) & 1
    return tmp1 + (slot << 1)


@dataclass(frozen=True)
class SimdExchange:
    """One shuffle round: gap, partner table and register selections."""

    gap: int
    targets: Tuple[int, ...]
    registers: Tuple[int, ...]


def simd_exchange_plan(simd_width: int, reg_slots: int) -> List[SimdExchange]:
    """The shuffle rounds a SIMD(width*slots, width) kernel performs.

    For SIMD(8,8) (one slot) the lane-level gaps are 4, 2, 1 — the three
    stages of Fig. 7.  More register slots add in-register exchanges that
    need no shuffle (priced separately by the performance model).
    """
    plan: List[SimdExchange] = []
    gap = simd_width // 2
    while gap >= 1:
        targets = tuple(int(t) for t in shuffle_targets(simd_width, gap))
        regs = tuple(
            shuffle_register_index(lane, gap, 0) for lane in range(simd_width)
        )
        plan.append(SimdExchange(gap=gap, targets=targets, registers=regs))
        gap //= 2
    return plan
