"""Registry of the NTT implementation variants benchmarked in the paper.

Each variant bundles (a) a functional executor — all variants compute the
same transform, validated against each other in tests — and (b) the
structural facts the performance model needs: round schedule, registers
per work-item and work-items per round.

Variant names follow the paper's figures:

===================  ========================================================
``naive``            Fig. 6: radix-2, one global kernel launch per round
``simd(8,8)``        staged radix-2, SLM + sub-group shuffles, 1 reg slot
``simd(16,8)``       as above with 2 register slots per work-item
``simd(32,8)``       as above with 4 register slots per work-item
``local-radix-4``    staged radix-4 with SLM
``local-radix-8``    staged radix-8 with SLM (the paper's optimum)
``local-radix-16``   staged radix-16 with SLM (register spilling)
===================  ========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

import numpy as np

from .stages import RoundGroup, stage_schedule
from .tables import NTTTables

__all__ = ["NTTVariant", "VARIANTS", "get_variant", "run_variant"]

@dataclass(frozen=True)
class NTTVariant:
    """Static description of one NTT implementation strategy."""

    name: str
    radix: int
    naive: bool = False
    use_slm: bool = False
    ter_simd_gap: int = 0     # 0 = no SIMD-shuffle phase
    reg_slots: int = 1        # register slots per work-item (SIMD variants)
    asm: bool = False         # inline-assembly int64 paths enabled

    # -- structure ----------------------------------------------------------

    def schedule(self, n: int) -> List[RoundGroup]:
        """Round groups for an n-point transform under this variant."""
        return stage_schedule(
            n,
            radix=self.radix,
            ter_simd_gap=self.ter_simd_gap,
            naive=self.naive,
        )

    def with_asm(self) -> "NTTVariant":
        """The same variant with the inline-assembly int64 paths enabled."""
        return replace(self, asm=True, name=f"{self.name}+asm")

    # -- resource model -------------------------------------------------------

    def registers_per_work_item(self) -> int:
        """8-byte registers a work-item occupies (paper Sec. III-B.4/5).

        Radix-2 SIMD variants: 4 registers per slot (2 data + W + W').
        High-radix R: R data + R twiddle registers, plus address temps
        that grow with the in-register index families.
        """
        if self.radix == 2:
            return 4 * self.reg_slots + 4
        return 2 * self.radix + 4 + self.radix // 4

    def work_items(self, n: int) -> int:
        """Work-items per transform round (elements / radix slots held)."""
        held = self.radix if self.radix > 2 else 2 * self.reg_slots
        return n // held

    def description(self) -> str:
        bits = [f"radix-{self.radix}"]
        if self.naive:
            bits.append("global-only")
        if self.use_slm:
            bits.append("SLM")
        if self.ter_simd_gap:
            bits.append(f"SIMD gap<={self.ter_simd_gap}")
        if self.asm:
            bits.append("inline-asm")
        return ", ".join(bits)


def _make_registry() -> Dict[str, NTTVariant]:
    variants = [
        NTTVariant(name="naive", radix=2, naive=True),
        NTTVariant(name="simd(8,8)", radix=2, use_slm=True, ter_simd_gap=8,
                   reg_slots=1),
        NTTVariant(name="simd(16,8)", radix=2, use_slm=True, ter_simd_gap=16,
                   reg_slots=2),
        NTTVariant(name="simd(32,8)", radix=2, use_slm=True, ter_simd_gap=32,
                   reg_slots=4),
        NTTVariant(name="local-radix-4", radix=4, use_slm=True),
        NTTVariant(name="local-radix-8", radix=8, use_slm=True),
        NTTVariant(name="local-radix-16", radix=16, use_slm=True),
    ]
    return {v.name: v for v in variants}


VARIANTS: Dict[str, NTTVariant] = _make_registry()


def get_variant(name: str) -> NTTVariant:
    """Look up a variant; ``+asm`` suffix toggles the assembly paths."""
    base_name = name.removesuffix("+asm")
    try:
        v = VARIANTS[base_name]
    except KeyError:
        raise KeyError(
            f"unknown NTT variant {name!r}; known: {sorted(VARIANTS)}"
        ) from None
    return v.with_asm() if name.endswith("+asm") else v


def run_variant(x: np.ndarray, tables: NTTTables, variant: NTTVariant,
                *, lazy: bool = False) -> np.ndarray:
    """Execute a variant functionally through its phase schedule.

    Every variant computes the same transform; what differs is the
    execution structure (global rounds, SLM-block rounds, SIMD rounds,
    radix grouping), which :func:`~repro.ntt.staged.staged_ntt_forward`
    follows faithfully — including the block-locality guards.
    """
    from .staged import staged_ntt_forward  # local: avoids import cycle

    return staged_ntt_forward(x, tables, variant, lazy=lazy)
