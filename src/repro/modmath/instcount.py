"""Instruction-sequence models for compiler vs. inline-assembly code paths.

The paper's instruction-level contribution (Sec. III-A, Figs. 3-4) is a
claim about *instruction counts*:

* ``add_mod``: the compiler emits 4 instructions (add, cmp.lt, sel, add);
  the hand-written sequence needs 3 (add, cmp.ge, predicated add).
* ``mul64``: the compiler emulates a 64x64 multiply with 8 instructions of
  32-bit partial products; forcing the ``mul_low_high`` instruction (32x32
  producing the full 64-bit result in one go) collapses the sequence to 3
  instructions — the paper's "~60% reduction in instruction count".

This module encodes those sequences symbolically so the GPU model
(:mod:`repro.xesim`) can derive cycle costs, and so benchmarks can print
the exact Fig. 3/4 tables.  It also carries the per-work-item ALU-op audit
behind Table I of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = [
    "Instruction",
    "InstructionSequence",
    "ADD_MOD_COMPILER",
    "ADD_MOD_ASM",
    "MUL64_COMPILER",
    "MUL64_ASM",
    "MUL32_WIDENING_ASM",
    "BUTTERFLY_MUL_CLASS_OPS",
    "BUTTERFLY_ADD_CLASS_OPS",
    "BUTTERFLY_OPS",
    "OTHER_OPS_PER_RADIX",
    "butterflies_per_work_item",
    "butterfly_ops",
    "other_ops",
    "work_item_ops",
    "mul64_instruction_reduction",
    "add_mod_instruction_reduction",
]


@dataclass(frozen=True)
class Instruction:
    """One pseudo-assembly instruction: mnemonic, destination, sources."""

    mnemonic: str
    operands: Tuple[str, ...] = ()
    predicated: bool = False

    def render(self) -> str:
        pred = "(P1) " if self.predicated else ""
        return f"{pred}{self.mnemonic} " + " ".join(self.operands)


@dataclass(frozen=True)
class InstructionSequence:
    """A named straight-line sequence, as shown in the paper's figures."""

    name: str
    instructions: Tuple[Instruction, ...]

    @property
    def n_instructions(self) -> int:
        return len(self.instructions)

    def render(self) -> List[str]:
        return [f"{i + 1}: {ins.render()}" for i, ins in enumerate(self.instructions)]


# --- Fig. 3: unsigned modular addition ------------------------------------

ADD_MOD_COMPILER = InstructionSequence(
    name="add_mod (compiler-generated)",
    instructions=(
        Instruction("add", ("dst", "src1", "src2")),
        Instruction("cmp.lt", ("P1", "dst", "modulus")),
        Instruction("sel", ("modulus", "0x0", "modulus"), predicated=True),
        Instruction("add", ("dst", "dst", "(-)modulus")),
    ),
)

ADD_MOD_ASM = InstructionSequence(
    name="add_mod (inline assembly)",
    instructions=(
        Instruction("add", ("dst", "src1", "src2")),
        Instruction("cmp.ge", ("P1", "dst", "modulus")),
        Instruction("add", ("dst", "dst", "(-)modulus"), predicated=True),
    ),
)

# --- Fig. 4: int64 multiplication ------------------------------------------

MUL64_COMPILER = InstructionSequence(
    name="mul64 (compiler-generated, 32-bit partial products)",
    instructions=(
        Instruction("mul", ("temp", "src2", "src1")),
        Instruction("mulh", ("temp1", "src2", "src1")),
        Instruction("mul", ("temp2", "src2", "src1")),
        Instruction("add", ("temp1", "temp1", "temp2")),
        Instruction("mul", ("temp2", "src2", "src1")),
        Instruction("add", ("temp1", "temp1", "temp2")),
        Instruction("mov", ("dst_low", "temp")),
        Instruction("mov", ("dst_high", "temp1")),
    ),
)

MUL64_ASM = InstructionSequence(
    name="mul64 (inline assembly, mul_low_high based)",
    instructions=(
        Instruction("mul_low_high", ("dst_ll", "src1_lo", "src2_lo")),
        Instruction("mul_low_high", ("dst_lh", "src1_lo", "src2_hi")),
        Instruction("mad", ("dst_high_low", "dst_lh", "dst_ll")),
    ),
)

MUL32_WIDENING_ASM = InstructionSequence(
    name="mul32 widening (inline assembly, Fig. 4b)",
    instructions=(
        Instruction("mul_low_high", ("dst_low_high", "src1", "src2")),
    ),
)


def mul64_instruction_reduction() -> float:
    """Fractional instruction-count reduction for mul64 (paper: ~60%)."""
    return 1.0 - MUL64_ASM.n_instructions / MUL64_COMPILER.n_instructions


def add_mod_instruction_reduction() -> float:
    """Fractional instruction-count reduction for add_mod (4 -> 3)."""
    return 1.0 - ADD_MOD_ASM.n_instructions / ADD_MOD_COMPILER.n_instructions


# --- Table I: per-work-item ALU op audit ------------------------------------

#: int64 ALU ops inside one radix-2 Harvey butterfly (Algorithm 1).
#: Split into the multiply-emulation class (reduced by the inline-assembly
#: mul64 path) and the add/compare/select class.
BUTTERFLY_MUL_CLASS_OPS = 18
BUTTERFLY_ADD_CLASS_OPS = 10
#: Total = 28, matching the paper's Table I "butterfly" column for radix-2.
BUTTERFLY_OPS = BUTTERFLY_MUL_CLASS_OPS + BUTTERFLY_ADD_CLASS_OPS

#: "Other" int64 ALU ops (index/address arithmetic, loop bookkeeping) per
#: work-item per round, as audited in the paper's Table I.  Address math
#: grows super-linearly with radix because each extra in-register level
#: adds another strided index family.
OTHER_OPS_PER_RADIX: Dict[int, int] = {2: 20, 4: 45, 8: 120, 16: 260}


def butterflies_per_work_item(radix: int) -> int:
    """Number of radix-2 butterflies one work-item executes per round.

    A radix-R work-item holds R elements and performs ``log2(R)`` internal
    rounds of ``R/2`` butterflies each: 1, 4, 12, 32 for R = 2, 4, 8, 16.
    """
    if radix not in (2, 4, 8, 16):
        raise ValueError(f"unsupported radix {radix}")
    log_r = radix.bit_length() - 1
    return (radix // 2) * log_r


def butterfly_ops(radix: int, *, asm: bool = False) -> float:
    """Butterfly-column ALU ops per work-item per round (Table I).

    With ``asm=True`` the multiply-emulation class shrinks by the Fig. 4
    factor (8 -> 3 instructions), which is what turns the 456-op radix-8
    round into the measured 35.8-40.7% NTT speedup band.
    """
    n = butterflies_per_work_item(radix)
    mul_ops = BUTTERFLY_MUL_CLASS_OPS
    if asm:
        mul_ops = BUTTERFLY_MUL_CLASS_OPS * (1.0 - mul64_instruction_reduction())
    return n * (mul_ops + BUTTERFLY_ADD_CLASS_OPS)


def other_ops(radix: int) -> int:
    """Other-column ALU ops per work-item per round (Table I)."""
    try:
        return OTHER_OPS_PER_RADIX[radix]
    except KeyError:
        raise ValueError(f"unsupported radix {radix}") from None


def work_item_ops(radix: int, *, asm: bool = False) -> float:
    """Total int64 ALU ops per work-item per round.

    With ``asm=False`` this reproduces Table I exactly:
    48 / 157 / 456 / 1156 for radix 2 / 4 / 8 / 16.
    """
    return butterfly_ops(radix, asm=asm) + other_ops(radix)
