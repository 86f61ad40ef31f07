"""Analytic kernel profiles for every HE primitive (the GPU op model).

For each evaluator operation at ``(degree n, level l)`` this module emits
the :class:`~repro.xesim.kernel.KernelProfile` sequence the GPU backend
submits — NTT kernels via the selected variant, dyadic kernels from the
ISA op mixes.  The kernel counts mirror the functional evaluator's code
paths one-to-one (e.g. relinearize performs ``l`` iNTTs, ``l*(l+1)``
decomposition NTTs and the mod-down's ``2(l+1)`` transforms), which is
what makes the Fig. 5 NTT-share measurement *emerge* instead of being
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from ..ntt.variants import NTTVariant, get_variant
from ..xesim.device import DeviceSpec
from ..xesim.isa import ADD_MOD_MIX, MAD_MOD_MIX, MUL_MOD_MIX, OpMix, SUB_MOD_MIX
from ..xesim.kernel import KernelProfile
from ..xesim.nttmodel import build_ntt_profiles

__all__ = ["GpuConfig", "GpuOpProfiler", "BARRETT_REDUCE_MIX", "PERMUTE_MIX"]

#: barrett_reduce_64 per element: one mulhi + one mullo + compare/select.
BARRETT_REDUCE_MIX = OpMix("barrett_reduce", mul_class=9, add_class=2, other=1)
#: Galois coefficient permutation: index math + conditional negate.
PERMUTE_MIX = OpMix("galois_permute", mul_class=0, add_class=2, other=4)


@dataclass(frozen=True)
class GpuConfig:
    """Which of the paper's optimizations are active.

    The four stages of Figs. 16/18/19 are spanned by:

    * ``ntt_variant`` — ``"naive"`` vs ``"local-radix-8"`` (opt-NTT) etc.;
    * ``asm`` — inline-assembly int64 paths (Sec. III-A.2);
    * ``mad_fusion`` — fused mad_mod in accumulation kernels (Sec. III-A.1);
    * ``tiles`` — explicit multi-tile submission (Sec. III-C.2);
    * ``memcache`` — the device memory cache (Sec. III-C.1);
    * ``kernel_fusion`` — run each operation's in-order kernel chain
      through :func:`repro.fusion.plan_profiles` before submission:
      adjacent compatible elementwise kernels merge into one launch, NTT
      correction epilogues fold into their transform, and the serving
      dispatcher additionally widens same-shape chains across requests.
      Timing only — results stay bit-identical.
    """

    ntt_variant: str = "naive"
    asm: bool = False
    mad_fusion: bool = False
    tiles: int = 1
    memcache: bool = True
    kernel_fusion: bool = False

    def variant(self) -> NTTVariant:
        v = get_variant(self.ntt_variant)
        return v.with_asm() if self.asm else v

    @classmethod
    def stage(cls, name: str, *, tiles_available: int = 1) -> "GpuConfig":
        """The named optimization stages of Figs. 16 and 18."""
        stages = {
            "naive": cls(),
            "simd(8,8)": cls(ntt_variant="simd(8,8)"),
            "opt-NTT": cls(ntt_variant="local-radix-8"),
            "opt-NTT+asm": cls(ntt_variant="local-radix-8", asm=True),
            "opt-NTT+asm+dual-tile": cls(
                ntt_variant="local-radix-8", asm=True,
                tiles=min(2, tiles_available),
            ),
        }
        try:
            return stages[name]
        except KeyError:
            raise KeyError(f"unknown stage {name!r}; known: {sorted(stages)}") from None


class GpuOpProfiler:
    """Kernel-profile factory for one (degree, device, config) binding."""

    def __init__(self, degree: int, device: DeviceSpec, config: GpuConfig):
        self.n = degree
        self.device = device
        self.config = config

    # -- primitive profile builders ------------------------------------------------

    def ntt(self, transforms: int, *, inverse: bool = False,
            batched: bool = False) -> List[KernelProfile]:
        """``transforms`` independent n-point (i)NTTs under the variant.

        Routine-level transforms are *unbatched* — each polynomial row is
        its own kernel sequence, exactly like the evaluator's loops (the
        paper: "we do not benchmark batched routines and our wide GPU is
        not fully utilized such that the NTT acceleration is not as
        dramatic", Sec. IV-C).  The inverse transform has the same round
        structure and cost model (GS butterflies), so it shares the
        builder.  With ``batched=True`` all transforms share one launch set (grid
        dimensions ``poly_num x q_base_sz x n/2`` as in the paper's
        Fig. 8) — the application path; the SEAL-API routine layer
        submits them one call at a time.
        """
        tag = "intt" if inverse else "ntt"
        if batched:
            profs = build_ntt_profiles(self.config.variant(), self.n,
                                       transforms, self.device)
            return [replace(p, name=f"{tag}:{p.name}") for p in profs]
        single = build_ntt_profiles(self.config.variant(), self.n, 1, self.device)
        single = [replace(p, name=f"{tag}:{p.name}") for p in single]
        return single * transforms

    def dyadic(self, name: str, rows: int, mix: OpMix, *, passes: int = 1,
               streams: int = 3) -> List[KernelProfile]:
        """Element-wise kernels over ``rows`` RNS rows, one launch per row.

        Like the transforms, dyadic passes run unbatched — one n-element
        kernel per RNS row per pass, mirroring the evaluator's per-prime
        loops.  ``streams`` counts DRAM-touching operand/result arrays
        (default 2 loads + 1 store).  These kernels are memory-bound on
        both devices — the paper's observation that non-NTT kernels
        barely react to the inline-assembly optimization (Sec. IV-C).
        """
        cycles = mix.cycles(self.device, asm=self.config.asm)
        one = KernelProfile(
            name=f"dyadic:{name}",
            work_items=self.n,
            lane_cycles_per_item=cycles,
            nominal_ops_per_item=mix.nominal_ops,
            global_bytes=streams * 8 * self.n,
            mem_pattern="coalesced",
            launches=1,
        )
        return [one] * (rows * passes)

    # -- evaluator operations ---------------------------------------------------------

    def multiply(self, level: int) -> List[KernelProfile]:
        """Tensor product: 4 modular multiply passes + 1 accumulate."""
        if self.config.mad_fusion:
            return (
                self.dyadic("mul.tensor", level, MUL_MOD_MIX, passes=3)
                + self.dyadic("mul.cross-mad", level, MAD_MOD_MIX)
            )
        return (
            self.dyadic("mul.tensor", level, MUL_MOD_MIX, passes=4)
            + self.dyadic("mul.cross-add", level, ADD_MOD_MIX)
        )

    def square(self, level: int) -> List[KernelProfile]:
        return (
            self.dyadic("sqr.tensor", level, MUL_MOD_MIX, passes=3)
            + self.dyadic("sqr.double", level, ADD_MOD_MIX)
        )

    def add(self, level: int) -> List[KernelProfile]:
        return self.dyadic("add", level, ADD_MOD_MIX, passes=2)

    def multiply_plain(self, level: int) -> List[KernelProfile]:
        """Ciphertext x plaintext: one modular multiply pass per component."""
        return self.dyadic("mulplain", 2 * level, MUL_MOD_MIX)

    def key_switch(self, level: int) -> List[KernelProfile]:
        """The special-prime key switch (core of Relin and Rotate)."""
        l = level
        profs: List[KernelProfile] = []
        profs += self.ntt(l, inverse=True)                      # c2 -> coeff
        profs.extend(
            self.dyadic("ks.reduce", l * (l + 1), BARRETT_REDUCE_MIX, streams=2)
        )
        profs += self.ntt(l * (l + 1))                          # decomposition
        acc_mix = MAD_MOD_MIX if self.config.mad_fusion else MUL_MOD_MIX
        profs.extend(
            self.dyadic("ks.accumulate", l * (l + 1), acc_mix, passes=2, streams=4)
        )
        if not self.config.mad_fusion:
            profs.extend(
                self.dyadic("ks.acc-add", l * (l + 1), ADD_MOD_MIX, passes=2)
            )
        # Mod-down by P for both accumulator components.
        profs += self.ntt(2, inverse=True)                      # special rows
        profs.extend(self.dyadic("ks.center", 2 * l, BARRETT_REDUCE_MIX, streams=2))
        profs += self.ntt(2 * l)                                # re-NTT residues
        profs.extend(self.dyadic("ks.divide", 2 * l, MUL_MOD_MIX))
        profs.extend(self.dyadic("ks.sub", 2 * l, SUB_MOD_MIX))
        return profs

    def relinearize(self, level: int) -> List[KernelProfile]:
        return self.key_switch(level) + self.dyadic(
            "relin.add", level, ADD_MOD_MIX, passes=2
        )

    def rescale(self, level: int) -> List[KernelProfile]:
        """Drop q_{l-1}: per component one iNTT, l-1 re-NTTs, dyadics."""
        l = level
        profs: List[KernelProfile] = []
        profs += self.ntt(2, inverse=True)
        profs.extend(self.dyadic("rs.center", 2 * (l - 1), BARRETT_REDUCE_MIX,
                                 streams=2))
        profs += self.ntt(2 * (l - 1))
        profs.extend(self.dyadic("rs.sub-div", 2 * (l - 1), MUL_MOD_MIX))
        return profs

    def mod_switch(self, level: int) -> List[KernelProfile]:
        """Dropping a prime is a strided copy of the kept rows."""
        return self.dyadic("modsw.copy", 2 * (level - 1),
                           OpMix("copy", 0, 0, 1), streams=2)

    def galois(self, level: int) -> List[KernelProfile]:
        """Automorphism: iNTT both components, permute, NTT back.

        This is SEAL's kernel sequence, which the figures reproduce; the
        functional evaluator gets the same result as one NTT-form index
        permutation (``repro.core.galois.apply_galois_ntt``).
        """
        profs: List[KernelProfile] = []
        profs += self.ntt(2 * level, inverse=True)
        profs.extend(self.dyadic("galois.permute", 2 * level, PERMUTE_MIX,
                                 streams=2))
        profs += self.ntt(2 * level)
        return profs

    def rotate(self, level: int) -> List[KernelProfile]:
        return (
            self.galois(level)
            + self.key_switch(level)
            + self.dyadic("rot.add", level, ADD_MOD_MIX)
        )

    # -- routine sequences (Figs. 5/16/18) ------------------------------------------------

    def routine(self, name: str, level: int) -> List[KernelProfile]:
        if name == "MulLin":
            return self.multiply(level) + self.relinearize(level)
        if name == "MulLinRS":
            return self.routine("MulLin", level) + self.rescale(level)
        if name == "SqrLinRS":
            return self.square(level) + self.relinearize(level) + self.rescale(level)
        if name == "MulLinRSModSwAdd":
            return (
                self.routine("MulLinRS", level)
                + self.mod_switch(level)
                + self.add(level - 1)
            )
        if name == "Rotate":
            return self.rotate(level)
        raise KeyError(f"unknown routine {name!r}")
