"""Data generators for every table and figure of the paper's evaluation.

Each ``figN_*`` function recomputes the corresponding result from the
model/library and returns a :class:`FigureResult` carrying the series,
the paper's reference values, and our measured counterparts — the
benchmarks render these to ``benchmarks/results/<figure_id>.txt`` and
``python -m repro figures`` prints them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..apps.matmul import MATMUL_STAGES, SHAPE_100x10x1, SHAPE_10x9x8, simulate_matmul
from ..core.routines import ROUTINE_NAMES
from ..gpu.gpu_evaluator import simulate_routine
from ..gpu.profiles import GpuConfig
from ..modmath.instcount import butterfly_ops, other_ops, work_item_ops
from ..ntt.variants import VARIANTS, get_variant
from ..xesim.device import DeviceSpec
from ..xesim.devices import DEVICE1, DEVICE2
from ..xesim.nttmodel import simulate_ntt
from ..xesim.roofline import operational_density, roofline_bound

__all__ = [
    "Series",
    "FigureResult",
    "fig5_profiling",
    "table1_alu_ops",
    "fig12_radix2_simd",
    "fig13_high_radix",
    "fig14a_inline_asm",
    "fig14b_dual_tile",
    "fig15_roofline",
    "fig16_routines_device1",
    "fig17_ntt_device2",
    "fig18_routines_device2",
    "fig19_matmul",
    "ALL_FIGURES",
]

#: The (size, instance-count) sweep of Figs. 12a/13a.
SWEEP_CONFIGS: List[Tuple[int, int]] = [
    (4096, 8), (8192, 8), (16384, 8), (32768, 8),
    (32768, 16), (32768, 256), (32768, 512), (32768, 1024),
]
#: Instance sweep of Figs. 12b/13b (32K-point NTT).
INSTANCE_SWEEP = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]


@dataclass(frozen=True)
class Series:
    """One plotted line/bar group."""

    label: str
    x: Tuple
    y: Tuple

    @classmethod
    def make(cls, label: str, x: Sequence, y: Sequence) -> "Series":
        return cls(label=label, x=tuple(x), y=tuple(y))


@dataclass(frozen=True)
class FigureResult:
    """A reproduced figure/table: series plus paper-vs-measured notes."""

    figure_id: str
    title: str
    series: Tuple[Series, ...]
    paper: Dict[str, float] = field(default_factory=dict)
    measured: Dict[str, float] = field(default_factory=dict)

    def deviations(self) -> Dict[str, float]:
        """measured / paper ratio per shared key (1.0 = exact)."""
        out = {}
        for k, v in self.paper.items():
            if k in self.measured and v:
                out[k] = self.measured[k] / v
        return out


def _device(name: str) -> DeviceSpec:
    return DEVICE1 if name == "Device1" else DEVICE2


# --- Fig. 5 -------------------------------------------------------------------


def fig5_profiling(device_name: str = "Device1") -> FigureResult:
    """NTT share of the five HE routines (naive GPU library)."""
    dev = _device(device_name)
    cfg = GpuConfig.stage("naive")
    times = []
    fracs = []
    for r in ROUTINE_NAMES:
        t = simulate_routine(r, dev, cfg)
        times.append(t.time_s)
        fracs.append(t.ntt_fraction)
    tmax = max(times)
    paper_avg = 0.7999 if device_name == "Device1" else 0.7564
    return FigureResult(
        figure_id="fig5",
        title=f"Profiling for HE routines on {device_name}",
        series=(
            Series.make("normalized time", ROUTINE_NAMES, [t / tmax for t in times]),
            Series.make("NTT fraction", ROUTINE_NAMES, fracs),
        ),
        paper={"avg_ntt_fraction": paper_avg},
        measured={"avg_ntt_fraction": sum(fracs) / len(fracs)},
    )


# --- Table I -----------------------------------------------------------------------


def table1_alu_ops() -> FigureResult:
    """int64 ALU ops per work-item per round, by radix."""
    radices = [2, 4, 8, 16]
    butterfly = [butterfly_ops(r) for r in radices]
    other = [other_ops(r) for r in radices]
    total = [work_item_ops(r) for r in radices]
    paper = {
        "radix2_total": 48, "radix4_total": 157,
        "radix8_total": 456, "radix16_total": 1156,
    }
    measured = {f"radix{r}_total": work_item_ops(r) for r in radices}
    return FigureResult(
        figure_id="table1",
        title="Number of 64-bit integer ALU operations per work-item per round",
        series=(
            Series.make("butterfly", radices, butterfly),
            Series.make("other", radices, other),
            Series.make("total", radices, total),
        ),
        paper=paper,
        measured=measured,
    )


# --- Figs. 12/13: NTT variant sweeps ----------------------------------------------------


def _variant_sweep(device: DeviceSpec, variant_names: List[str],
                   tiles: int = 1) -> Tuple[Series, ...]:
    """Speedup-over-naive across SWEEP_CONFIGS for each variant."""
    out = []
    for name in variant_names:
        speedups = []
        for n, inst in SWEEP_CONFIGS:
            base = simulate_ntt(get_variant("naive"), device, n=n, instances=inst)
            v = simulate_ntt(get_variant(name), device, n=n, instances=inst,
                             tiles=tiles)
            speedups.append(v.speedup_over(base))
        out.append(Series.make(name, [f"{n//1024}K,{i}" for n, i in SWEEP_CONFIGS],
                               speedups))
    return tuple(out)


def _efficiency_sweep(device: DeviceSpec, variant_names: List[str],
                      tiles: int = 1) -> Tuple[Series, ...]:
    """Efficiency vs instance count for 32K-point NTTs."""
    out = []
    for name in variant_names:
        effs = [
            simulate_ntt(get_variant(name), device, instances=i, tiles=tiles).efficiency
            for i in INSTANCE_SWEEP
        ]
        out.append(Series.make(name, INSTANCE_SWEEP, effs))
    return tuple(out)


def fig12_radix2_simd(device_name: str = "Device1") -> FigureResult:
    dev = _device(device_name)
    names = ["naive", "simd(8,8)", "simd(16,8)", "simd(32,8)"]
    speed = _variant_sweep(dev, names[1:])
    eff = _efficiency_sweep(dev, names)
    naive_eff = eff[0].y[-1]
    simd88_eff = eff[1].y[-1]
    return FigureResult(
        figure_id="fig12",
        title=f"Radix-2 NTT with SLM and SIMD on {device_name}",
        series=speed + eff,
        paper={"naive_eff_1024": 0.1008, "simd88_eff_1024": 0.1293,
               "simd88_speedup_32k1024": 1.28},
        measured={"naive_eff_1024": naive_eff, "simd88_eff_1024": simd88_eff,
                  "simd88_speedup_32k1024": speed[0].y[-1]},
    )


def fig13_high_radix(device_name: str = "Device1") -> FigureResult:
    dev = _device(device_name)
    names = ["naive", "local-radix-4", "local-radix-8", "local-radix-16"]
    speed = _variant_sweep(dev, names[1:])
    eff = _efficiency_sweep(dev, names)
    r8_speed = [s for s in speed if s.label == "local-radix-8"][0]
    r8_eff = [s for s in eff if s.label == "local-radix-8"][0]
    return FigureResult(
        figure_id="fig13",
        title=f"High-radix NTT with SLM on {device_name}",
        series=speed + eff,
        paper={"radix8_speedup_max": 4.23, "radix8_eff_1024": 0.341},
        measured={"radix8_speedup_max": max(r8_speed.y),
                  "radix8_eff_1024": r8_eff.y[-1]},
    )


# --- Fig. 14: asm + dual tile -------------------------------------------------------------


def fig14a_inline_asm(device_name: str = "Device1") -> FigureResult:
    dev = _device(device_name)
    configs = [(8192, 64), (8192, 128), (8192, 256), (16384, 64), (16384, 128),
               (16384, 256), (32768, 64), (32768, 128), (32768, 256),
               (32768, 512), (32768, 1024)]
    gains = []
    effs = []
    for n, inst in configs:
        base = simulate_ntt(get_variant("local-radix-8"), dev, n=n, instances=inst)
        asm = simulate_ntt(get_variant("local-radix-8+asm"), dev, n=n,
                           instances=inst)
        gains.append(base.time_s / asm.time_s)
        effs.append(asm.efficiency)
    labels = [f"{n//1024}K,{i}" for n, i in configs]
    return FigureResult(
        figure_id="fig14a",
        title="NTT with inline assembly on Device1",
        series=(
            Series.make("asm speedup", labels, gains),
            Series.make("asm efficiency", labels, effs),
        ),
        paper={"asm_gain_lo": 1.358, "asm_gain_hi": 1.407, "asm_eff_32k1024": 0.471},
        measured={"asm_gain_lo": min(gains), "asm_gain_hi": max(gains),
                  "asm_eff_32k1024": effs[-1]},
    )


def fig14b_dual_tile(device_name: str = "Device1") -> FigureResult:
    dev = _device(device_name)
    configs = [(8192, 64), (8192, 256), (16384, 64), (16384, 256),
               (32768, 64), (32768, 256), (32768, 1024)]
    naive_s = []
    one_tile = []
    two_tile = []
    for n, inst in configs:
        base = simulate_ntt(get_variant("naive"), dev, n=n, instances=inst)
        opt1 = simulate_ntt(get_variant("local-radix-8+asm"), dev, n=n,
                            instances=inst, tiles=1)
        opt2 = simulate_ntt(get_variant("local-radix-8+asm"), dev, n=n,
                            instances=inst, tiles=2)
        naive_s.append(1.0)
        one_tile.append(opt1.speedup_over(base))
        two_tile.append(opt2.speedup_over(base))
    final = simulate_ntt(get_variant("local-radix-8+asm"), dev, tiles=2)
    base = simulate_ntt(get_variant("naive"), dev)
    labels = [f"{n//1024}K,{i}" for n, i in configs]
    return FigureResult(
        figure_id="fig14b",
        title="NTT with explicit dual-tile submission on Device1",
        series=(
            Series.make("optimized 1-tile speedup", labels, one_tile),
            Series.make("optimized 2-tile speedup", labels, two_tile),
        ),
        paper={"dual_speedup_32k1024": 9.93, "dual_eff_32k1024": 0.798},
        measured={"dual_speedup_32k1024": final.speedup_over(base),
                  "dual_eff_32k1024": final.efficiency},
    )


# --- Fig. 15: roofline ------------------------------------------------------------------------


def fig15_roofline(device_name: str = "Device1") -> FigureResult:
    dev = _device(device_name)
    points = [
        ("naive radix-2", "naive", 1),
        ("SLM+simd radix-2", "simd(8,8)", 1),
        ("SLM+radix-4", "local-radix-4", 1),
        ("SLM+radix-8", "local-radix-8+asm", 1),
        ("SLM+radix-8+dual-tile", "local-radix-8+asm", 2),
    ]
    labels, dens, perf, bound = [], [], [], []
    for label, vname, tiles in points:
        v = get_variant(vname)
        res = simulate_ntt(v, dev, tiles=tiles)
        labels.append(label)
        dens.append(operational_density(v, 32768, dev))
        perf.append(res.timing.achieved_gops())
        bound.append(roofline_bound(dens[-1], dev, tiles=tiles))
    return FigureResult(
        figure_id="fig15",
        title=f"Roofline analysis on {device_name}",
        series=(
            Series.make("operational density (op/B)", labels, dens),
            Series.make("achieved Gop/s", labels, perf),
            Series.make("roofline bound Gop/s", labels, bound),
        ),
        paper={"naive_density": 1.5, "radix8_density": 8.9},
        measured={"naive_density": dens[0], "radix8_density": dens[3]},
    )


# --- Figs. 16/18: routine staging -----------------------------------------------------------------


def _routine_staging(device_name: str, stages: List[str],
                     figure_id: str, paper: Dict[str, float]) -> FigureResult:
    dev = _device(device_name)
    series = []
    measured: Dict[str, float] = {}
    finals = []
    for r in ROUTINE_NAMES:
        times = []
        for stage in stages:
            cfg = GpuConfig.stage(stage, tiles_available=dev.tiles)
            times.append(simulate_routine(r, dev, cfg).time_s)
        norm = [t / times[0] for t in times]
        series.append(Series.make(r, stages, norm))
        finals.append(times[0] / times[-1])
    measured["max_final_speedup"] = max(finals)
    measured["min_final_speedup"] = min(finals)
    return FigureResult(
        figure_id=figure_id,
        title=f"HE evaluation routines on {device_name}",
        series=tuple(series),
        paper=paper,
        measured=measured,
    )


def fig16_routines_device1() -> FigureResult:
    return _routine_staging(
        "Device1",
        ["naive", "opt-NTT", "opt-NTT+asm", "opt-NTT+asm+dual-tile"],
        "fig16",
        {"max_final_speedup": 3.05, "min_final_speedup": 2.73},
    )


def fig18_routines_device2() -> FigureResult:
    return _routine_staging(
        "Device2",
        ["naive", "simd(8,8)", "opt-NTT", "opt-NTT+asm"],
        "fig18",
        {"max_final_speedup": 2.41, "min_final_speedup": 2.32},
    )


# --- Fig. 17: Device2 NTT -------------------------------------------------------------------------


def fig17_ntt_device2() -> FigureResult:
    dev = DEVICE2
    names = ["naive", "simd(8,8)", "local-radix-8", "local-radix-8+asm"]
    eff = _efficiency_sweep(dev, names)
    base = simulate_ntt(get_variant("naive"), dev)
    r8 = simulate_ntt(get_variant("local-radix-8"), dev)
    asm = simulate_ntt(get_variant("local-radix-8+asm"), dev)
    return FigureResult(
        figure_id="fig17",
        title="Benchmark for NTT on Device2",
        series=eff,
        paper={"radix8_eff": 0.668, "asm_eff": 0.8575,
               "radix8_speedup": 5.47, "asm_speedup": 7.02},
        measured={"radix8_eff": r8.efficiency, "asm_eff": asm.efficiency,
                  "radix8_speedup": r8.speedup_over(base),
                  "asm_speedup": asm.speedup_over(base)},
    )


# --- Fig. 19: matMul ---------------------------------------------------------------------------------


def fig19_matmul(device_name: str = "Device1") -> FigureResult:
    dev = _device(device_name)
    series = []
    measured = {}
    for shape in (SHAPE_100x10x1, SHAPE_10x9x8):
        times = [simulate_matmul(shape, dev, st).total_s for st in MATMUL_STAGES]
        norm = [t / times[0] for t in times]
        series.append(Series.make(shape.label(), MATMUL_STAGES, norm))
        measured[f"{shape.label()}_total_speedup"] = times[0] / times[-1]
    paper = (
        {"matMul_100x10x1_total_speedup": 2.68, "matMul_10x9x8_total_speedup": 2.79}
        if device_name == "Device1"
        else {"matMul_100x10x1_total_speedup": 3.11, "matMul_10x9x8_total_speedup": 2.82}
    )
    return FigureResult(
        figure_id=f"fig19_{device_name.lower()}",
        title=f"Element-wise polynomial matrix multiplication on {device_name}",
        series=tuple(series),
        paper=paper,
        measured=measured,
    )


#: The one figure registry, behind ``python -m repro figures``.
ALL_FIGURES = {
    "fig5_device1": lambda: fig5_profiling("Device1"),
    "fig5_device2": lambda: fig5_profiling("Device2"),
    "table1": table1_alu_ops,
    "fig12": fig12_radix2_simd,
    "fig13": fig13_high_radix,
    "fig14a": fig14a_inline_asm,
    "fig14b": fig14b_dual_tile,
    "fig15": fig15_roofline,
    "fig16": fig16_routines_device1,
    "fig17": fig17_ntt_device2,
    "fig18": fig18_routines_device2,
    "fig19_device1": lambda: fig19_matmul("Device1"),
    "fig19_device2": lambda: fig19_matmul("Device2"),
}
