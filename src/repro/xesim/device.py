"""Device specification for Intel-Xe-class GPUs.

The paper withholds the hardware specs of its two devices ("due to
confidentiality requirements ... we do not disclose hardware
specifications", Sec. IV) and reports only *normalized* numbers.  The
:class:`DeviceSpec` therefore carries exactly the parameters the paper's
own analysis uses — EU counts, frequencies, SLM/GRF geometry (Sec. II-D),
int64-emulation penalties (Sec. III-A) and memory bandwidth (Sec. IV-B
roofline) — with values chosen once in :mod:`repro.xesim.devices` to land
the paper's headline ratios, then frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["DeviceSpec"]


@dataclass(frozen=True)
class DeviceSpec:
    """Architecture + calibration parameters of one modelled GPU.

    Geometry follows the Gen11/Xe description in Sec. II-D of the paper:
    EUs grouped 8-per-subslice sharing 64 KB SLM; each EU runs up to 7
    hardware threads with a 4 KB GRF each.
    """

    name: str
    tiles: int
    eus_per_tile: int
    freq_ghz: float
    mem_bandwidth_gbs_per_tile: float

    # Fixed Xe geometry (Sec. II-D).
    eus_per_subslice: int = 8
    threads_per_eu: int = 7
    grf_bytes_per_thread: int = 4096
    slm_bytes_per_subslice: int = 64 * 1024
    #: Hardware SIMD lanes retiring int64 ALU ops per EU per cycle under
    #: ideal (inline-assembly) code: defines the int64 peak.
    int64_lanes_per_eu: int = 8
    #: SIMD width the DPC++ compiler targets for these kernels; divides the
    #: per-thread GRF into per-lane register budgets (spill threshold).
    compiled_simd_width: int = 16

    # Calibration constants (derivations in devices.py / DESIGN.md).
    #: Cycles per nominal multiply-class int64 op via the compiler's
    #: emulated sequence (Fig. 4a); the asm path costs 1.0.
    compiler_mul_penalty: float = 1.8
    #: Effective fraction of peak DRAM bandwidth by access pattern.
    mem_efficiency: Dict[str, float] = field(
        default_factory=lambda: {"strided": 0.55, "coalesced": 0.85}
    )
    #: Occupancy model u = x / (x + c) on the thread-slot fill ratio x.
    occupancy_constant: float = 1.0
    #: Utilization floor: tiny kernels are latency-bound, not rate-starved
    #: below this fraction of peak (fixed-function launch machinery).
    min_utilization: float = 0.02
    #: Throughput retained when work spans both tiles via multi-queue.
    inter_tile_efficiency: float = 0.92
    #: Host-side cost of one kernel submission.
    kernel_launch_overhead_us: float = 4.0
    #: Driver cost of a fresh device allocation (platform dependent).
    alloc_overhead_us: float = 55.0
    #: IPC model 1 / (1 + a * b**(-log2 ilp)): dependency stalls when a
    #: work-item has few independent butterflies in flight.
    ipc_a: float = 1.98
    ipc_b: float = 4.2
    #: IPC multiplier once a kernel spills registers (radix-16).
    spill_ipc_penalty: float = 0.40
    #: Fraction of sub-slices that must hold a work-group before an
    #: SLM-phase kernel reaches full rate (work-group granularity limit).
    wg_saturation_fraction: float = 0.25

    # -- derived quantities ---------------------------------------------------

    @property
    def subslices_per_tile(self) -> int:
        return self.eus_per_tile // self.eus_per_subslice

    def peak_int64_gops(self, tiles: int | None = None) -> float:
        """int64 peak in Gop/s for ``tiles`` tiles (default: full machine).

        The paper always reports efficiency against the *full machine*
        peak (Sec. IV-A.4: one tile saturates at "less than half of the
        peak performance").
        """
        t = self.tiles if tiles is None else tiles
        return self.eus_per_tile * t * self.int64_lanes_per_eu * self.freq_ghz

    def bandwidth_gbs(self, tiles: int) -> float:
        return self.mem_bandwidth_gbs_per_tile * tiles

    def grf_bytes_per_lane(self) -> int:
        """Register budget per work-item at the compiled SIMD width."""
        return self.grf_bytes_per_thread // self.compiled_simd_width

    def thread_slot_lanes(self, tiles: int) -> int:
        """Resident work-item capacity: EU threads times compiled lanes."""
        return (
            self.eus_per_tile * tiles * self.threads_per_eu * self.compiled_simd_width
        )

    def ipc(self, ilp: int) -> float:
        """Issue efficiency given ``ilp`` independent butterflies in flight."""
        if ilp < 1:
            raise ValueError("ilp must be >= 1")
        import math

        return 1.0 / (1.0 + self.ipc_a * self.ipc_b ** (-math.log2(ilp) if ilp > 1 else 0.0))

    def validate(self) -> None:
        if self.tiles < 1 or self.eus_per_tile < 8:
            raise ValueError("implausible device geometry")
        if self.eus_per_tile % self.eus_per_subslice:
            raise ValueError("EUs must divide into subslices")
