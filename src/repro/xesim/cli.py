"""``python -m repro calibration`` and ``devices``: the device model's CLI."""

from __future__ import annotations

import argparse


def cmd_calibration(_args: argparse.Namespace) -> int:
    from .calibration import TARGET_MAP, compute_metrics

    metrics = compute_metrics()
    width = max(len(k) for k in metrics)
    bad = 0
    for key, value in metrics.items():
        t = TARGET_MAP[key]
        ok = t.ok(value)
        bad += not ok
        flag = "ok " if ok else "OUT"
        print(f"{flag} {key.ljust(width)} measured={value:8.4f} "
              f"paper={t.paper_value:8.4f} band=[{t.lo}, {t.hi}]  ({t.source})")
    print(f"\n{len(metrics) - bad}/{len(metrics)} calibration targets in band")
    return 1 if bad else 0


def cmd_devices(_args: argparse.Namespace) -> int:
    from . import DEVICE1, DEVICE2

    for dev in (DEVICE1, DEVICE2):
        print(f"{dev.name}:")
        print(f"  tiles x EUs      : {dev.tiles} x {dev.eus_per_tile}")
        print(f"  frequency        : {dev.freq_ghz} GHz")
        print(f"  int64 peak       : {dev.peak_int64_gops():,.0f} Gop/s (machine)")
        print(f"  DRAM bandwidth   : {dev.bandwidth_gbs(dev.tiles):,.0f} GB/s")
        print(f"  SLM / sub-slice  : {dev.slm_bytes_per_subslice // 1024} KB")
        print(f"  GRF / thread     : {dev.grf_bytes_per_thread} B "
              f"({dev.grf_bytes_per_lane()} B/lane at SIMD-"
              f"{dev.compiled_simd_width})")
        print()
    return 0


def add_calibration(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(fn=cmd_calibration)


def add_devices(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(fn=cmd_devices)
