"""``python -m repro fuse``: the kernel-fusion compiler, chain and batch."""

from __future__ import annotations

import argparse

from .. import at_least


def cmd_fuse(args: argparse.Namespace) -> int:
    import numpy as np

    from ..analysis import fusion_breakdown
    from ..gpu.profiles import GpuConfig, GpuOpProfiler
    from ..server import (
        demo_deployment,
        mixed_square_multiply_traffic,
        serve_traffic,
    )
    from ..xesim import DEVICE1

    # -- 1. chain-level: one routine through the planner --------------------
    print(f"== routine chain: MulLinRS, n=32768, L=8, {DEVICE1.name} ==")
    for stage in ("naive", "opt-NTT+asm"):
        profiler = GpuOpProfiler(32768, DEVICE1, GpuConfig.stage(stage))
        bd = fusion_breakdown(profiler.routine("MulLinRS", 8), DEVICE1)
        print(f"-- stage {stage} --")
        print(bd.render())
    print()

    # -- 2. server-level: same multi-request batch, fusion off vs on --------
    params, encoder, encryptor, decryptor, relin_wire = demo_deployment(
        degree=args.degree, seed=args.seed)

    frames = mixed_square_multiply_traffic(
        encoder, encryptor, requests=args.requests,
        rng=np.random.default_rng(args.seed),
    )

    off, on = (
        serve_traffic(params, frames, kernel_fusion=fusion,
                      relin_wire=relin_wire, max_batch=args.max_batch)
        for fusion in (False, True)
    )
    span_off = off.metrics.span_us
    span_on = on.metrics.span_us
    all_ok = all(off.response(rid).ok and on.response(rid).ok
                 for rid, _, _, _ in frames)
    identical = all_ok and all(
        np.array_equal(off.response(rid).result.data,
                       on.response(rid).result.data)
        for rid, _, _, _ in frames
    )
    # A failed response has no result blob: worst stays infinite so the
    # self-test reports FAIL instead of crashing on a None dereference.
    worst = max(
        float(np.abs(encoder.decode(
            decryptor.decrypt(on.response(rid).result)).real
            - expected).max())
        for rid, _, _, expected in frames
    ) if all_ok else float("inf")

    print(f"== server batch: {args.requests} requests, degree {args.degree}, "
          f"{DEVICE1.name} x2 tiles ==")
    print(f"launches    : {off.metrics.fused_launches} unfused -> "
          f"{on.metrics.fused_launches} fused "
          f"({100 * on.metrics.launch_reduction:.0f}% removed, "
          f"raw {on.metrics.raw_launches})")
    print(f"span        : {span_off / 1e3:.3f} ms unfused -> "
          f"{span_on / 1e3:.3f} ms fused "
          f"({span_off / span_on if span_on else float('inf'):.2f}x)")
    print(f"results     : {'bit-identical' if identical else 'MISMATCH'} "
          f"(fusion on vs off)")
    print(f"worst error : {worst:.2e} (fused, vs plaintext reference)")

    if args.self_test:
        ok = (identical
              and worst < 1e-3
              and on.metrics.fused_launches < on.metrics.raw_launches
              and on.metrics.fused_launches < off.metrics.fused_launches
              and span_on < span_off)
        print(f"self-test: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def add_fuse(parser: argparse.ArgumentParser) -> None:
    # Cross-request batching needs a batch: two requests at least.
    parser.add_argument("--requests", type=at_least(2), default=12,
                        help="synthetic requests in the A/B batch (default 12)")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="batch size budget (default 8)")
    parser.add_argument("--degree", type=int, default=1024,
                        help="CKKS ring degree (default 1024; test-scale)")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--self-test", action="store_true",
                        help="verify launches/time drop and results stay "
                             "bit-identical; nonzero exit on failure")
    parser.set_defaults(fn=cmd_fuse)
