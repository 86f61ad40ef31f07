"""``python -m repro chaos``: the seeded fault-injection soak."""

from __future__ import annotations

import argparse


def cmd_chaos(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .chaos import ChaosConfig, run_chaos

    if args.quick:
        cfg = ChaosConfig.quick(seed=args.seed)
    else:
        cfg = ChaosConfig(seed=args.seed)
    overrides = {}
    if args.requests is not None:
        overrides["requests"] = args.requests
    if args.workers is not None:
        overrides["workers"] = args.workers
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
    report = run_chaos(cfg)
    print(report.render())
    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report.to_json() + "\n")
        print(f"chaos: summary -> {out}")
    return 0 if report.ok else 1


def add_chaos(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=8,
                        help="fault plan + traffic seed (default 8)")
    parser.add_argument("--requests", type=int, default=None,
                        help="override the request count")
    parser.add_argument("--workers", type=int, default=None,
                        help="override the evaluation pool width")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized soak (200 requests, degree 256)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the summary JSON to PATH")
    parser.set_defaults(fn=cmd_chaos)
