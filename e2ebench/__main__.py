"""``python3 -m e2ebench``: run the benchmark.

The driver's form is ``--workload NAME --seed N --seconds S --trace 0|1``;
the last line of standard output is then the result object.  Without
``--workload`` every workload runs in turn (one result line each), and
``--repeat K`` runs K fresh processes per workload on seeds N..N+K-1 and
writes their medians and quartiles (see ``calibrate.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def _bootstrap() -> None:
    """Put the checkout's ``src`` on the path and apply the server's
    environment (``proc.child_env``) to this process too, before anything
    imports ``repro``."""
    from . import proc

    if not (proc.SRC / "repro").is_dir():
        sys.exit(f"e2ebench: no program to measure: {proc.SRC / 'repro'} "
                 "is missing (run from a full checkout)")
    env = proc.child_env()
    for key in ("REPRO_NATIVE_CACHE", "REPRO_NATIVE_THREADS", "TMPDIR"):
        os.environ[key] = env[key]
    sys.path.insert(0, str(proc.SRC))


def main(argv=None) -> int:
    from .spec import WORKLOADS

    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(prog="python3 -m e2ebench",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="one workload (default: all, in turn)")
    ap.add_argument("--seed", type=int, default=1,
                    help="drives plaintexts, op mix, think times and arrival "
                         "gaps (default 1)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="timed measurement per run, split over the rounds "
                         f"(default {spec['run_seconds']})")
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                    default=0, help="1: per-layer metrics from a traced run "
                                    "instead of the end-to-end metrics")
    ap.add_argument("--repeat", type=int, default=0, metavar="K",
                    help="calibration: K fresh runs per workload on seeds "
                         "seed..seed+K-1, medians and quartiles to --out")
    ap.add_argument("--out", default=None, metavar="PATH",
                    help="where --repeat writes (default e2ebench/out/"
                         "repeat.json)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    _bootstrap()

    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.repeat:
        from .calibrate import repeat

        return repeat(names, args.seed, args.seconds, args.repeat, args.out)

    from .run import render, run_workload

    failed = 0
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace))
        print(render(name, result))
        print(json.dumps(result), flush=True)
        failed += result["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
