"""``--repeat K``: measure the benchmark's own run-to-run noise.

Runs every workload K times, each run a fresh process on its own seed
(exactly what the driver does), and writes per (workload, metric) the
values, median, quartiles and relative IQR.  ``calibration.json`` in this
directory is the committed K=10 result the bounds in ``BENCHMARK.json``
were set from; ``python3 -m e2ebench.compare`` reads two such files.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import proc
from .stats import summary

__all__ = ["repeat", "bounds"]


def bounds() -> Dict[str, float]:
    """End-to-end metric -> regression bound, from ``BENCHMARK.json``."""
    spec = json.loads((proc.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def _one_run(name: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "-m", "e2ebench", "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(proc.ROOT), stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{name} seed {seed}: exit code {done.returncode}, "
                           "no result")
    return json.loads(lines[-1])


def repeat(names: List[str], seed: int, seconds: float, k: int,
           out: Optional[str]) -> int:
    limit = bounds()
    values: Dict[str, Dict[str, List[float]]] = {n: {} for n in names}
    failed = {n: 0 for n in names}
    elapsed: Dict[str, List[float]] = {n: [] for n in names}
    for i in range(k):
        for name in names:
            t0 = time.perf_counter()
            result = _one_run(name, seed + i, seconds)
            elapsed[name].append(time.perf_counter() - t0)
            failed[name] += result["failed"]
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
            print(f"run {i + 1}/{k} {name}: {elapsed[name][-1]:.1f} s, "
                  f"failed {result['failed']}", file=sys.stderr, flush=True)
    doc = {
        "seconds": seconds, "seeds": [seed + i for i in range(k)],
        "failed": failed,
        "run_wall_s": {n: summary(v) for n, v in elapsed.items()},
        "workloads": {n: {metric: {"values": vals, **summary(vals)}
                          for metric, vals in by_metric.items()}
                      for n, by_metric in values.items()},
    }
    path = Path(out) if out else proc.OUT_DIR / "repeat.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{'workload':<24}{'metric':<24}{'median':>12}{'rel IQR':>10}"
          f"{'bound':>8}")
    noisy = 0
    for name, by_metric in doc["workloads"].items():
        for metric, s in by_metric.items():
            over = metric != "setup_s" and s["rel_iqr"] > limit[metric]
            noisy += over
            print(f"{name:<24}{metric:<24}{s['median']:>12.5g}"
                  f"{s['rel_iqr']:>10.4f}{limit[metric]:>8.2f}"
                  f"{'  SPREAD > BOUND' if over else ''}")
    print(f"wrote {path}")
    return 1 if noisy or any(failed.values()) else 0
