"""Run one workload: untraced for the end-to-end metrics, traced for the
per-layer ones.  Returns the result object the driver reads."""

from __future__ import annotations

import time
from typing import List

from .results import Round, end_to_end
from .spec import END_TO_END, PER_LAYER, ROUNDS, Workload

__all__ = ["prepare", "measure_rounds", "run_workload", "render"]


def prepare(w: Workload, seed: int):
    """Untimed preparation shared by every round of a run: build the
    native kernel library once, then the reference deployment, the seeded
    input pool and the expected results.  Returns (deployment, pool,
    native build seconds).
    """
    from repro import native

    from .deploy import Deployment, build_pool

    t0 = time.perf_counter()
    native.available()  # compiles on first use into .bench_build/
    build_s = time.perf_counter() - t0
    dep = Deployment(w.degree, w.levels, seed)
    pool = build_pool(dep, seed, () if w.kind == "matmul" else w.ops)
    return dep, pool, build_s


def measure_rounds(w: Workload, seed: int, seconds: float, pool,
                   rounds: int = ROUNDS) -> List[Round]:
    if w.served:
        from .served import run_round
    else:
        from .inprocess import run_round
    return [run_round(w, seed, seconds / rounds, r, pool)
            for r in range(rounds)]


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """The driver's result object for one (workload, seed, trace) run."""
    dep, pool, build_s = prepare(w, seed)
    if trace:
        from .layers import per_layer

        values, rounds = per_layer(w, seed, seconds, dep, pool, build_s)
        units = PER_LAYER
    else:
        rounds = measure_rounds(w, seed, seconds, pool)
        values = end_to_end(rounds)
        units = END_TO_END
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _better) in units.items()},
    }


def render(name: str, result: dict) -> str:
    """Every metric by name and unit, one per line."""
    lines = [f"== {name}: attempted {result['attempted']}, "
             f"failed {result['failed']}, "
             f"{'correct' if result['correct'] else 'INCORRECT'}"]
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        lines.append(f"  {metric:<42} {shown:>14} {entry['unit']}")
    return "\n".join(lines)
