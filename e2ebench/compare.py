"""``python3 -m e2ebench.compare A.json B.json``: did B regress against A?

A and B are ``--repeat`` outputs of two commits, same seeds and seconds.
One row per workload x end-to-end metric, by the choosing-metrics rules:

* ``improved``: every run of B reads better than every run of A, or —
  given at least ten seed-paired runs — B wins at least nine tenths of the
  pairs (ties count for neither) and the medians differ by more than A's
  own quartile spread;
* ``unresolved``: the run-to-run spread of either side is wider than the
  metric's bound, so a change of that size cannot be seen either way;
* ``regressed``: B's median is worse than A's by more than the bound;
* ``within bound`` otherwise.

Exits 1 when any row regressed.
"""

from __future__ import annotations

import json
import sys
from typing import List

from .calibrate import bounds
from .spec import END_TO_END
from .stats import summary

__all__ = ["verdict", "main", "MIN_PAIRS"]

#: Fewer seed-paired runs than this cannot carry a claim of a gain.
MIN_PAIRS = 10


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0   # > 0 means "got worse"
    sa, sb = summary(a), summary(b)
    worse = sign * (sb["median"] - sa["median"]) / abs(sa["median"])
    if (max(b) < min(a)) if better == "lower" else (min(b) > max(a)):
        return "improved"
    if max(sa["rel_iqr"], sb["rel_iqr"]) > bound:
        return "unresolved"
    if worse > bound:
        return "regressed"
    wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    losses = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    decided = wins + losses
    if (min(len(a), len(b)) >= MIN_PAIRS and decided and wins >= 0.9 * decided
            and abs(sb["median"] - sa["median"]) > sa["q3"] - sa["q1"]):
        return "improved"
    return "within bound"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(open(p).read())["workloads"] for p in argv)
    limit = bounds()
    regressed = 0
    print(f"{'workload':<24}{'metric':<24}{'A median':>12}{'B median':>12}"
          f"{'change':>9}  verdict")
    for name in a:
        for metric, (_unit, better) in END_TO_END.items():
            if name not in b or metric not in a[name] or metric not in b[name]:
                continue
            va, vb = a[name][metric]["values"], b[name][metric]["values"]
            row = verdict(va, vb, better, limit[metric])
            regressed += row == "regressed"
            ma, mb = summary(va)["median"], summary(vb)["median"]
            print(f"{name:<24}{metric:<24}{ma:>12.5g}{mb:>12.5g}"
                  f"{(mb - ma) / abs(ma):>+9.1%}  {row}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
