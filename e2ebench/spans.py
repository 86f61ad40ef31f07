"""Benchmark-owned spans: name, start, end, parent, request id.

Spans are recorded around calls *into* the program from the benchmark's
own files and kept in memory until the run ends (spans inside
``src/repro`` are a later issue).  A span's self time is its duration
minus the part of it its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, Iterator, List, Optional

__all__ = ["Tracer", "NullTracer", "self_times", "self_time_by_name"]


class Tracer:
    """Records nested spans on one thread."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request_id: str = "") -> Iterator[dict]:
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "request": request_id, "start": self._clock(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = self._clock()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fp:
            json.dump({"clock": "wall (time.perf_counter), seconds",
                       "spans": self.spans}, fp)


class NullTracer:
    """Same ``span`` interface, records nothing (the untraced replay)."""

    def span(self, name: str, request_id: str = ""):
        return contextlib.nullcontext()


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the time covered by its direct children.

    Children are clipped to the parent's interval and overlapping
    children are merged, so covered time is never counted twice.
    """
    children: Dict[Optional[int], List[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out: Dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo = max(c["start"], cursor)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def self_time_by_name(spans: List[dict]) -> Dict[str, List[float]]:
    selfs = self_times(spans)
    out: Dict[str, List[float]] = {}
    for s in spans:
        out.setdefault(s["name"], []).append(selfs[s["id"]])
    return out
