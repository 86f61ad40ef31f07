"""Seeded request schedules: the op mix, think times and arrival gaps.

Pure functions of ``(seed, workload name)`` — the same seed gives the
same stream on every commit, a different seed a different one.  Only the
standard library, so the schedule cannot drift with NumPy or the repo.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Sequence

__all__ = ["Planned", "VARIANTS", "request_stream", "poisson_arrivals"]

#: Distinct precomputed inputs (hence expected results) per op.
VARIANTS = 8
#: Each shuffled block of a request stream holds every op this often.
_BLOCK_REPEATS = 4
#: Open-loop arrivals are Poisson within blocks of this many requests.
_ARRIVAL_BLOCK = 8


class Planned(NamedTuple):
    op: str
    variant: int      # which of the op's VARIANTS precomputed inputs
    think_s: float    # client think time before this send (closed loops)


def _rng(seed: int, name: str, stream: str) -> random.Random:
    # str seeds hash through SHA-512: stable across processes and versions.
    return random.Random(f"e2ebench:{seed}:{name}:{stream}")


def request_stream(seed: int, name: str, ops: Sequence[str], n: int,
                   think_ms: float = 0.0, stream: str = "timed",
                   ) -> List[Planned]:
    """``n`` planned requests: a uniform op mix in seeded random order,
    uniform variants, think times U[0, think_ms).

    The ops are dealt in shuffled blocks that hold each op equally often,
    so every seed (and every prefix of a stream) carries the same mix and
    the seed moves the order, not the amount of work.
    """
    rng = _rng(seed, name, stream)
    block = list(ops) * _BLOCK_REPEATS
    out: List[Planned] = []
    while len(out) < n:
        rng.shuffle(block)
        out.extend(Planned(op=op, variant=rng.randrange(VARIANTS),
                           think_s=rng.uniform(0.0, think_ms) * 1e-3)
                   for op in block)
    return out[:n]


def poisson_arrivals(seed: int, name: str, rate_rps: float, seconds: float,
                     stream: str = "arrivals") -> List[float]:
    """Due times (s from the window start) of ``rate_rps * seconds``
    arrivals: Poisson within each block of ``_ARRIVAL_BLOCK``, a fixed
    count per block.

    Given its count, a Poisson process on an interval is that many
    independent uniform points; drawing each block of 8 mean gaps that way
    keeps the arrivals bursty (two to five requests landing inside one
    service time is common) while every seed offers the same load over
    every 8/rate seconds, so the tail latency of a 10 s run is not decided
    by whether its seed happened to draw one long cluster.
    """
    rng = _rng(seed, name, stream)
    total = round(rate_rps * seconds)
    out: List[float] = []
    while len(out) < total:
        count = min(_ARRIVAL_BLOCK, total - len(out))
        start = len(out) / rate_rps
        out.extend(sorted(rng.uniform(start, start + count / rate_rps)
                          for _ in range(count)))
    return out
