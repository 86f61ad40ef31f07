"""In-process workloads: the paper's five HE routines and its encrypted
matMul application, with no server anywhere.

One round = a fresh deployment (context + keygen: the set-up sample),
one warm-up pass, then timed invocations.  Each invocation is its own
timed window; verification sits between windows, so throughput is
invocations per second of evaluation, not of checking.
"""

from __future__ import annotations

import os
import time

import numpy as np

from . import proc
from .deploy import (
    DECRYPT_EVERY, TOLERANCE, Deployment, Pool, routine_call,
)
from .results import Round
from .schedule import VARIANTS
from .spec import Workload

__all__ = ["run_round", "matmul_blocks", "MATMUL_DIM"]

MATMUL_DIM = 2


def matmul_blocks(pool: Pool, variant: int):
    """Seeded ``A``, ``B`` (DIM x DIM blocks of slot vectors) and ``A @ B``."""
    n = len(pool.values)
    a = [[pool.values[(variant + i * MATMUL_DIM + l) % n]
          for l in range(MATMUL_DIM)] for i in range(MATMUL_DIM)]
    b = [[pool.values[(variant + 1 + l * MATMUL_DIM + j) % n]
          for j in range(MATMUL_DIM)] for l in range(MATMUL_DIM)]
    c = [[sum(a[i][l] * b[l][j] for l in range(MATMUL_DIM))
          for j in range(MATMUL_DIM)] for i in range(MATMUL_DIM)]
    return a, b, c


def _matmul(dep: Deployment, a, b):
    from repro.apps.matmul import run_encrypted_matmul
    from repro.xesim import DEVICE1

    return run_encrypted_matmul(
        a, b, encoder=dep.encoder, encryptor=dep.encryptor,
        decryptor=dep.decryptor, evaluator=dep.evaluator,
        relin_key=dep.relin, device=DEVICE1)


def _matmul_ok(out, want) -> bool:
    return all(float(np.abs(out[i][j].real - want[i][j]).max()) <= TOLERANCE
               for i in range(MATMUL_DIM) for j in range(MATMUL_DIM))


def _invocation(w: Workload, dep: Deployment, routines, pool: Pool,
                op: str, variant: int):
    """(call, check) for one invocation: ``call()`` is the timed window,
    ``check(result, decrypt)`` says whether its result is right."""
    if w.kind == "matmul":
        a, b, want = matmul_blocks(pool, variant)
        return (lambda: _matmul(dep, a, b),
                lambda got, _decrypt: _matmul_ok(got[0], want))
    exp = pool.expected[(op, variant)]

    def check(got, decrypt: bool) -> bool:
        if (got.scale != exp.result.scale
                or not np.array_equal(got.data, exp.result.data)):
            return False
        return not decrypt or float(
            np.abs(dep.decrypt(got) - exp.plain).max()) <= TOLERANCE

    return (lambda: routine_call(routines, op, exp)), check


def run_round(w: Workload, seed: int, seconds: float, round_no: int,
              pool: Pool) -> Round:
    from repro.core import HERoutines

    out = Round()
    t0 = time.perf_counter()
    dep = Deployment(w.degree, w.levels, seed)
    out.keygen_s = time.perf_counter() - t0
    routines = HERoutines(dep.evaluator, dep.relin, dep.galois)
    sim_compute_s = set()

    def invoke(i: int, timed: bool) -> None:
        op = w.ops[i % len(w.ops)]
        call, check = _invocation(
            w, dep, routines, pool, op,
            (i // len(w.ops) + round_no) % VARIANTS)
        cpu0, t_start = time.process_time(), time.perf_counter()
        got = call()
        t_end, cpu1 = time.perf_counter(), time.process_time()
        good = check(got, not timed or i % DECRYPT_EVERY == 0)
        if w.kind == "matmul":
            # the simulated device time is a count: it must repeat exactly
            sim_compute_s.add(got[1].compute_s)
            good = good and len(sim_compute_s) == 1
        if not timed:
            if not good:
                raise RuntimeError(f"warm-up {op} produced a wrong result")
            return
        latency_ms = (t_end - t_start) * 1e3
        out.attempted += 1
        out.wall_s += t_end - t_start
        out.server_cpu_s += cpu1 - cpu0
        out.latencies_ms.append(latency_ms)
        out.latencies_by_op.setdefault(op, []).append(latency_ms)
        if good:
            out.ok += 1
            out.slo_met += latency_ms <= w.slo_ms
        else:
            out.mismatch += 1

    for i in range(len(w.ops)):
        invoke(i, timed=False)
    out.setup_s = time.perf_counter() - t0

    own0 = time.process_time()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < w.round_cap and time.perf_counter() < deadline:
        invoke(i, timed=True)
        i += 1
    out.loadgen_cpu_s = time.process_time() - own0 - out.server_cpu_s
    out.failed = out.attempted - out.ok
    out.rss_kb = proc.peak_rss_kb(os.getpid())
    return out
