"""Wall-clock benchmarks of the actual Python NTT kernels.

Unlike the figure benchmarks (which evaluate the device model), these
time the vectorized NumPy transforms themselves — the numbers a user of
this library experiences.  ``test_wallclock_json`` times the stacked
(packed-RNS) engine against the per-row reference at N = 4096, level 8
and records ops/sec into ``benchmarks/results/BENCH_wallclock.json``.
"""

import numpy as np
import pytest

from _wallclock import interleaved_median_ops, wallclock_payload
from repro.modmath import Modulus, gen_ntt_prime
from repro.ntt import get_tables, ntt_forward, ntt_forward_high_radix, ntt_inverse

RNG = np.random.default_rng(11)


def data(n, tables, batch=None):
    shape = (batch, n) if batch else (n,)
    return RNG.integers(0, tables.modulus.value, size=shape, dtype=np.uint64)


@pytest.fixture(scope="module", params=[1024, 4096, 8192])
def tables(request):
    n = request.param
    return get_tables(n, Modulus(gen_ntt_prime(50, n)))


def test_ntt_forward(benchmark, tables):
    x = data(tables.degree, tables)
    out = benchmark(ntt_forward, x, tables)
    assert out.shape == x.shape


def test_ntt_inverse(benchmark, tables):
    x = ntt_forward(data(tables.degree, tables), tables)
    out = benchmark(ntt_inverse, x, tables)
    assert out.shape == x.shape


def test_ntt_forward_lazy(benchmark, tables):
    """Lazy variant skips the final correction pass (paper's fusion)."""
    x = data(tables.degree, tables)
    out = benchmark(ntt_forward, x, tables, lazy=True)
    assert out.shape == x.shape


@pytest.mark.parametrize("radix", [4, 8, 16])
def test_ntt_high_radix(benchmark, tables, radix):
    x = data(tables.degree, tables)
    out = benchmark(ntt_forward_high_radix, x, tables, radix)
    assert np.array_equal(out, ntt_forward(x, tables))


def test_ntt_batched_rns8(benchmark, tables):
    """Batch of 8 transforms (one RNS level's worth)."""
    x = data(tables.degree, tables, batch=8)
    out = benchmark(ntt_forward, x, tables)
    assert out.shape == x.shape


def test_wallclock_json(quick, wallclock_record):
    """Record native/packed/serial NTT ops/sec at N = 4096, level 8.

    One "op" is a full 8-limb RNS stack transform (the unit the CKKS
    layer issues); "serial" is the per-row table
    (``use_backend("serial")``), "packed" the stacked NumPy engine, "native" the compiled fused-butterfly kernels (leg
    present only when a C toolchain is usable).  All legs are
    bit-identical (tests/test_packed_ab.py).
    """
    from _wallclock import backend_leg, backend_legs
    from repro.modmath import gen_ntt_primes
    from repro.ntt import NTTEngine
    from repro.rns import RNSBase

    n, k = 4096, 8
    base = RNSBase.from_values(gen_ntt_primes([30] + [23] * (k - 1), n))
    engine = NTTEngine(n, base)
    rng = np.random.default_rng(13)
    x = np.stack(
        [rng.integers(0, m.value, n, dtype=np.uint64) for m in base]
    )
    fwd = engine.forward(x, lazy=True)

    legs = backend_legs()
    reps = 5 if quick else 25
    medians = interleaved_median_ops(
        [
            ("ntt_forward",
             {b: backend_leg(b, lambda: engine.forward(x)) for b in legs}),
            ("ntt_forward_lazy",
             {b: backend_leg(b, lambda: engine.forward(x, lazy=True))
              for b in legs}),
            ("ntt_inverse",
             {b: backend_leg(b, lambda: engine.inverse(fwd)) for b in legs}),
        ],
        reps,
    )
    payload = wallclock_payload(medians)
    wallclock_record(
        "ntt", payload,
        {"degree": 4096, "level": 8, "reps": reps, "quick": bool(quick),
         "backends": legs},
    )
    for name, row in payload.items():
        for b in legs:
            assert row[f"{b}_ops_per_s"] > 0, (name, b)


def test_wallclock_scaling_json(quick, wallclock_record):
    """Cores-vs-throughput curve for the threaded native fwd NTT.

    Sweeps kernel-thread counts {1, 2, cpu} over the stacked forward
    transform at N = 4096, level 8, asserting thread count never changes
    the output (row-parallel kernels are bit-identical by construction)
    and — only when the host actually has >= 2 cpus — that two threads
    deliver >= 1.6x the single-thread rate.
    """
    import os

    from _wallclock import scaling_payload, thread_scaling_counts, thread_scaling_ops
    from repro import native
    from repro.modmath import gen_ntt_primes
    from repro.ntt import NTTEngine
    from repro.rns import RNSBase

    if not native.available():
        pytest.skip("native backend unavailable (no C toolchain)")

    n, k = 4096, 8
    base = RNSBase.from_values(gen_ntt_primes([30] + [23] * (k - 1), n))
    engine = NTTEngine(n, base)
    rng = np.random.default_rng(13)
    x = np.stack(
        [rng.integers(0, m.value, n, dtype=np.uint64) for m in base]
    )

    counts = thread_scaling_counts()
    with native.use_backend("native"):
        with native.use_threads(1):
            ref = engine.forward(x)
        for t in counts[1:]:
            with native.use_threads(t):
                assert np.array_equal(engine.forward(x), ref), t

    reps = 5 if quick else 25
    ops = thread_scaling_ops(lambda: engine.forward(x), counts, reps)
    payload = scaling_payload({"ntt_forward": ops})
    wallclock_record(
        "ntt_scaling", payload,
        {"degree": 4096, "level": 8, "reps": reps, "quick": bool(quick),
         "thread_counts": counts},
    )
    if (os.cpu_count() or 1) >= 2:
        # Full-rep floor 1.6x; the CI quick smoke (fewer reps, shared
        # 2-vCPU runner) keeps a noise-tolerant 1.2x.
        floor = 1.2 if quick else 1.6
        assert payload["ntt_forward"]["speedup_2t"] >= floor, payload
