"""Wall-clock benchmarks of the functional CKKS operations (N = 4096).

``test_wallclock_json`` additionally times the packed-RNS path against
the per-limb reference at the paper shape (N = 4096, level 8) and
records ops/sec for add / multiply / rescale into
``benchmarks/results/BENCH_wallclock.json`` (fewer reps under
``--quick`` for CI smoke runs).
"""

import numpy as np

from _wallclock import (
    interleaved_median_ops,
    paper_shape_context,
    random_ciphertext,
    wallclock_payload,
)


def fresh_pair(ckks_bench):
    enc = ckks_bench["encoder"]
    rng = ckks_bench["rng"]
    z = rng.normal(size=enc.slots)
    return ckks_bench["encryptor"].encrypt(enc.encode(z))


def test_encode(benchmark, ckks_bench):
    enc = ckks_bench["encoder"]
    z = ckks_bench["rng"].normal(size=enc.slots)
    benchmark(enc.encode, z)


def test_encrypt(benchmark, ckks_bench):
    enc = ckks_bench["encoder"]
    pt = enc.encode(ckks_bench["rng"].normal(size=enc.slots))
    benchmark(ckks_bench["encryptor"].encrypt, pt)


def test_decrypt_decode(benchmark, ckks_bench):
    ct = fresh_pair(ckks_bench)

    def run():
        return ckks_bench["encoder"].decode(ckks_bench["decryptor"].decrypt(ct))

    out = benchmark(run)
    assert out.shape == (ckks_bench["encoder"].slots,)


def test_add(benchmark, ckks_bench):
    a, b = fresh_pair(ckks_bench), fresh_pair(ckks_bench)
    benchmark(ckks_bench["evaluator"].add, a, b)


def test_multiply(benchmark, ckks_bench):
    a, b = fresh_pair(ckks_bench), fresh_pair(ckks_bench)
    benchmark(ckks_bench["evaluator"].multiply, a, b)


def test_mul_lin(benchmark, ckks_bench):
    """The paper's MulLin routine: multiply + relinearize."""
    ev = ckks_bench["evaluator"]
    a, b = fresh_pair(ckks_bench), fresh_pair(ckks_bench)

    def run():
        return ev.relinearize(ev.multiply(a, b), ckks_bench["relin"])

    out = benchmark(run)
    assert out.size == 2


def test_mul_lin_rs(benchmark, ckks_bench):
    ev = ckks_bench["evaluator"]
    a, b = fresh_pair(ckks_bench), fresh_pair(ckks_bench)

    def run():
        return ev.rescale(ev.relinearize(ev.multiply(a, b), ckks_bench["relin"]))

    out = benchmark(run)
    assert out.level == a.level - 1


def test_rotate(benchmark, ckks_bench):
    ev = ckks_bench["evaluator"]
    a = fresh_pair(ckks_bench)
    benchmark(ev.rotate, a, 1, ckks_bench["galois"])


def test_rescale(benchmark, ckks_bench):
    ev = ckks_bench["evaluator"]
    a, b = fresh_pair(ckks_bench), fresh_pair(ckks_bench)
    prod = ev.relinearize(ev.multiply(a, b), ckks_bench["relin"])
    benchmark.pedantic(
        lambda: ev.rescale(prod), rounds=20, iterations=1, warmup_rounds=2
    )


def test_wallclock_json(quick, wallclock_record):
    """Record native/packed/serial ops/sec at N = 4096, level 8.

    "serial" is the per-limb reference table (``use_backend("serial")``),
    "packed" the stacked NumPy table, "native" the compiled kernel backend
    (leg present only when a C toolchain is usable).  All legs compute
    bit-identical results (tests/test_packed_ab.py), so this is a pure
    execution-strategy comparison.
    """
    from _wallclock import backend_leg, backend_legs
    from repro.core import Evaluator
    from repro.core.ciphertext import Ciphertext

    params, context = paper_shape_context()
    ev = Evaluator(context)
    rng = np.random.default_rng(99)
    scale = float(params.scale)
    level = context.max_level
    a = random_ciphertext(rng, context, 2, level, scale)
    b = random_ciphertext(rng, context, 2, level, scale)
    rs_in = Ciphertext(
        random_ciphertext(rng, context, 2, level, scale).data, scale * scale
    )

    legs = backend_legs()
    reps = 5 if quick else 25
    medians = interleaved_median_ops(
        [
            ("add",
             {bk: backend_leg(bk, lambda: ev.add(a, b)) for bk in legs}),
            ("multiply",
             {bk: backend_leg(bk, lambda: ev.multiply(a, b)) for bk in legs}),
            ("rescale",
             {bk: backend_leg(bk, lambda: ev.rescale(rs_in)) for bk in legs}),
        ],
        reps,
    )
    payload = wallclock_payload(medians)
    wallclock_record(
        "he_ops", payload,
        {"degree": 4096, "level": 8, "reps": reps, "quick": bool(quick),
         "backends": legs},
    )
    for name, row in payload.items():
        for b in legs:
            assert row[f"{b}_ops_per_s"] > 0, (name, b)


def test_wallclock_tracing_overhead_json(quick, wallclock_record):
    """A/B the span-tracing probes on the ciphertext multiply.

    Tracing must be free when disabled (the probes reduce to one global
    ``None`` check) and cost < 5% when enabled — the instrumented path
    emits a few dozen kernel spans per multiply at the paper shape.
    The two legs interleave rep-by-rep toggling one long-lived tracer so
    allocator/cache drift hits both equally and tracer construction is
    not measured as span cost; minimums (the standard microbenchmark
    estimator) keep one-sided scheduler noise out of the ratio.
    """
    import time

    from repro.core import Evaluator
    from repro.obs import tracing

    params, context = paper_shape_context()
    ev = Evaluator(context)
    rng = np.random.default_rng(99)
    scale = float(params.scale)
    level = context.max_level
    a = random_ciphertext(rng, context, 2, level, scale)
    b = random_ciphertext(rng, context, 2, level, scale)

    def clocked():
        t0 = time.perf_counter()
        ev.multiply(a, b)
        return time.perf_counter() - t0

    assert tracing.get_tracer() is None, "tracing must start disabled"
    reps = 15 if quick else 40
    tracer = tracing.Tracer(capacity=128)
    clocked()  # warmup: buffers, backend resolution
    tracing.enable(tracer=tracer)
    clocked()  # warmup: tracer thread-locals
    tracing.disable()
    off, on = [], []
    try:
        for _ in range(reps):
            off.append(clocked())
            tracing.enable(tracer=tracer)
            on.append(clocked())
            tracing.disable()
    finally:
        tracing.disable()
    t_off = float(np.min(off))
    t_on = float(np.min(on))
    overhead = t_on / t_off - 1.0
    payload = {
        "multiply": {
            "off_ms": round(t_off * 1e3, 4),
            "on_ms": round(t_on * 1e3, 4),
            "off_ops_per_s": round(1.0 / t_off, 2),
            "on_ops_per_s": round(1.0 / t_on, 2),
            "overhead_pct": round(100.0 * overhead, 2),
        }
    }
    wallclock_record(
        "tracing_overhead", payload,
        {"degree": 4096, "level": 8, "reps": reps, "quick": bool(quick)},
    )
    assert overhead < 0.05, payload


def test_wallclock_scaling_json(quick, wallclock_record):
    """Cores-vs-throughput curve for the threaded ciphertext multiply.

    Same sweep as the NTT scaling bench but over the full
    ``Evaluator.multiply`` at the paper shape (N = 4096, level 8):
    thread count must never change the product, and with >= 2 real cpus
    two kernel threads must deliver >= 1.6x the single-thread rate.
    """
    import os

    import pytest

    from _wallclock import scaling_payload, thread_scaling_counts, thread_scaling_ops
    from repro import native
    from repro.core import Evaluator

    if not native.available():
        pytest.skip("native backend unavailable (no C toolchain)")

    params, context = paper_shape_context()
    ev = Evaluator(context)
    rng = np.random.default_rng(99)
    scale = float(params.scale)
    level = context.max_level
    a = random_ciphertext(rng, context, 2, level, scale)
    b = random_ciphertext(rng, context, 2, level, scale)

    counts = thread_scaling_counts()
    with native.use_backend("native"):
        with native.use_threads(1):
            ref = ev.multiply(a, b).data
        for t in counts[1:]:
            with native.use_threads(t):
                assert np.array_equal(ev.multiply(a, b).data, ref), t

    reps = 5 if quick else 25
    ops = thread_scaling_ops(lambda: ev.multiply(a, b), counts, reps)
    payload = scaling_payload({"multiply": ops})
    wallclock_record(
        "he_ops_scaling", payload,
        {"degree": 4096, "level": 8, "reps": reps, "quick": bool(quick),
         "thread_counts": counts},
    )
    if (os.cpu_count() or 1) >= 2:
        # Same floors as the NTT scaling bench: 1.6x full, 1.2x quick.
        floor = 1.2 if quick else 1.6
        assert payload["multiply"]["speedup_2t"] >= floor, payload
