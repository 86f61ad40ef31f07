"""Wall-clock benchmarks of the functional CKKS operations (N = 4096).

``test_tracing_overhead`` additionally A/Bs the span-tracing probes on
the ciphertext multiply at the paper shape (N = 4096, level 8).
"""

import numpy as np


def paper_shape_context():
    """The acceptance-criteria deployment: N = 4096, 8 ciphertext primes."""
    from repro.core import CkksContext, CkksParameters

    params = CkksParameters.default(
        degree=4096, levels=7, scale_bits=23, first_bits=30, special_bits=30
    )
    context = CkksContext(params)
    assert context.max_level == 8
    return params, context


def random_ciphertext(rng, context, size, level, scale):
    from repro.core.ciphertext import Ciphertext

    data = np.empty((size, level, context.degree), dtype=np.uint64)
    for i in range(level):
        data[:, i] = rng.integers(
            0, context.modulus(i).value, (size, context.degree), dtype=np.uint64
        )
    return Ciphertext(data, scale)


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


def test_tracing_overhead(quick):
    """A/B the span-tracing probes on the ciphertext multiply.

    Tracing must be free when disabled (the probes reduce to one global
    ``None`` check) and cost < 5% when enabled — the instrumented path
    emits one kernel span per multiply (one ``dyadic_product`` call).
    Each rep times one untraced and one traced multiply back to back,
    toggling one long-lived tracer so tracer construction is not
    measured as span cost, and alternates which leg runs first so
    neither always gets the warmer cache.  The estimate is the median
    of the per-pair ratios: both legs of a pair share the host's phase,
    so drift cancels, and the median ignores one-sided scheduler spikes.
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

    def clocked(traced):
        if traced:
            tracing.enable(tracer=tracer)
        try:
            t0 = time.perf_counter()
            ev.multiply(a, b)
            return time.perf_counter() - t0
        finally:
            tracing.disable()

    assert tracing.get_tracer() is None, "tracing must start disabled"
    reps = 61 if quick else 121
    tracer = tracing.Tracer(capacity=128)
    clocked(False)  # warmup: buffers, backend resolution
    clocked(True)  # warmup: tracer thread-locals
    off, on = [], []
    for rep in range(reps):
        for traced in (rep % 2 == 1, rep % 2 == 0):
            (on if traced else off).append(clocked(traced))
    overhead = float(np.median(np.array(on) / np.array(off))) - 1.0
    print(f"\ntracing overhead on multiply: off {np.median(off) * 1e3:.4f} "
          f"ms, on {np.median(on) * 1e3:.4f} ms, median paired ratio "
          f"{100.0 * overhead:+.2f}%")
    assert overhead < 0.05, (off, on)
