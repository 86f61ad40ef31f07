"""``python -m repro native``: build, inspect and self-test the kernel library."""

from __future__ import annotations

import argparse

from .. import at_least


def cmd_native(args: argparse.Namespace) -> int:
    import contextlib
    import os
    import time

    import numpy as np

    from .. import native

    if args.threads is not None:
        native.set_threads(args.threads)

    print(f"backend resolved     : {native.get_backend()}")
    try:
        cc = native.find_compiler()
    except native.NativeBuildError as exc:
        cc = f"(none: {exc})"
    print(f"compiler             : {cc}")
    print(f"cache dir            : {native.cache_dir()}")
    if args.build:
        # Force-recompile whenever a toolchain exists — this must also
        # repair a corrupt/stale cached library that failed to load.
        try:
            native.build(force=True)
        except native.NativeBuildError as exc:
            print(f"build                : FAILED ({exc})")
            return 1
        native.reset()
    ok = native.available()
    print(f"kernel library       : "
          f"{native.library_path() if ok else 'unavailable'}")
    if not ok:
        print(f"reason               : {native.availability_error()}")
        return 1
    cpu = os.cpu_count() or 1
    print(f"kernel threads       : {native.get_threads()} "
          f"(host has {cpu} cpus)")
    if not args.self_test:
        return 0

    # Bit-identity at the acceptance shape, plus a timing probe.
    from ..core import CkksContext, CkksParameters, Evaluator
    from ..core.ciphertext import Ciphertext
    from ..modmath import gen_ntt_primes
    from ..ntt import get_stacked_tables, ntt_forward_stacked

    params = CkksParameters.default(degree=4096, levels=7, scale_bits=23,
                                    first_bits=30, special_bits=30)
    context = CkksContext(params)
    rng = np.random.default_rng(17)
    scale = float(params.scale)

    def rand_ct(size):
        data = np.empty((size, 8, 4096), dtype=np.uint64)
        for i in range(8):
            data[:, i] = rng.integers(0, context.modulus(i).value,
                                      (size, 4096), dtype=np.uint64)
        return Ciphertext(data, scale)

    a, b = rand_ct(2), rand_ct(2)
    rs_in = Ciphertext(rand_ct(2).data, scale * scale)
    ev = Evaluator(context)
    outs = {}
    for mode in ("native", "serial"):
        with native.use_backend(mode):
            outs[mode] = (ev.multiply(a, b).data, ev.rescale(rs_in).data)
    identical = all(
        np.array_equal(x, y) for x, y in zip(outs["native"], outs["serial"])
    )
    print(f"bit-identity         : "
          f"{'native == serial' if identical else 'MISMATCH'}")

    primes = gen_ntt_primes([30] + [23] * 7, 4096)
    tables = get_stacked_tables(4096, primes)
    x = np.stack([rng.integers(0, p, 4096, dtype=np.uint64) for p in primes])

    def forward():
        return ntt_forward_stacked(x, tables)

    def timed(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    def med(fn, reps=7):
        fn()
        return float(np.median([timed(fn) for _ in range(reps)]))

    def paired(fn, sides, reps=7):
        """Call times under each of two settings, from interleaved pairs."""
        times = ([], [])
        for rep in range(reps + 1):  # pair 0 warms both settings up
            for s in ((0, 1) if rep % 2 == 0 else (1, 0)):
                with sides[s]():
                    times[s].append(timed(fn))
        return np.array(times[0][1:]), np.array(times[1][1:])

    with native.use_backend("native"):
        t_nat = med(forward)
    with native.use_backend("serial"):
        t_serial = med(forward)
    speedup = t_serial / t_nat
    print(f"stacked fwd NTT      : native {t_nat * 1e3:.3f} ms vs serial "
          f"{t_serial * 1e3:.3f} ms ({speedup:.2f}x)")

    # The NTT rows the library chose at load; the AVX-512 rows are timed
    # against the scalar rows on the same forward NTT, in interleaved pairs.
    isa = native.ntt_isa()
    print(f"ntt rows             : {isa}")
    if isa == "avx512":
        with native.use_backend("native"), native.use_threads(1):
            t_simd, t_scalar = paired(
                forward, (contextlib.nullcontext, native.glue._scalar_ntt_rows))
        print(f"ntt rows fwd NTT     : avx512 {np.median(t_simd) * 1e3:.3f} ms "
              f"vs scalar {np.median(t_scalar) * 1e3:.3f} ms "
              f"({float(np.median(t_scalar / t_simd)):.2f}x)")

    # Cores-vs-throughput scaling probes: the fwd NTT and the ciphertext
    # multiply under 1, 2, ... kernel threads.  The multi-core floor only
    # binds when the host actually has more than one cpu.  The 1- and
    # 2-thread calls run in interleaved pairs, alternating which goes
    # first, and the floor gates the median per-pair ratio, so a change
    # in host load hits both sides of a pair alike.
    thread_ok = True
    widths = (lambda: native.use_threads(1), lambda: native.use_threads(2))
    for name, probe in (("fwd NTT", forward),
                        ("multiply", lambda: ev.multiply(a, b))):
        with native.use_backend("native"):
            t1, t2 = paired(probe, widths)
            scaling = {1: 1.0 / np.median(t1), 2: 1.0 / np.median(t2)}
            if cpu > 2:
                with native.use_threads(cpu):
                    scaling[cpu] = 1.0 / med(probe)
        line = ", ".join(f"t{t}={ops:,.0f} ops/s" for t, ops in scaling.items())
        if cpu >= 2:
            thread_speedup = float(np.median(t1 / t2))
            line += f" (2-thread {thread_speedup:.2f}x)"
            thread_ok = thread_ok and thread_speedup > 1.2
        print(f"thread scaling {name:<8}: {line}")
    ok = identical and speedup > 1.2 and thread_ok
    print(f"self-test: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def add_native(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--build", action="store_true",
                        help="force a (re)compile of the kernel library")
    parser.add_argument("--threads", type=at_least(1), default=None,
                        help="kernel worker threads (default: "
                             "REPRO_NATIVE_THREADS or cpu count)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify native/serial bit-identicality and a "
                             "native NTT speedup; nonzero exit on failure")
    parser.set_defaults(fn=cmd_native)
