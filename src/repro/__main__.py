"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures [ids...]``
    Regenerate paper figures/tables (all by default) and print the
    paper-vs-measured report for each.
``calibration``
    Recompute the 18 NTT-level calibration metrics and show band status.
``devices``
    Print the modelled device specifications.
``serve``
    Run the batched HE serving subsystem on synthetic traffic and report
    latency/throughput vs. the unbatched synchronous baseline.
    ``--self-test`` additionally verifies every decrypted result and
    exits non-zero unless batched-async beats the baseline.
    ``--fusion`` enables the kernel-fusion compiler in the dispatcher;
    ``--stream`` releases responses per-request as tiles finish (same
    pump ticks as the barrier: identical results and batch stamps);
    ``--admission`` arms the token-bucket + backlog overload gate
    (``--admission-rate/-burst/-backlog``), under which the self-test
    checks exactly-one-terminal-response accounting instead of speedup.
    ``--listen HOST:PORT`` skips the synthetic run and serves the
    length-prefixed wire protocol over TCP in the foreground, batches
    closed by the same ``pump_once`` loop the moment their cut is reached
    (``--pump-ms`` is the idle heartbeat); ``--tenant-rate``
    /``--tenant-burst`` arm per-client token buckets with
    priority-eviction shedding on top of ``--admission``.
``fuse``
    Exercise the kernel-fusion compiler (``repro.fusion``): print the
    fused-vs-raw launch/time breakdown of a routine chain, then serve
    the same multi-request batch with fusion off and on and compare.
    ``--self-test`` verifies fused launches and simulated time strictly
    drop while decrypted results stay bit-identical; exits non-zero
    otherwise.
``native``
    Build/inspect the compiled kernel backend (``repro.native``): print
    the resolved backend, compiler, and cache state; ``--build`` forces
    a (re)compile; ``--self-test`` verifies native/serial
    bit-identicality at the paper shape (N=4096, level 8) plus a native
    speedup on the stacked NTT and, on hosts with >= 2 cpus, a 2-thread
    speedup on the fwd NTT and the ciphertext multiply; exits non-zero
    on failure or when no toolchain is available.
``metrics``
    Serve a small synthetic workload (workers + admission on) and print
    the full observability snapshot — Prometheus text by default,
    ``--json`` for the structured form.
``info``
    Version and package inventory.
"""

from __future__ import annotations

import argparse
import sys


def cmd_figures(args: argparse.Namespace) -> int:
    from .analysis import ALL_FIGURES, render_figure

    names = args.ids or sorted(ALL_FIGURES)
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        print(f"unknown figure ids: {unknown}; known: {sorted(ALL_FIGURES)}")
        return 2
    for name in names:
        fig = ALL_FIGURES[name]()
        print(render_figure(fig))
        print()
    return 0


def cmd_calibration(_args: argparse.Namespace) -> int:
    from .xesim.calibration import TARGET_MAP, compute_metrics

    metrics = compute_metrics()
    width = max(len(k) for k in metrics)
    bad = 0
    for key, value in metrics.items():
        t = TARGET_MAP[key]
        ok = t.ok(value)
        bad += not ok
        flag = "ok " if ok else "OUT"
        print(f"{flag} {key.ljust(width)} measured={value:8.4f} "
              f"paper={t.paper_value:8.4f} band=[{t.lo}, {t.hi}]  ({t.source})")
    print(f"\n{len(metrics) - bad}/{len(metrics)} calibration targets in band")
    return 1 if bad else 0


def cmd_devices(_args: argparse.Namespace) -> int:
    from .xesim import DEVICE1, DEVICE2

    for dev in (DEVICE1, DEVICE2):
        print(f"{dev.name}:")
        print(f"  tiles x EUs      : {dev.tiles} x {dev.eus_per_tile}")
        print(f"  frequency        : {dev.freq_ghz} GHz")
        print(f"  int64 peak       : {dev.peak_int64_gops():,.0f} Gop/s (machine)")
        print(f"  DRAM bandwidth   : {dev.bandwidth_gbs(dev.tiles):,.0f} GB/s")
        print(f"  SLM / sub-slice  : {dev.slm_bytes_per_subslice // 1024} KB")
        print(f"  GRF / thread     : {dev.grf_bytes_per_thread} B "
              f"({dev.grf_bytes_per_lane()} B/lane at SIMD-"
              f"{dev.compiled_simd_width})")
        print()
    return 0


def _parse_listen(spec: str) -> tuple:
    """``HOST:PORT`` -> (host, port); raises ValueError on a bad spec."""
    host, sep, port_s = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"--listen wants HOST:PORT, got {spec!r}")
    port = int(port_s)  # ValueError propagates with the bad literal
    if not 0 <= port <= 65535:
        raise ValueError(f"--listen port out of range: {port}")
    return host, port


def _serve_listen(args: argparse.Namespace, server) -> int:
    """Foreground socket serving: pump-driven batches, Ctrl-C to stop."""
    import asyncio

    from .server.net import SocketServer

    host, port = _parse_listen(args.listen)
    sock = SocketServer(server, host=host, port=port, pump_ms=args.pump_ms)

    async def _amain() -> None:
        await sock.start()
        print(f"serving on {sock.host}:{sock.port} "
              f"(pump at batch cuts, idle heartbeat {args.pump_ms:g} ms, "
              f"max_batch {args.max_batch}, window {args.window_us:g} us); "
              f"Ctrl-C to stop", flush=True)
        try:
            await sock.serve_forever()
        finally:
            await sock.aclose()

    try:
        asyncio.run(_amain())
    except KeyboardInterrupt:
        pass
    stats = sock.stats()
    print(f"\nserve: closed — {stats['frames_in']} frames in, "
          f"{stats['frames_out']} out, {stats['frame_errors']} frame errors, "
          f"{stats['dropped_connections']} dropped connections")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import numpy as np

    from .core import (
        CkksContext,
        CkksEncoder,
        CkksParameters,
        Decryptor,
        Encryptor,
        KeyGenerator,
    )
    from .obs import tracing
    from .server import (
        AdmissionPolicy,
        BatchPolicy,
        HEServer,
        ServerClient,
        TenantFairness,
        TenantPolicy,
    )
    from .xesim import DEVICE1, DEVICE2

    if args.requests < 1:
        print("serve: --requests must be >= 1")
        return 2
    if args.max_batch < 1:
        print("serve: --max-batch must be >= 1")
        return 2
    if args.window_us < 0:
        print("serve: --window-us must be >= 0")
        return 2
    if args.workers < 0:
        print("serve: --workers must be >= 0")
        return 2
    if args.pump_ms <= 0:
        print("serve: --pump-ms must be > 0")
        return 2
    if args.tenant_rate < 0:
        print("serve: --tenant-rate must be >= 0 (0 disables)")
        return 2
    if args.listen is not None:
        try:
            _parse_listen(args.listen)
        except ValueError as exc:
            print(f"serve: {exc}")
            return 2

    if args.trace:
        tracing.enable()

    pools = {
        "device1": [(DEVICE1, 2)],
        "device2": [(DEVICE2, 1)],
        "both": [(DEVICE1, 2), (DEVICE2, 1)],
        "dual-device2": [(DEVICE2, 1), (DEVICE2, 1)],
    }
    devices = pools[args.devices]

    from .gpu.profiles import GpuConfig

    params = CkksParameters.default(degree=args.degree, levels=3,
                                    scale_bits=30, first_bits=50,
                                    special_bits=50)
    admission = (AdmissionPolicy(rate_rps=args.admission_rate,
                                 burst=args.admission_burst,
                                 max_backlog=args.admission_backlog)
                 if args.admission else None)
    fairness = (TenantFairness(TenantPolicy(rate_rps=args.tenant_rate,
                                            burst=args.tenant_burst))
                if args.tenant_rate > 0 else None)
    server = HEServer(
        ServerClient.params_wire(params),
        devices=devices,
        policy=BatchPolicy(max_batch=args.max_batch,
                           window_us=args.window_us),
        gpu_config=GpuConfig(ntt_variant="local-radix-8", asm=True,
                             kernel_fusion=args.fusion),
        admission=admission,
        tenant_fairness=fairness,
        workers=args.workers,
    )
    if args.listen is not None:
        return _serve_listen(args, server)
    context = CkksContext(params)
    keygen = KeyGenerator(context, seed=args.seed)
    encoder = CkksEncoder(context)
    client = ServerClient(
        server,
        encoder=encoder,
        encryptor=Encryptor(context, keygen.public_key(), seed=args.seed + 1),
        decryptor=Decryptor(context, keygen.secret_key()),
    )
    # Per-client session keys through the wire handshake (RPRH/RPRA).
    client.open_session(
        relin_key=keygen.relin_key(),
        galois_keys=keygen.galois_keys([1, 2], include_conjugate=False),
    )

    rng = np.random.default_rng(args.seed)
    inputs = {}
    # Bursty synthetic traffic: the gap tracks the batching budget but is
    # capped so a huge --window-us still exercises batching (batches then
    # close by size) instead of spreading arrivals over the whole window.
    mean_gap_us = min(args.window_us / args.max_batch, 50.0)
    t_us = 0.0
    for i in range(args.requests):
        t_us += rng.exponential(mean_gap_us)
        # Every fourth request is urgent (priority 1): the batcher
        # front-runs it inside its window.
        priority = 1 if i % 4 == 0 else 0
        if i % 3 == 2:
            a = rng.normal(size=encoder.slots)
            b = rng.normal(size=encoder.slots)
            rid = client.submit_multiply(a, b, arrival_us=t_us,
                                         priority=priority)
            inputs[rid] = a * b
        else:
            v = rng.normal(size=encoder.slots)
            rid = client.submit_square(v, arrival_us=t_us,
                                       priority=priority)
            inputs[rid] = v * v

    replay = server.request_log
    first_yield_us = None
    if args.stream:
        for resp in client.stream():
            if first_yield_us is None:
                first_yield_us = resp.yielded_at_us
    else:
        client.serve()
    baseline_s = server.serial_baseline_time_s(replay)
    batched_s = server.metrics.span_us * 1e-6
    speedup = baseline_s / batched_s if batched_s > 0 else float("inf")

    worst = 0.0
    failures = 0
    shed = 0
    terminal = 0
    for rid, expected in inputs.items():
        resp = client.response(rid)
        terminal += 1
        if resp.status == "overloaded":
            shed += 1
            continue
        if not resp.ok:
            failures += 1
            continue
        worst = max(worst, float(np.abs(client.result(rid).real
                                        - expected).max()))
    server.close()

    print(f"pool: {', '.join(f'{d.name} x{t}' for d, t in devices)}")
    print(server.metrics.render())
    print(f"serial sync baseline : {baseline_s * 1e3:.3f} ms "
          f"-> batched async {batched_s * 1e3:.3f} ms "
          f"({speedup:.2f}x)")
    if args.stream and first_yield_us is not None:
        barrier_us = max(
            (r.complete_us for r in (client.response(rid)
                                     for rid in inputs)
             if r.ok), default=first_yield_us,
        )
        print(f"streaming            : first response at "
              f"{first_yield_us / 1e3:.3f} ms vs barrier release "
              f"{barrier_us / 1e3:.3f} ms")
    print(f"worst decrypt error  : {worst:.2e} "
          f"({failures} failures, {shed} shed)")
    if args.trace:
        from pathlib import Path

        tracer = tracing.get_tracer()
        Path(args.trace).write_text(tracer.chrome_trace_json())
        print(f"trace                : {len(tracer)} spans -> {args.trace} "
              f"(chrome://tracing / ui.perfetto.dev)")
        print()
        print(tracer.summary())
        tracing.disable()

    if args.self_test:
        ok = (failures == 0 and worst < 1e-3
              and terminal == args.requests)
        if admission is not None:
            # Overload semantics: every request gets exactly one terminal
            # response; accepted ones decrypt correctly.
            ok = ok and shed + server.metrics.count == args.requests
        else:
            ok = ok and shed == 0 and speedup > 1.0
        if args.stream and first_yield_us is not None:
            served = [client.response(rid) for rid in inputs]
            completes = sorted({r.complete_us for r in served if r.ok})
            if len(completes) > 1:
                ok = ok and first_yield_us < completes[-1]
        print(f"self-test: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def cmd_fuse(args: argparse.Namespace) -> int:
    import numpy as np

    from .analysis import fusion_breakdown
    from .gpu.profiles import GpuConfig, GpuOpProfiler
    from .server import (
        demo_deployment,
        mixed_square_multiply_traffic,
        serve_traffic,
    )
    from .xesim import DEVICE1

    if args.requests < 2:
        print("fuse: --requests must be >= 2 (cross-request batching "
              "needs a batch)")
        return 2

    # -- 1. chain-level: one routine through the planner --------------------
    print(f"== routine chain: MulLinRS, n=32768, L=8, {DEVICE1.name} ==")
    for stage in ("naive", "opt-NTT+asm"):
        profiler = GpuOpProfiler(32768, DEVICE1, GpuConfig.stage(stage))
        bd = fusion_breakdown(profiler.routine("MulLinRS", 8), DEVICE1)
        print(f"-- stage {stage} --")
        print(bd.render())
    print()

    # -- 2. server-level: same multi-request batch, fusion off vs on --------
    params, encoder, encryptor, decryptor, relin_wire = demo_deployment(
        degree=args.degree, seed=args.seed)

    frames = mixed_square_multiply_traffic(
        encoder, encryptor, requests=args.requests,
        rng=np.random.default_rng(args.seed),
    )

    off, on = (
        serve_traffic(params, frames, kernel_fusion=fusion,
                      relin_wire=relin_wire, max_batch=args.max_batch)
        for fusion in (False, True)
    )
    span_off = off.metrics.span_us
    span_on = on.metrics.span_us
    all_ok = all(off.response(rid).ok and on.response(rid).ok
                 for rid, _, _, _ in frames)
    identical = all_ok and all(
        np.array_equal(off.response(rid).result.data,
                       on.response(rid).result.data)
        for rid, _, _, _ in frames
    )
    # A failed response has no result blob: worst stays infinite so the
    # self-test reports FAIL instead of crashing on a None dereference.
    worst = max(
        float(np.abs(encoder.decode(
            decryptor.decrypt(on.response(rid).result)).real
            - expected).max())
        for rid, _, _, expected in frames
    ) if all_ok else float("inf")

    print(f"== server batch: {args.requests} requests, degree {args.degree}, "
          f"{DEVICE1.name} x2 tiles ==")
    print(f"launches    : {off.metrics.fused_launches} unfused -> "
          f"{on.metrics.fused_launches} fused "
          f"({100 * on.metrics.launch_reduction:.0f}% removed, "
          f"raw {on.metrics.raw_launches})")
    print(f"span        : {span_off / 1e3:.3f} ms unfused -> "
          f"{span_on / 1e3:.3f} ms fused "
          f"({span_off / span_on if span_on else float('inf'):.2f}x)")
    print(f"results     : {'bit-identical' if identical else 'MISMATCH'} "
          f"(fusion on vs off)")
    print(f"worst error : {worst:.2e} (fused, vs plaintext reference)")

    if args.self_test:
        ok = (identical
              and worst < 1e-3
              and on.metrics.fused_launches < on.metrics.raw_launches
              and on.metrics.fused_launches < off.metrics.fused_launches
              and span_on < span_off)
        print(f"self-test: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def cmd_native(args: argparse.Namespace) -> int:
    import contextlib
    import os
    import time

    import numpy as np

    from . import native

    if args.threads is not None:
        if args.threads < 1:
            print("native: --threads must be >= 1")
            return 2
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
    from .core import CkksContext, CkksParameters, Evaluator
    from .core.ciphertext import Ciphertext
    from .modmath import gen_ntt_primes
    from .ntt import get_stacked_tables, ntt_forward_stacked

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


def cmd_metrics(args: argparse.Namespace) -> int:
    import json

    import numpy as np

    from .server import (
        AdmissionPolicy,
        demo_deployment,
        mixed_square_multiply_traffic,
        serve_traffic,
    )

    if args.requests < 1:
        print("metrics: --requests must be >= 1")
        return 2

    params, encoder, encryptor, _decryptor, relin_wire = demo_deployment(
        degree=args.degree, seed=args.seed)
    frames = mixed_square_multiply_traffic(
        encoder, encryptor, requests=args.requests,
        rng=np.random.default_rng(args.seed), priority_cycle=(1, 0),
    )
    # Generous admission: the gate is armed (so its series exist) but the
    # demo traffic is all admitted.
    admission = AdmissionPolicy(rate_rps=100_000.0,
                                burst=max(args.requests, 8),
                                max_backlog=max(2 * args.requests, 16))
    server = serve_traffic(params, frames, relin_wire=relin_wire,
                           admission=admission, workers=args.workers)
    try:
        if args.json:
            print(json.dumps(server.metrics_snapshot("json"),
                             indent=2, sort_keys=True))
        else:
            print(server.metrics_snapshot("prometheus"), end="")
    finally:
        server.close()
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .faults.chaos import ChaosConfig, run_chaos

    if args.quick:
        cfg = ChaosConfig.quick(seed=args.seed)
    else:
        cfg = ChaosConfig(seed=args.seed)
    overrides = {}
    if args.requests is not None:
        overrides["requests"] = args.requests
    if args.workers is not None:
        overrides["workers"] = args.workers
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
    report = run_chaos(cfg)
    print(report.render())
    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report.to_json() + "\n")
        print(f"chaos: summary -> {out}")
    return 0 if report.ok else 1


def cmd_info(_args: argparse.Namespace) -> int:
    from . import __version__

    print(f"repro {__version__} — reproduction of 'Accelerating Encrypted "
          f"Computing on Intel GPUs' (IPDPS 2022, arXiv:2109.14704)")
    print("packages: modmath rns ntt native xesim runtime core gpu server "
          "apps analysis obs")
    print("docs: README.md ROADMAP.md CHANGES.md")
    return 0


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="XeHE reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command")

    p_fig = sub.add_parser("figures", help="regenerate paper figures")
    p_fig.add_argument("ids", nargs="*", help="figure ids (default: all)")
    p_fig.set_defaults(fn=cmd_figures)

    p_cal = sub.add_parser("calibration", help="check model calibration bands")
    p_cal.set_defaults(fn=cmd_calibration)

    p_dev = sub.add_parser("devices", help="print modelled device specs")
    p_dev.set_defaults(fn=cmd_devices)

    p_srv = sub.add_parser("serve", help="run the batched HE serving subsystem")
    p_srv.add_argument("--requests", type=int, default=24,
                       help="synthetic requests to serve (default 24)")
    p_srv.add_argument("--devices", default="both",
                       choices=["device1", "device2", "both", "dual-device2"],
                       help="simulated device pool (default both)")
    p_srv.add_argument("--max-batch", type=int, default=8,
                       help="batch size budget (default 8)")
    p_srv.add_argument("--window-us", type=float, default=200.0,
                       help="batching latency budget in us (default 200)")
    p_srv.add_argument("--degree", type=int, default=1024,
                       help="CKKS ring degree (default 1024; test-scale)")
    p_srv.add_argument("--seed", type=int, default=2022)
    p_srv.add_argument("--fusion", action="store_true",
                       help="enable the kernel-fusion compiler in the "
                            "dispatcher (repro.fusion)")
    p_srv.add_argument("--stream", action="store_true",
                       help="release responses per-request as tiles finish "
                            "instead of at the drain barrier (same pump "
                            "ticks: identical results and batch stamps)")
    p_srv.add_argument("--admission", action="store_true",
                       help="enable token-bucket + backlog admission "
                            "control (typed 'overloaded' responses)")
    p_srv.add_argument("--admission-rate", type=float, default=20_000.0,
                       help="admission token refill rate in req/s "
                            "(default 20000; size to modelled capacity)")
    p_srv.add_argument("--admission-burst", type=int, default=8,
                       help="admission token-bucket depth (default 8)")
    p_srv.add_argument("--admission-backlog", type=int, default=16,
                       help="modelled backlog bound in requests (default 16)")
    p_srv.add_argument("--workers", type=int, default=0,
                       help="evaluation worker threads (0/1 = inline; "
                            ">=2 fans batch math across a pool)")
    p_srv.add_argument("--listen", metavar="HOST:PORT", default=None,
                       help="serve the wire protocol over TCP in the "
                            "foreground instead of running synthetic "
                            "traffic (port 0 = ephemeral)")
    p_srv.add_argument("--pump-ms", type=float, default=5.0,
                       help="batch pump idle heartbeat in ms for --listen "
                            "(default 5; batches close at their cut)")
    p_srv.add_argument("--tenant-rate", type=float, default=0.0,
                       help="per-tenant token refill rate in req/s "
                            "(0 = no per-tenant fairness)")
    p_srv.add_argument("--tenant-burst", type=int, default=8,
                       help="per-tenant token-bucket depth (default 8)")
    p_srv.add_argument("--trace", metavar="PATH", default=None,
                       help="enable span tracing and write a Chrome "
                            "trace_event JSON to PATH (load in "
                            "chrome://tracing or ui.perfetto.dev)")
    p_srv.add_argument("--self-test", action="store_true",
                       help="verify results + speedup; nonzero exit on failure")
    p_srv.set_defaults(fn=cmd_serve)

    p_fuse = sub.add_parser("fuse", help="exercise the kernel-fusion compiler")
    p_fuse.add_argument("--requests", type=int, default=12,
                        help="synthetic requests in the A/B batch (default 12)")
    p_fuse.add_argument("--max-batch", type=int, default=8,
                        help="batch size budget (default 8)")
    p_fuse.add_argument("--degree", type=int, default=1024,
                        help="CKKS ring degree (default 1024; test-scale)")
    p_fuse.add_argument("--seed", type=int, default=2022)
    p_fuse.add_argument("--self-test", action="store_true",
                        help="verify launches/time drop and results stay "
                             "bit-identical; nonzero exit on failure")
    p_fuse.set_defaults(fn=cmd_fuse)

    p_nat = sub.add_parser("native", help="build/inspect the compiled "
                                          "kernel backend")
    p_nat.add_argument("--build", action="store_true",
                       help="force a (re)compile of the kernel library")
    p_nat.add_argument("--threads", type=int, default=None,
                       help="kernel worker threads (default: "
                            "REPRO_NATIVE_THREADS or cpu count)")
    p_nat.add_argument("--self-test", action="store_true",
                       help="verify native/serial bit-identicality and a "
                            "native NTT speedup; nonzero exit on failure")
    p_nat.set_defaults(fn=cmd_native)

    p_met = sub.add_parser("metrics", help="serve a demo workload and print "
                                           "the metrics snapshot")
    p_met.add_argument("--requests", type=int, default=16,
                       help="synthetic requests to serve (default 16)")
    p_met.add_argument("--workers", type=int, default=2,
                       help="evaluation worker threads (default 2)")
    p_met.add_argument("--degree", type=int, default=1024,
                       help="CKKS ring degree (default 1024; test-scale)")
    p_met.add_argument("--seed", type=int, default=2022)
    p_met.add_argument("--json", action="store_true",
                       help="structured JSON snapshot instead of "
                            "Prometheus text")
    p_met.set_defaults(fn=cmd_metrics)

    p_chaos = sub.add_parser(
        "chaos", help="fault-injection soak: serve mixed traffic under a "
                      "seeded fault plan and assert resilience invariants")
    p_chaos.add_argument("--seed", type=int, default=8,
                         help="fault plan + traffic seed (default 8)")
    p_chaos.add_argument("--requests", type=int, default=None,
                         help="override the request count")
    p_chaos.add_argument("--workers", type=int, default=None,
                         help="override the evaluation pool width")
    p_chaos.add_argument("--quick", action="store_true",
                         help="CI-sized soak (200 requests, degree 256)")
    p_chaos.add_argument("--json", default=None, metavar="PATH",
                         help="also write the summary JSON to PATH")
    p_chaos.set_defaults(fn=cmd_chaos)

    p_info = sub.add_parser("info", help="version and inventory")
    p_info.set_defaults(fn=cmd_info)

    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_help()
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
