"""``python -m repro serve`` and ``metrics``: the serving subsystem's CLI.

``serve`` runs the demo deployment on the shared synthetic traffic
recipe (:mod:`repro.server.traffic`), or with ``--listen HOST:PORT``
serves the wire protocol over TCP in the foreground.
"""

from __future__ import annotations

import argparse

from .. import at_least, power_of_two


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

    from .net import SocketServer

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

    from ..gpu.profiles import GpuConfig
    from ..obs import tracing
    from ..xesim import DEVICE1, DEVICE2
    from . import (
        AdmissionPolicy,
        BatchPolicy,
        HEServer,
        TenantFairness,
        TenantPolicy,
    )
    from .traffic import (
        demo_deployment,
        demo_params,
        mixed_square_multiply_traffic,
    )

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

    admission = (AdmissionPolicy(rate_rps=args.admission_rate,
                                 burst=args.admission_burst,
                                 max_backlog=args.admission_backlog)
                 if args.admission else None)
    fairness = (TenantFairness(TenantPolicy(rate_rps=args.tenant_rate,
                                            burst=args.tenant_burst))
                if args.tenant_rate > 0 else None)
    server = HEServer(
        demo_params(args.degree),
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
    _params, encoder, encryptor, decryptor, relin_wire = demo_deployment(
        degree=args.degree, seed=args.seed)
    server.install_relin_key(relin_wire)
    # Bursty synthetic traffic: the gap tracks the batching budget but is
    # capped so a huge --window-us still exercises batching (batches then
    # close by size) instead of spreading arrivals over the whole window.
    # Every fourth request is urgent (priority 1): the batcher front-runs
    # it inside its window.
    frames = mixed_square_multiply_traffic(
        encoder, encryptor, requests=args.requests,
        rng=np.random.default_rng(args.seed),
        mean_gap_us=min(args.window_us / args.max_batch, 50.0),
        priority_cycle=(1, 0, 0, 0),
    )
    for _rid, wire, arrival_us, _expected in frames:
        server.submit(wire, arrival_us=arrival_us)

    replay = server.request_log
    first_yield_us = None
    if args.stream:
        for resp in server.stream():
            if first_yield_us is None:
                first_yield_us = resp.yielded_at_us
    else:
        server.drain()
    baseline_s = server.serial_baseline_time_s(replay)
    batched_s = server.metrics.span_us * 1e-6
    speedup = baseline_s / batched_s if batched_s > 0 else float("inf")

    worst = 0.0
    failures = 0
    shed = 0
    terminal = 0
    for rid, _wire, _arrival_us, expected in frames:
        resp = server.response(rid)
        terminal += 1
        if resp.status == "overloaded":
            shed += 1
            continue
        if not resp.ok:
            failures += 1
            continue
        decoded = encoder.decode(decryptor.decrypt(resp.result))
        worst = max(worst, float(np.abs(decoded.real - expected).max()))
    server.close()

    print(f"pool: {', '.join(f'{d.name} x{t}' for d, t in devices)}")
    print(server.metrics.render())
    print(f"serial sync baseline : {baseline_s * 1e3:.3f} ms "
          f"-> batched async {batched_s * 1e3:.3f} ms "
          f"({speedup:.2f}x)")
    served = [server.response(rid) for rid, _, _, _ in frames]
    completes = sorted({r.complete_us for r in served if r.ok})
    if args.stream and first_yield_us is not None:
        barrier_us = completes[-1] if completes else first_yield_us
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
        if args.stream and first_yield_us is not None and len(completes) > 1:
            ok = ok and first_yield_us < completes[-1]
        print(f"self-test: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    import json

    import numpy as np

    from . import (
        AdmissionPolicy,
        demo_deployment,
        mixed_square_multiply_traffic,
        serve_traffic,
    )

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


def add_serve(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--requests", type=at_least(1), default=24,
                        help="synthetic requests to serve (default 24)")
    parser.add_argument("--devices", default="both",
                        choices=["device1", "device2", "both", "dual-device2"],
                        help="simulated device pool (default both)")
    parser.add_argument("--max-batch", type=at_least(1), default=8,
                        help="batch size budget (default 8)")
    parser.add_argument("--window-us", type=at_least(0, float), default=200.0,
                        help="batching latency budget in us (default 200)")
    parser.add_argument("--degree", type=power_of_two, default=1024,
                        help="CKKS ring degree (default 1024; test-scale)")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--fusion", action="store_true",
                        help="enable the kernel-fusion compiler in the "
                             "dispatcher (repro.fusion)")
    parser.add_argument("--stream", action="store_true",
                        help="release responses per-request as tiles finish "
                             "instead of at the drain barrier (same pump "
                             "ticks: identical results and batch stamps)")
    parser.add_argument("--admission", action="store_true",
                        help="enable token-bucket + backlog admission "
                             "control (typed 'overloaded' responses)")
    parser.add_argument("--admission-rate",
                        type=at_least(0, float, strict=True), default=20_000.0,
                        help="admission token refill rate in req/s "
                             "(default 20000; size to modelled capacity)")
    parser.add_argument("--admission-burst", type=at_least(1), default=8,
                        help="admission token-bucket depth (default 8)")
    parser.add_argument("--admission-backlog", type=at_least(1), default=16,
                        help="modelled backlog bound in requests (default 16)")
    parser.add_argument("--workers", type=at_least(0), default=0,
                        help="evaluation worker threads (0/1 = inline; "
                             ">=2 fans batch math across a pool)")
    parser.add_argument("--listen", metavar="HOST:PORT", default=None,
                        help="serve the wire protocol over TCP in the "
                             "foreground instead of running synthetic "
                             "traffic (port 0 = ephemeral)")
    parser.add_argument("--pump-ms", type=at_least(0, float, strict=True),
                        default=5.0,
                        help="batch pump idle heartbeat in ms for --listen "
                             "(default 5; batches close at their cut)")
    parser.add_argument("--tenant-rate", type=at_least(0, float), default=0.0,
                        help="per-tenant token refill rate in req/s "
                             "(0 = no per-tenant fairness)")
    parser.add_argument("--tenant-burst", type=at_least(1), default=8,
                        help="per-tenant token-bucket depth (default 8)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="enable span tracing and write a Chrome "
                             "trace_event JSON to PATH (load in "
                             "chrome://tracing or ui.perfetto.dev)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify results + speedup; nonzero exit on failure")
    parser.set_defaults(fn=cmd_serve)


def add_metrics(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--requests", type=at_least(1), default=16,
                        help="synthetic requests to serve (default 16)")
    parser.add_argument("--workers", type=int, default=2,
                        help="evaluation worker threads (default 2)")
    parser.add_argument("--degree", type=power_of_two, default=1024,
                        help="CKKS ring degree (default 1024; test-scale)")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--json", action="store_true",
                        help="structured JSON snapshot instead of "
                             "Prometheus text")
    parser.set_defaults(fn=cmd_metrics)
