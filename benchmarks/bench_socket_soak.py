"""Socket-soak bench: concurrent TCP serving latency under the pump.

Drives the online front end (:class:`repro.server.SocketServer`) with
50 concurrent TCP clients over localhost — real sockets, timer-driven
batching, no ``drain()`` anywhere — and records the end-to-end wall
latency distribution (submit to pushed response, per request) plus the
exactly-once accounting into ``benchmarks/results/socket_soak.json``
and the ``socket_soak`` section of ``BENCH_wallclock.json``.  The
accounting invariants must all hold: this bench doubles as the CI
socket-serving gate.
"""

import json
import threading
import time

import numpy as np

from repro.obs import percentile

N_CLIENTS = 50


def test_socket_soak_latency_json(quick, wallclock_record, results_dir):
    from repro.server import (
        BatchPolicy,
        HEServer,
        NetClient,
        ServeRequest,
        ServerClient,
        demo_deployment,
        encode_request,
        serve_in_background,
    )
    from repro.xesim import DEVICE1

    per_client = 1 if quick else 3
    degree = 256 if quick else 1024
    params, encoder, encryptor, decryptor, _relin = demo_deployment(
        degree=degree, seed=2022)
    server = HEServer(
        ServerClient.params_wire(params),
        devices=[(DEVICE1, 2)],
        policy=BatchPolicy(max_batch=8, window_us=500.0),
    )

    # Pre-encode every frame so the soak measures serving, not client
    # encryption.
    rng = np.random.default_rng(5)
    frames = {}
    for ci in range(N_CLIENTS):
        v = rng.normal(size=encoder.slots)
        ct = encryptor.encrypt(encoder.encode(v))
        frames[ci] = [
            (f"c{ci:02d}-{j}",
             encode_request(ServeRequest(f"c{ci:02d}-{j}", "add", [ct, ct])))
            for j in range(per_client)
        ]

    bg = serve_in_background(server, pump_ms=2.0)
    latencies_ms, errors = {}, []
    t0 = time.perf_counter()

    def run_client(ci):
        try:
            with NetClient(bg.host, bg.port) as cli:
                sent = {}
                for rid, frame in frames[ci]:
                    sent[rid] = time.perf_counter()
                    cli.submit_frame(frame)
                for resp in cli.collect(per_client, timeout_s=120.0):
                    assert resp.ok, (resp.request_id, resp.status, resp.error)
                    latencies_ms[resp.request_id] = (
                        (time.perf_counter() - sent[resp.request_id]) * 1e3)
        except Exception as exc:
            errors.append((ci, repr(exc)))

    threads = [threading.Thread(target=run_client, args=(ci,))
               for ci in frames]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=180.0)
    wall_s = time.perf_counter() - t0
    stats = bg.stats()
    bg.stop()

    total = N_CLIENTS * per_client
    assert errors == [], errors
    # Exactly-once over the transport: nothing lost, nothing duplicated.
    assert len(latencies_ms) == total
    assert stats["frames_in"] == total and stats["frames_out"] == total
    assert stats["undeliverable"] == 0

    lat = sorted(latencies_ms.values())
    summary = {
        "clients": N_CLIENTS,
        "requests": total,
        "degree": degree,
        "pump_ms": 2.0,
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(total / wall_s, 1),
        "latency_ms": {
            "mean": round(float(np.mean(lat)), 3),
            "p50": round(percentile(lat, 50), 3),
            "p90": round(percentile(lat, 90), 3),
            "p99": round(percentile(lat, 99), 3),
            "max": round(lat[-1], 3),
        },
        "lost": 0,
        "duplicated": 0,
        "peak_connections": stats["peak_connections"],
        "frame_errors": stats["frame_errors"],
    }
    out = results_dir / "socket_soak.json"
    out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"\n[socket-soak] {total} requests from {N_CLIENTS} clients in "
          f"{wall_s:.2f}s — p50 {summary['latency_ms']['p50']:.1f} ms, "
          f"p99 {summary['latency_ms']['p99']:.1f} ms -> {out}")
    wallclock_record("socket_soak", summary,
                     {"soak_quick": bool(quick), "clients": N_CLIENTS})
