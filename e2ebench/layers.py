"""The traced run: per-layer metrics measured from outside.

Three sources, all on the workload's own shape and seeded inputs:

* one *path round* of the workload itself (what the load generator and
  the client saw, the server process's start time and memory growth);
* an in-process *replay* of the request stream through
  ``encode_request -> decode_request -> HEServer.submit ->
  HEServer.pump_once -> encode_response -> decode_response``, each call
  in a benchmark-owned span, every request served once traced and once
  untraced;
* *probes*: timed public calls into each layer underneath.

A probe whose import or call fails reports ``null`` (reason on standard
error) instead of failing the run, so a refactor cannot break the ruler.
Stream metrics are means over the replayed requests, so they add up.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import proc
from .deploy import (
    Deployment, Pool, build_pool, make_request, routine_call, routine_expected,
)
from .results import Round
from .schedule import Planned, request_stream
from .spans import NullTracer, Tracer, self_time_by_name
from .spec import (
    MIX_OPS, PER_LAYER, ROUNDS, ROUTINES, SERVE_DEFAULTS, Workload,
)
from .stats import mean, percentile

__all__ = ["per_layer"]

#: The replay stops at whichever comes first (pairs of requests).
REPLAY_SECONDS = 3.0
REPLAY_MAX = 150
REPLAY_MIN = 10
#: Untimed requests that warm the replay server first.
REPLAY_WARMUP = 8
#: Records the replay server holds when the ``.after500`` probes run.
FILL_RECORDS = 500


def _timeit(fn: Callable[[], object], budget_s: float = 0.15,
            min_reps: int = 5, max_reps: int = 2000) -> float:
    """Median seconds per call, after one warm-up call."""
    fn()
    samples: List[float] = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < min_reps or (time.perf_counter() < deadline
                                      and len(samples) < max_reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return percentile(samples, 50)


class _Metrics(dict):
    """Per-layer values; ``probe`` runs one measurement fail-soft."""

    def probe(self, names: Tuple[str, ...], fn: Callable[[], tuple]) -> None:
        try:
            values = fn()
        except Exception as exc:  # the ruler outlives a refactor: report null
            print(f"e2ebench: probe {names[0].rsplit('.', 1)[0]} failed: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            values = (None,) * len(names)
        self.update(zip(names, values))


# -- the in-process server and the replay ------------------------------------------


def _gpu_config():
    from repro.gpu.profiles import GpuConfig

    d = SERVE_DEFAULTS
    return GpuConfig(ntt_variant=d["ntt_variant"], asm=d["asm"],
                     kernel_fusion=d["kernel_fusion"])


def _new_server(dep: Deployment, client_id: str):
    """An ``HEServer`` configured as ``python -m repro serve`` ships, with
    ``client_id``'s session keys installed through the wire handshake."""
    from repro.server import BatchPolicy, HEServer, ServerClient
    from repro.server.request import (
        SessionHello, decode_session_ack, encode_session_hello,
    )
    from repro.xesim import DEVICE1, DEVICE2

    d = SERVE_DEFAULTS
    server = HEServer(
        ServerClient.params_wire(dep.params),
        devices=[(DEVICE1, 2), (DEVICE2, 1)],
        policy=BatchPolicy(max_batch=d["max_batch"], window_us=d["window_us"]),
        gpu_config=_gpu_config(), workers=d["workers"])
    relin_wire, galois_wire = dep.key_wires()
    ack = decode_session_ack(server.handshake(encode_session_hello(
        SessionHello(client_id=client_id, relin_wire=relin_wire,
                     galois_wire=galois_wire))))
    if not ack.ok:
        raise RuntimeError(f"in-process handshake refused: {ack.error}")
    return server


def _serve_one(server, now_us: float, pool: Pool, plan, tracer,
               client_id: str, rid: str) -> bool:
    """One request through the six wire/serve calls, each in a span;
    True when the result is ok and bit-identical to the expected one."""
    from repro.server.request import (
        decode_request, decode_response, encode_request, encode_response,
    )

    exp = pool.expected[(plan.op, plan.variant)]
    with tracer.span("request", rid):
        with tracer.span("encode_request", rid):
            frame = encode_request(make_request(pool, plan, rid, client_id))
        with tracer.span("decode_request", rid):
            req = decode_request(frame)
        with tracer.span("submit", rid):
            server.submit(req, arrival_us=now_us)
        with tracer.span("pump_once", rid):
            # past the batching window, so the batch of one closes
            served = server.pump_once(now_us=now_us + 5_000.0)
        with tracer.span("encode_response", rid):
            raw = encode_response(served[0])
        with tracer.span("decode_response", rid):
            resp = decode_response(raw)
    return (len(served) == 1 and resp.ok
            and np.array_equal(resp.result.data, exp.result.data))


def _replay(server, clock, pool: Pool, plans, tracer: Tracer,
            client_id: str) -> Tuple[int, float, int]:
    """Serve each planned request twice back to back on one server, once
    traced and once untraced (order alternating), until the time budget.

    Pairing keeps the op, the server's retained state and the allocator's
    state the same on both sides, so the wall-time difference is the
    tracing.  ``clock`` yields simulated arrival instants 10 ms apart.
    Returns (pairs, tracing overhead as a share of the untraced request —
    median paired difference over median untraced wall — and wrong results).
    """
    null = NullTracer()
    for i, plan in enumerate(plans[:REPLAY_WARMUP]):
        _serve_one(server, next(clock), pool, plan, null, client_id, f"warm-{i}")
    diffs: List[float] = []
    untraced: List[float] = []
    wrong = 0
    t_start = time.perf_counter()
    for i, plan in enumerate(plans):
        if i >= REPLAY_MIN and time.perf_counter() - t_start > REPLAY_SECONDS:
            break
        wall = {}
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            t0 = time.perf_counter()
            ok = _serve_one(server, next(clock), pool, plan,
                            tracer if traced else null, client_id,
                            f"{'traced' if traced else 'untraced'}-{i}")
            wall[traced] = time.perf_counter() - t0
            wrong += not ok
        diffs.append(wall[True] - wall[False])
        untraced.append(wall[False])
    overhead = percentile(diffs, 50) / percentile(untraced, 50)
    return len(diffs), overhead, wrong


# -- probes ---------------------------------------------------------------------------


def _probe_stream(server, dep: Deployment, pool: Pool, plans, client_id: str):
    """Sub-layers of ``pump_once`` on the replayed stream: plan, thunk, the
    device model's profile chain, and the frame sizes."""
    from dataclasses import replace

    from repro.gpu.profiles import GpuOpProfiler
    from repro.server.request import encode_request
    from repro.xesim import DEVICE1

    profiler = GpuOpProfiler(dep.context.degree, DEVICE1,
                             replace(_gpu_config(), tiles=2))
    plan_s, thunk_s, prof_s, kernels, req_bytes = [], [], [], [], []
    for i, plan in enumerate(plans):
        req = make_request(pool, plan, f"probe-{i}", client_id)
        t0 = time.perf_counter()
        profs, thunk = server.session.execute_plan(req, profiler)
        t1 = time.perf_counter()
        thunk()
        t2 = time.perf_counter()
        server.session.op_profiles(req.op, req.cts[0].level, req.meta,
                                   profiler, client_id=client_id)
        t3 = time.perf_counter()
        plan_s.append(t1 - t0)
        thunk_s.append(t2 - t1)
        prof_s.append(t3 - t2)
        kernels.append(sum(p.launches for p in profs))
        req_bytes.append(len(encode_request(req)))
    return (mean(plan_s) * 1e6, mean(thunk_s) * 1e6, mean(prof_s) * 1e6,
            mean(kernels), mean(req_bytes))


def _probe_batcher(dep: Deployment, pool: Pool, plans, client_id: str):
    from repro.server import BatchPolicy, RequestBatcher

    d = SERVE_DEFAULTS
    batcher = RequestBatcher(BatchPolicy(max_batch=d["max_batch"],
                                         window_us=d["window_us"]))
    samples = []
    for i, plan in enumerate(plans):
        req = make_request(pool, plan, f"batch-{i}", client_id,
                           arrival_us=i * 10_000.0)
        batcher.add(req)
        t0 = time.perf_counter()
        batches = batcher.form_batches(now_us=req.arrival_us + 5_000.0)
        samples.append(time.perf_counter() - t0)
        if [b.size for b in batches] != [1]:
            raise RuntimeError("batch of one did not close past its window")
    return (mean(samples) * 1e6,)


def _idle_tick_us(server) -> float:
    """``pump_once`` with nothing pending (the clock does not advance)."""
    return _timeit(lambda: server.pump_once(), budget_s=0.1) * 1e6


def _probe_after_fill(server, clock, pool: Pool, plans, client_id: str,
                      served: int):
    """Bring the server to FILL_RECORDS served requests with cheap ``add``s
    (or the stream's own op if it has none), then time an idle tick and a
    metrics snapshot: both walk every record today."""
    op = "add" if ("add", 0) in pool.expected else plans[0].op
    plan = Planned(op, 0, 0.0)
    for i in range(served, FILL_RECORDS):
        now_us = next(clock)
        server.submit(make_request(pool, plan, f"fill-{i}", client_id),
                      arrival_us=now_us)
        server.pump_once(now_us=now_us + 5_000.0)
    tick = _idle_tick_us(server)
    snap = _timeit(lambda: server.metrics_snapshot("json"), budget_s=0.1,
                   min_reps=3) * 1e6
    return tick, snap


def _probe_serialize(dep: Deployment, pool: Pool):
    from repro.core.serialize import (
        from_bytes, load_ciphertext, load_relin_key, save_ciphertext, to_bytes,
    )

    ct = pool.cts[0]
    blob = to_bytes(save_ciphertext, ct)
    relin_wire, _ = dep.key_wires()
    return (_timeit(lambda: to_bytes(save_ciphertext, ct)) * 1e6,
            _timeit(lambda: from_bytes(load_ciphertext, blob)) * 1e6,
            _timeit(lambda: from_bytes(load_relin_key, relin_wire),
                    min_reps=3) * 1e3)


def _probe_evaluator(dep: Deployment, pool: Pool):
    ev, rlk, gk = dep.evaluator, dep.relin, dep.galois
    a, b = pool.cts[0], pool.cts[1]
    prod = ev.multiply(a, b)
    lin = ev.relinearize(prod, rlk)
    return tuple(_timeit(fn) * 1e6 for fn in (
        lambda: ev.add(a, b), lambda: ev.multiply(a, b), lambda: ev.square(a),
        lambda: ev.relinearize(prod, rlk), lambda: ev.rescale(lin),
        lambda: ev.rotate(a, 1, gk)))


def _probe_routines(dep: Deployment, pool: Pool):
    from repro.core import HERoutines

    routines = HERoutines(dep.evaluator, dep.relin, dep.galois)
    a, b = pool.cts[0], pool.cts[1]
    x, y, z = pool.values[0], pool.values[1], pool.values[2]
    out = []
    for op in ROUTINES:
        exp = routine_expected(dep, op, a, b, x, y, z)
        out.append(_timeit(lambda: routine_call(routines, op, exp),
                           budget_s=0.2, min_reps=3) * 1e3)
    return tuple(out)


def _residues(dep: Deployment, seed: int) -> np.ndarray:
    """A (levels, N) matrix of seeded residues, row i below prime i."""
    ctx = dep.context
    rng = np.random.default_rng([seed, 7])
    return np.stack([rng.integers(0, ctx.modulus(i).value, ctx.degree,
                                  dtype=np.uint64)
                     for i in range(ctx.max_level)])


def _probe_ntt(dep: Deployment, seed: int):
    ctx = dep.context
    x = _residues(dep, seed)
    fwd = ctx.to_ntt(x)
    if not np.array_equal(ctx.from_ntt(fwd), x):
        raise RuntimeError("inverse NTT did not undo the forward NTT")
    levels, n = x.shape
    stages = int(math.log2(n))
    butterflies = levels * (n // 2) * stages
    fwd_s = _timeit(lambda: ctx.to_ntt(x))
    inv_s = _timeit(lambda: ctx.from_ntt(fwd))
    # computed, not measured: every stage reads and writes each 8-byte
    # coefficient once
    nbytes = levels * n * 8 * 2 * stages
    return (fwd_s * 1e6, inv_s * 1e6, butterflies, nbytes,
            butterflies / fwd_s / 1e9)


def _probe_modmath(dep: Deployment, seed: int):
    from repro.modmath import add_mod, mad_mod, mul_mod

    x = _residues(dep, seed)
    y, z = np.roll(x, 1, axis=1), np.roll(x, 2, axis=1)
    modulus = dep.context.stacked_modulus(x.shape[0])
    add_s = _timeit(lambda: add_mod(x, y, modulus))
    # computed bytes: two operands read, one result written
    return (_timeit(lambda: mul_mod(x, y, modulus)) * 1e6,
            _timeit(lambda: mad_mod(x, y, z, modulus)) * 1e6,
            3 * x.nbytes / add_s / 1e9)


def _probe_native(build_s: float):
    from repro import native

    return (int(native.available()), native.get_threads(), build_s)


def _probe_client(dep: Deployment, pool: Pool):
    values, ct = pool.values[0], pool.cts[0]
    return (_timeit(lambda: dep.encrypt(values)) * 1e3,
            _timeit(lambda: dep.decrypt(ct)) * 1e3)


def _probe_matmul(dep: Deployment, pool: Pool):
    from .inprocess import MATMUL_DIM, _matmul, _matmul_ok, matmul_blocks

    a, b, want = matmul_blocks(pool, 0)
    _matmul(dep, a, b)
    t0 = time.perf_counter()
    got, timing = _matmul(dep, a, b)
    wall = time.perf_counter() - t0
    if not _matmul_ok(got, want):
        raise RuntimeError("matMul probe decrypted to a wrong product")
    return (timing.compute_s * 1e3, MATMUL_DIM ** 3 / wall)


# -- the traced run -------------------------------------------------------------------


def _path_metrics(m: _Metrics, w: Workload, r: Round) -> None:
    """What the workload's own round saw (0 where the layer is not on
    this workload's path)."""
    lat = r.latencies_ms
    m["server.net.hello_rtt_ms"] = r.hello_rtt_s * 1e3
    m["server.net.response_bytes"] = mean(r.response_bytes)
    m["server.batcher.batch_size_mean"] = mean(r.batch_sizes)
    m["server.batcher.queue_wait_p50_us"] = (
        percentile(r.queue_wait_us, 50) if r.queue_wait_us else 0.0)
    m["server.proc.start_to_listen_s"] = r.start_to_listen_s
    m["server.proc.rss_kb_per_req"] = (
        (r.rss_kb - r.rss_kb_start) / r.rss_after if w.served else 0.0)
    m["core.client.keygen_s"] = r.keygen_s
    m["loadgen.sent"] = r.attempted
    m["loadgen.ok"] = r.ok
    m["loadgen.failed"] = r.failed
    m["loadgen.mismatch"] = r.mismatch
    m["loadgen.lateness_p99_ms"] = (
        percentile(r.lateness_ms, 99) if w.kind == "open" else 0.0)
    m["loadgen.busy_share"] = r.loadgen_cpu_s / max(
        r.wall_s if w.served else r.wall_s + r.loadgen_cpu_s, 1e-9)
    m["client.latency_p99_ms"] = percentile(lat, 99)
    m["client.latency_max_ms"] = max(lat)
    for op in MIX_OPS:
        samples = r.latencies_by_op.get(op)
        m[f"client.latency_p50_ms.{op}"] = percentile(samples, 50) if samples else 0.0


def per_layer(w: Workload, seed: int, seconds: float, dep: Deployment,
              pool: Pool, build_s: float) -> Tuple[Dict[str, Optional[float]], List[Round]]:
    """Every per-layer metric of one workload, plus the rounds whose
    attempted/failed counts the result object reports."""
    from .run import measure_rounds

    m = _Metrics()
    path = measure_rounds(w, seed, seconds / ROUNDS, pool, rounds=1)[0]
    _path_metrics(m, w, path)

    if not w.served:
        # the in-process workloads have no served ops of their own: replay
        # and probe the serving layers with the standard mix at their shape
        pool = build_pool(dep, seed, MIX_OPS)
    ops = w.ops if w.served else MIX_OPS
    plans = request_stream(seed, w.name, ops, REPLAY_MAX, stream="replay")
    client_id = "c0"

    server = _new_server(dep, client_id)
    m.probe(("server.pump.idle_tick_us.fresh",),
            lambda: (_idle_tick_us(server),))
    clock = (i * 10_000.0 for i in itertools.count(1))
    tracer = Tracer()
    n, trace_overhead, wrong = _replay(server, clock, pool, plans, tracer,
                                       client_id)
    plans = plans[:n]
    proc.OUT_DIR.mkdir(exist_ok=True)
    tracer.write(proc.OUT_DIR / f"trace-{w.name}.json")
    replay = Round(attempted=2 * n, ok=2 * n - wrong, failed=wrong,
                   mismatch=wrong)

    self_us = {name: mean(vals) * 1e6
               for name, vals in self_time_by_name(tracer.spans).items()}
    for call in ("encode_request", "decode_request", "encode_response",
                 "decode_response"):
        m[f"server.request.{call}_us"] = self_us[call]
    m["server.dispatcher.submit_us"] = self_us["submit"]
    m["server.dispatcher.pump_once_us"] = self_us["pump_once"]
    total_us = sum(self_us.values())
    m["trace.unattributed_share"] = self_us["request"] / total_us
    m["trace.overhead_share"] = trace_overhead

    m.probe(("server.dispatcher.plan_us", "server.dispatcher.thunk_us",
             "devmodel.op_profiles_us", "devmodel.kernels_per_request",
             "server.net.request_bytes"),
            lambda: _probe_stream(server, dep, pool, plans, client_id))
    plan_us, thunk_us = m["server.dispatcher.plan_us"], m["server.dispatcher.thunk_us"]
    if plan_us is None or thunk_us is None:
        m["server.dispatcher.overhead_us"] = m["server.dispatcher.overhead_share"] = None
        m["server.request.wire_vs_kernel_ratio"] = None
    else:
        overhead = self_us["pump_once"] - plan_us - thunk_us
        m["server.dispatcher.overhead_us"] = overhead
        m["server.dispatcher.overhead_share"] = overhead / self_us["pump_once"]
        m["server.request.wire_vs_kernel_ratio"] = (
            (self_us["decode_request"] + self_us["encode_response"]) / thunk_us)
    # socket p50 minus what the same requests cost with no socket and no
    # pump thread: transport + pump-tick wait (+ queueing under load)
    in_process_ms = (self_us["decode_request"] + self_us["submit"]
                     + self_us["pump_once"] + self_us["encode_response"]) * 1e-3
    m["server.net.overhead_p50_ms"] = (
        percentile(path.latencies_ms, 50) - in_process_ms if w.served else 0.0)

    m.probe(("server.batcher.form_batches_us",),
            lambda: _probe_batcher(dep, pool, plans, client_id))
    m.probe(("server.pump.idle_tick_us.after500",
             "server.metrics.snapshot_us.after500"),
            lambda: _probe_after_fill(server, clock, pool, plans, client_id,
                                      2 * n + REPLAY_WARMUP))
    del server
    m.probe(("core.serialize.save_ciphertext_us",
             "core.serialize.load_ciphertext_us",
             "core.serialize.load_relin_key_ms"),
            lambda: _probe_serialize(dep, pool))
    m.probe(tuple(f"core.evaluator.{op}_us" for op in (
        "add", "multiply", "square", "relinearize", "rescale", "rotate")),
            lambda: _probe_evaluator(dep, pool))
    m.probe(tuple(f"core.routines.{op}_ms" for op in ROUTINES),
            lambda: _probe_routines(dep, pool))
    m.probe(("ntt.forward_us", "ntt.inverse_us", "ntt.butterflies",
             "ntt.bytes_computed", "ntt.gbutterflies_per_s"),
            lambda: _probe_ntt(dep, seed))
    m.probe(("modmath.dyadic_product_us", "modmath.mad_mod_us",
             "modmath.add_gbytes_per_s"), lambda: _probe_modmath(dep, seed))
    m.probe(("native.available", "native.threads", "native.build_s"),
            lambda: _probe_native(build_s))
    m.probe(("core.client.encode_encrypt_ms", "core.client.decrypt_decode_ms"),
            lambda: _probe_client(dep, pool))
    m.probe(("apps.matmul.sim_compute_ms", "apps.matmul.products_per_s"),
            lambda: _probe_matmul(dep, pool))

    missing = set(PER_LAYER) - set(m)
    if missing:
        raise RuntimeError(f"per-layer metrics never measured: {sorted(missing)}")
    return dict(m), [path, replay]
