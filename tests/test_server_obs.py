"""End-to-end observability of the serving stack.

The acceptance criteria of the tracing/metrics work, checked from the
outside: a served request leaves a *complete* span tree (admission ->
queue -> batch -> dispatch on the simulated clock; batch.dispatch ->
dispatch.execute -> worker -> execute -> kernel on the wall clock) that
exports as valid Chrome ``trace_event`` JSON, and
``HEServer.metrics_snapshot`` publishes the serving, admission,
worker-pool, scratch-registry, NTT-cache and native-backend series
through one Prometheus exposition.
"""

import gc
import json

import numpy as np
import pytest

from repro import native
from repro.native import set_backend
from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.server import (
    RESPONSE_STATUSES,
    AdmissionPolicy,
    HEServer,
    ServeRequest,
    demo_deployment,
    encode_request,
    mixed_square_multiply_traffic,
    serve_traffic,
)
from repro.xesim import DEVICE1

HAVE_NATIVE = native.available()

REQUESTS = 6


def _serve(extra_ops=(), **overrides):
    """One small pooled+gated run of the canonical mixed traffic.

    ``extra_ops`` appends one single-ciphertext request per op after the
    canonical frames (``rotate`` is executor-rejected: no Galois keys).
    """
    params, encoder, encryptor, _decryptor, relin_wire = demo_deployment(
        degree=64, seed=11)
    frames = mixed_square_multiply_traffic(
        encoder, encryptor, requests=REQUESTS, rng=np.random.default_rng(11))
    for i, op in enumerate(extra_ops):
        ct = encryptor.encrypt(encoder.encode(np.ones(encoder.slots)))
        req = ServeRequest(f"x{i}", op, [ct], meta={"steps": 1})
        frames.append((req.request_id, encode_request(req),
                       frames[-1][2] + 1.0, None))
    kwargs = dict(
        relin_wire=relin_wire,
        admission=AdmissionPolicy(rate_rps=1e6, burst=2 * REQUESTS,
                                  max_backlog=4 * REQUESTS),
        workers=2,
    )
    kwargs.update(overrides)
    server = serve_traffic(params, frames, **kwargs)
    return server, frames


@pytest.fixture(scope="module")
def traced_run():
    """Serve once under tracing; share the (server, tracer, frames)."""
    with tracing.use_tracing(capacity=8192) as tracer:
        server, frames = _serve()
    return server, tracer, frames


# ----------------------------------------------------------------------
# span tree completeness
# ----------------------------------------------------------------------

def test_every_request_has_complete_sim_lifecycle(traced_run):
    """request > {admission, queue > batch, dispatch} for each served id."""
    server, tracer, frames = traced_run
    for rid, _wire, _arrival, _expected in frames:
        assert server.response(rid).status == "ok", rid
        roots = tracer.request_tree(rid)
        sim_roots = [r for r in roots if r["span"].clock == "sim"]
        assert len(sim_roots) == 1, rid
        root = sim_roots[0]
        assert root["span"].name == "request"
        assert root["span"].attrs["status"] == "ok"
        children = {c["span"].name: c for c in root["children"]}
        assert set(children) == {"admission", "queue", "dispatch"}, rid
        assert children["admission"]["span"].attrs["admitted"] is True
        assert children["admission"]["span"].attrs["gated"] is True
        queue = children["queue"]
        assert [c["span"].name for c in queue["children"]] == ["batch"]
        # Interval sanity on the simulated clock: queue spans arrival ->
        # dispatch, the device-residency span follows it.
        req = root["span"]
        disp = children["dispatch"]["span"]
        assert queue["span"].start_us == req.start_us
        assert disp.start_us == queue["span"].end_us
        assert disp.end_us == req.end_us


def test_wall_spans_cross_the_worker_pool_handoff(traced_run):
    """batch.dispatch > dispatch.{plan,execute} > worker > execute."""
    _server, tracer, _frames = traced_run
    by_id = {s.span_id: s for s in tracer.spans()}
    by_name = {}
    for s in by_id.values():
        by_name.setdefault(s.name, []).append(s)
    for name in ("batch.form", "batch.dispatch", "dispatch.plan",
                 "dispatch.execute", "worker", "execute"):
        assert by_name.get(name), f"no {name!r} spans recorded"

    for s in by_name["dispatch.plan"] + by_name["dispatch.execute"]:
        assert by_id[s.parent_id].name == "batch.dispatch", s
    # The pool re-parents its span under the *submitting* thread's open
    # dispatch.execute span even though it runs on a worker thread.
    for w in by_name["worker"]:
        assert by_id[w.parent_id].name == "dispatch.execute", w
        assert w.thread.startswith("he-worker-"), w
        assert w.attrs["worker"].startswith("he-worker-"), w
    # Each evaluation span carries its request id and sits inside either
    # a pool worker (fanned out) or dispatch.execute (inline singleton).
    for e in by_name["execute"]:
        assert e.request_id, e
        assert by_id[e.parent_id].name in ("worker", "dispatch.execute"), e
    assert any(by_id[e.parent_id].name == "worker" for e in by_name["execute"])


@pytest.mark.skipif(not HAVE_NATIVE, reason="native backend unavailable")
def test_kernel_spans_attach_to_request_execution(traced_run):
    _server, tracer, _frames = traced_run
    by_id = {s.span_id: s for s in tracer.spans()}
    kernels = [s for s in by_id.values() if s.name.startswith("kernel:")]
    assert kernels
    assert all(s.cat == "kernel" for s in kernels)
    assert all(s.attrs.get("threads", 0) >= 1 for s in kernels)
    inside_exec = [k for k in kernels
                   if k.parent_id is not None
                   and by_id[k.parent_id].name == "execute"]
    assert inside_exec, "no kernel span landed under an execute span"
    # Propagated through two handoffs: submit -> worker -> execute -> C.
    assert all(k.request_id for k in inside_exec)


def test_chrome_export_is_valid_and_split_by_clock(traced_run):
    _server, tracer, frames = traced_run
    doc = json.loads(tracer.chrome_trace_json())
    events = doc["traceEvents"]
    assert events
    xs = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    assert xs and metas
    for e in xs:
        assert set(e) >= {"ph", "pid", "tid", "name", "cat", "ts", "dur",
                          "args"}
        assert e["dur"] >= 0
    # Wall execution in pid 1, simulated request lifecycle in pid 2.
    assert {e["pid"] for e in xs} == {1, 2}
    sim_names = {e["name"] for e in xs if e["pid"] == 2}
    assert {"request", "admission", "queue", "batch", "dispatch"} <= sim_names
    wall_names = {e["name"] for e in xs if e["pid"] == 1}
    assert {"batch.dispatch", "dispatch.execute", "worker",
            "execute"} <= wall_names
    # One lifecycle lane per request (plus the shared batch lane 0).
    lane_meta = {(e["pid"], e["tid"]): e["args"]["name"]
                 for e in metas if e["name"] == "thread_name"}
    req_lanes = {lane_meta[(2, e["tid"])]
                 for e in xs if e["pid"] == 2 and e["name"] == "request"}
    assert req_lanes == {rid for rid, _w, _a, _e in frames}


# ----------------------------------------------------------------------
# metrics snapshot coverage
# ----------------------------------------------------------------------

def test_prometheus_snapshot_covers_every_subsystem():
    with use_registry():
        # The canonical traffic plus one executor-rejected request and
        # one the gate sheds: the bucket holds REQUESTS + 1 tokens and
        # refills ~1e-4 tokens over the whole run.
        server, _frames = _serve(
            extra_ops=("rotate", "square"),
            admission=AdmissionPolicy(rate_rps=1.0, burst=REQUESTS + 1,
                                      max_backlog=4 * REQUESTS))
        text = server.metrics_snapshot("prometheus")
    for series in (
        # serving aggregates
        'repro_server_requests_total{status="ok"}',
        "repro_server_batches_total",
        "repro_server_throughput_rps",
        'repro_server_latency_us_bucket{priority="0",le="+Inf"}',
        "repro_server_latency_us_count",
        # admission gate
        "repro_admission_admitted_total",
        "repro_admission_tokens",
        "repro_admission_backlog",
        # batcher + worker pool
        "repro_batcher_depth",
        "repro_worker_pool_width",
        'repro_worker_tasks_total{worker="he-worker-0"}',
        'repro_worker_tasks_total{worker="he-worker-1"}',
        "repro_worker_busy_seconds",
        # process-wide caches and backend
        "repro_ntt_tables_cache_hits_total",
        "repro_ntt_tables_cache_size",
        "repro_native_fallback_total",
        "repro_native_available",
    ):
        assert series in text, series
    served = REQUESTS
    assert f'repro_server_requests_total{{status="ok"}} {served}' in text
    assert 'repro_server_requests_total{status="error"} 1' in text
    assert 'repro_server_requests_total{status="overloaded"} 1' in text
    assert "repro_admission_shed_total 1" in text
    assert f"repro_admission_admitted_total {served + 1}" in text
    statuses = {line.split('"')[1] for line in text.splitlines()
                if line.startswith("repro_server_requests_total{")}
    assert statuses == RESPONSE_STATUSES
    # The pool really ran tasks before close; stats survive the close.
    tasks = sum(s.tasks for s in server.workers.stats)
    assert tasks > 0
    assert f"repro_server_latency_us_count" in text


def test_json_snapshot_roundtrips_and_rejects_unknown_format():
    with use_registry():
        server, _frames = _serve(workers=0, admission=None)
        snap = server.metrics_snapshot("json")
        with pytest.raises(ValueError):
            server.metrics_snapshot("csv")
    assert "repro_server_requests_total" in snap
    assert snap["repro_server_requests_total"]["type"] == "counter"
    # No admission/worker series when those subsystems are off.
    assert "repro_admission_tokens" not in snap
    assert "repro_worker_tasks_total" not in snap
    json.dumps(snap)  # JSON-safe end to end


def _samples(text):
    """{series: value} of a Prometheus exposition's sample lines."""
    return {line.rsplit(" ", 1)[0]: float(line.rsplit(" ", 1)[1])
            for line in text.splitlines() if not line.startswith("#")}


def test_registry_is_a_live_view_of_the_server():
    """Registered once, the registry tracks the server without another
    snapshot call, and stops reporting it once it is collected."""
    params, encoder, encryptor, _decryptor, relin_wire = demo_deployment(
        degree=64, seed=11)
    frames = mixed_square_multiply_traffic(
        encoder, encryptor, requests=4, rng=np.random.default_rng(11))
    registry = MetricsRegistry()
    server = HEServer(params, devices=[(DEVICE1, 2)], registry=registry)
    server.install_relin_key(relin_wire)
    for _rid, wire, arrival_us, _expected in frames[:2]:
        server.submit(wire, arrival_us=arrival_us)
    server.drain()
    server.metrics_snapshot("prometheus")
    before = _samples(registry.render_prometheus())
    for _rid, wire, arrival_us, _expected in frames[2:]:
        server.submit(wire, arrival_us=arrival_us)
    server.drain()
    after = _samples(registry.render_prometheus())
    assert after['repro_server_requests_total{status="ok"}'] == 4
    for series in ('repro_server_requests_total{status="ok"}',
                   'repro_launches_total{kind="raw"}',
                   "repro_artifact_cache_hits_total"):
        assert after[series] > before[series] > 0, series

    del server
    gc.collect()
    owned = ("repro_server_", "repro_launches_", "repro_artifact_",
             "repro_memcache_", "repro_admission_", "repro_batcher_",
             "repro_pump_", "repro_worker_", "repro_requeued_")
    left = _samples(registry.render_prometheus())
    assert not [name for name in left if name.startswith(owned)]
    assert any(name.startswith("repro_ntt_tables_") for name in left)


def test_serving_metrics_have_no_copy_layer():
    """Structural: nothing under ``repro/server`` pushes totals into a
    registry, and the three sync/export layers stay deleted."""
    import importlib
    import inspect
    import pkgutil
    from pathlib import Path

    import repro.server

    root = Path(repro.server.__file__).parent
    pushes = [
        f"{path.name}:{lineno}"
        for path in sorted(root.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "set_total(" in line
    ]
    assert not pushes, pushes

    gone = {"export_into", "export_metrics", "_sync_cache_metrics"}
    offenders = []
    for info in pkgutil.iter_modules(repro.server.__path__, "repro.server."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            attrs = {name} | (set(dir(obj)) if inspect.isclass(obj) else set())
            offenders += [f"{info.name}.{name}: {attr}"
                          for attr in sorted(attrs & gone)]
    assert not offenders, offenders


def test_tracing_disabled_run_records_nothing():
    """The serving path must not leak spans when tracing is off."""
    assert tracing.get_tracer() is None
    tracer = tracing.Tracer(capacity=64)
    _serve(workers=0)
    assert len(tracer) == 0


# ----------------------------------------------------------------------
# native fallback counter
# ----------------------------------------------------------------------

@pytest.fixture()
def restore_native():
    yield
    set_backend(None)
    native.reset()


def test_native_fallback_increments_counter(restore_native, monkeypatch):
    """A failed library load counts one downgrade in the live registry."""
    from repro.native import glue

    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    native.reset()
    with use_registry() as reg:
        before = glue.fallback_count()
        assert not native.available()  # triggers exactly one load failure
        assert glue.fallback_count() == before + 1
        assert native.available() is False  # cached: no double count
        assert glue.fallback_count() == before + 1
        text = reg.render_prometheus()
        assert "repro_native_fallback_total 1" in text
    native.reset()
