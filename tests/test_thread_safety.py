"""Concurrency regression suite: shared caches under multi-threaded load.

The streaming server dispatches evaluator work from multiple logical
lanes; the NTT table memos (``ntt/tables.py``) and the per-instance
prefix caches are shared state.  These tests hammer them from many threads and require (a) no
exceptions and (b) outputs bit-identical to the single-threaded run.
"""

import threading

import numpy as np
import pytest

from repro.core import CkksContext, CkksParameters, Evaluator
from repro.core.ciphertext import Ciphertext
from repro.modmath import gen_ntt_primes
from repro.ntt.tables import (
    clear_tables_cache,
    get_stacked_tables,
    get_tables,
)

THREADS = 8
ITERS = 12


def _run_threads(worker, count=THREADS):
    errors = []
    threads = []

    def wrap(idx):
        try:
            worker(idx)
        except Exception as exc:  # noqa: BLE001 - recorded for the assert
            errors.append(exc)

    for idx in range(count):
        t = threading.Thread(target=wrap, args=(idx,))
        threads.append(t)
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


@pytest.fixture(scope="module")
def scheme():
    params = CkksParameters.default(
        degree=64, levels=3, scale_bits=23, first_bits=30, special_bits=30
    )
    return CkksContext(params)


def _random_ct(rng, context, size, level, scale):
    data = np.empty((size, level, context.degree), dtype=np.uint64)
    for i in range(level):
        data[:, i] = rng.integers(
            0, context.modulus(i).value, (size, context.degree),
            dtype=np.uint64,
        )
    return Ciphertext(data, scale)


def test_concurrent_evaluators_bit_identical(scheme):
    """N threads running multiply/rescale on one context match 1-thread."""
    ctx = scheme
    scale = float(ctx.params.scale)
    rng = np.random.default_rng(5)
    a = _random_ct(rng, ctx, 2, 4, scale)
    b = _random_ct(rng, ctx, 2, 4, scale)
    rs = Ciphertext(_random_ct(rng, ctx, 2, 4, scale).data, scale * scale)
    ev = Evaluator(ctx)
    want_mul = ev.multiply(a, b).data
    want_rs = ev.rescale(rs).data
    mismatches = []

    def worker(_idx):
        local_ev = Evaluator(ctx)
        for _ in range(ITERS):
            if not np.array_equal(local_ev.multiply(a, b).data, want_mul):
                mismatches.append("multiply")
            if not np.array_equal(local_ev.rescale(rs).data, want_rs):
                mismatches.append("rescale")

    errors = _run_threads(worker)
    assert not errors, errors
    assert not mismatches, mismatches


def test_concurrent_table_cache_churn():
    """Cache clears racing lookups/prefixes never corrupt the tables."""
    degree = 64
    bases = [
        tuple(gen_ntt_primes([24 + i, 25 + i, 26 + i], degree))
        for i in range(6)
    ]
    stop = threading.Event()

    def churn(_idx):
        while not stop.is_set():
            clear_tables_cache()

    def lookup(idx):
        rng = np.random.default_rng(idx)
        for _ in range(40):
            values = bases[int(rng.integers(len(bases)))]
            st = get_stacked_tables(degree, values)
            assert st.degree == degree
            assert st.modulus.values == list(values)
            pre = st.prefix(2)
            assert pre.degree == degree
            assert len(pre) == 2
            t = get_tables(degree, values[0])
            assert t.degree == degree

    churner = threading.Thread(target=churn, args=(0,))
    churner.start()
    try:
        errors = _run_threads(lookup, count=4)
    finally:
        stop.set()
        churner.join()
    assert not errors, errors


def test_concurrent_prefix_memos():
    """Concurrent prefix() on one shared tables object: one memo per size."""
    degree = 256
    values = gen_ntt_primes([30, 28, 26, 24], degree)
    st = get_stacked_tables(degree, values)
    seen = {rows: [] for rows in (1, 2, 3)}

    def worker(idx):
        for _ in range(30):
            for rows in (1, 2, 3):
                pre = st.prefix(rows)
                assert len(pre) == rows
                assert len(pre.modulus) == rows
                assert np.array_equal(pre.w, st.w[:rows])
                seen[rows].append(pre)

    errors = _run_threads(worker)
    assert not errors, errors
    for rows, got in seen.items():
        assert all(pre is st.prefix(rows) for pre in got), rows


def test_concurrent_span_recording_bounded_and_consistent():
    """N threads hammering one tracer: ids unique, eviction adds up.

    The trace buffer is the one piece of observability state every
    worker thread writes on every kernel call; a race here would corrupt
    traces exactly when they are most interesting (pooled runs).
    """
    from repro.obs import tracing

    capacity = 64
    per_thread = 25
    tracer = tracing.Tracer(capacity=capacity)
    assert tracing.get_tracer() is None, "tracing must start disabled"
    tracing.enable(tracer=tracer)
    try:
        def worker(idx):
            for i in range(per_thread):
                with tracing.span(f"outer-{idx}", cat="test", iter=i):
                    with tracing.span(f"inner-{idx}", cat="test"):
                        pass

        errors = _run_threads(worker)
    finally:
        tracing.disable()
    assert not errors, errors
    spans = tracer.spans()
    # Bounded buffer: exactly `capacity` survivors, the rest counted.
    total = THREADS * per_thread * 2
    assert len(spans) == capacity
    assert tracer.evicted == total - capacity
    assert len({s.span_id for s in spans}) == capacity  # no id reuse
    # Every surviving inner span parents its own thread's outer span.
    by_id = {s.span_id: s for s in spans}
    for s in spans:
        assert s.cat == "test"
        if s.name.startswith("inner-") and s.parent_id in by_id:
            parent = by_id[s.parent_id]
            assert parent.name == "outer-" + s.name.split("-")[1]
            assert parent.thread == s.thread
    # The export paths hold up on a buffer written by 8 threads.
    tracer.chrome_trace_json()
    tracer.summary()


def test_worker_pool_spans_parent_under_submitters():
    """Pool workers re-parent their spans under each submitting thread."""
    from repro.obs import tracing
    from repro.server.workers import WorkerPool

    with tracing.use_tracing(capacity=4096) as tracer:
        with WorkerPool(3, name="ts") as pool:
            def submit(idx):
                with tracing.span(f"submit-{idx}", cat="test"):
                    pool.map_ordered(lambda x: x * x, list(range(6)))

            errors = _run_threads(submit, count=4)
    assert not errors, errors
    by_id = {s.span_id: s for s in tracer.spans()}
    workers = [s for s in by_id.values() if s.name == "worker"]
    assert len(workers) == 4 * 6
    for w in workers:
        assert w.thread.startswith("ts-")
        parent = by_id[w.parent_id]
        assert parent.name.startswith("submit-")
        assert parent.thread != w.thread  # genuinely crossed the handoff


def _pooled_overload_run(seed, *, workers, consumers=4, inject_failure=True):
    """Serve one fixed-seed workload through concurrent stream()/drain().

    Builds an ``HEServer`` with an evaluation worker pool, submits the
    canonical mixed square/multiply traffic, optionally kills one pool
    device mid-timeline, then lets ``consumers`` threads race
    ``stream()`` and ``drain()`` on the same server.  Returns the
    server, the submitted ids, and every terminal response each
    consumer thread saw (a list of lists).
    """
    from repro.server import (
        BatchPolicy,
        HEServer,
        demo_deployment,
        mixed_square_multiply_traffic,
    )
    from repro.xesim import DEVICE1, DEVICE2

    params, encoder, encryptor, _decryptor, relin_wire = demo_deployment(
        degree=256, seed=seed)
    frames = mixed_square_multiply_traffic(
        encoder, encryptor, requests=18, rng=np.random.default_rng(seed))
    server = HEServer(
        params,
        devices=[(DEVICE1, 2), (DEVICE2, 1)],
        policy=BatchPolicy(max_batch=4, window_us=50.0),
        workers=workers,
    )
    server.install_relin_key(relin_wire)
    ids = []
    for rid, wire, arrival_us, _expected in frames:
        server.submit(wire, arrival_us=arrival_us)
        ids.append(rid)
    if inject_failure:
        # Mid-timeline: some of the fast device's work is in flight and
        # must be requeued onto the survivor, under pool evaluation.
        server.dispatcher.fail_device("Device1", 400.0)

    seen = [[] for _ in range(consumers)]

    def consume(idx):
        if idx % 2 == 0:
            seen[idx].extend(server.stream())
        else:
            seen[idx].extend(server.drain().values())

    errors = _run_threads(consume, count=consumers)
    server.close()
    assert not errors, errors
    return server, ids, seen


def test_worker_pool_hammer_exactly_one_terminal():
    """Racing stream()/drain() consumers on a pooled server under an
    injected device failure: every request gets exactly one terminal
    response across all consumers — none lost, none duplicated."""
    server, ids, seen = _pooled_overload_run(31, workers=3)

    yielded = [r.request_id for consumer in seen for r in consumer]
    assert sorted(yielded) == sorted(ids)  # exactly once, across threads
    assert all(r.status == "ok" for consumer in seen for r in consumer)
    for rid in ids:
        assert server.response(rid).status == "ok", rid
    # The pool really ran the math.
    tasks = sum(w["tasks"] for w in server.metrics.worker_stats)
    assert tasks > 0
    assert all(w["failures"] == 0 for w in server.metrics.worker_stats)


def test_worker_pool_hammer_deterministic():
    """Two hammer runs with the same seed produce identical results,
    and match a serial (inline, single-consumer) run of the same
    traffic — concurrency must be invisible in the data."""
    server_a, ids, _seen_a = _pooled_overload_run(47, workers=3)
    server_b, _ids_b, _seen_b = _pooled_overload_run(47, workers=3)
    server_c, _ids_c, _seen_c = _pooled_overload_run(
        47, workers=0, consumers=1)

    for rid in ids:
        a = server_a.response(rid)
        b = server_b.response(rid)
        c = server_c.response(rid)
        assert a.status == b.status == c.status == "ok", rid
        assert np.array_equal(a.result.data, b.result.data), rid
        assert np.array_equal(a.result.data, c.result.data), rid
        assert a.complete_us == b.complete_us == c.complete_us, rid
