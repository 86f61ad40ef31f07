"""Unit tests for ``repro.obs``: percentile rule, metrics, tracing."""

import importlib.util
import json
import pathlib
import threading

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
    use_registry,
)


# ----------------------------------------------------------------------
# percentile: nearest-rank with explicit half-up rounding
# ----------------------------------------------------------------------

def test_percentile_rank_pins_n1_to_n8():
    """Pin the exact nearest-rank index for every n in 1..8.

    rank = floor(q/100 * (n-1) + 0.5).  The previous ``int(round(...))``
    implementation banker's-rounded exact .5 ranks to the even neighbor
    (p50 of [a, b] picked a, p50 of [a, b, c, d] picked b not c), making
    the chosen rank non-monotone across list lengths.
    """
    expected_p50_rank = {1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3, 8: 4}
    for n, k in expected_p50_rank.items():
        values = [10.0 * (i + 1) for i in range(n)]
        assert percentile(values, 50) == values[k], (n, k)

    expected_p95_rank = {1: 0, 2: 1, 3: 2, 4: 3, 5: 4, 6: 5, 7: 6, 8: 7}
    for n, k in expected_p95_rank.items():
        values = [10.0 * (i + 1) for i in range(n)]
        assert percentile(values, 95) == values[k], (n, k)

    # p25 of 3 values: 0.25*2+0.5 = 1.0 -> rank 1 (half-up would matter
    # at .5; here the value is exact).  p25 of 5: 0.25*4+0.5 = 1.5 -> 1.
    assert percentile([1.0, 2.0, 3.0], 25) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 25) == 2.0


def test_percentile_half_up_not_bankers():
    # n=2, q=50: rank 0.5+0.5 = 1.0 exactly after +0.5 -> floor gives 1.
    assert percentile([1.0, 2.0], 50) == 2.0
    # Same rank on wall-millisecond latencies (the socket soak's input,
    # whose private int(round(...)) helper picked the lower sample).
    assert percentile([447.2, 521.9], 50) == 521.9
    # n=5, q=50: 0.5*4+0.5 = 2.5 -> floor 2 (banker's round(2.5) gives 2
    # too, but round(1.5)=2 while floor(1.5)=1: n=3 q=25 separates them).
    assert percentile([1.0, 2.0, 3.0], 25) == 2.0


def test_percentile_edges():
    assert percentile([], 50) == 0.0
    assert percentile([7.0], 0) == 7.0
    assert percentile([7.0], 100) == 7.0
    assert percentile([1.0, 2.0, 3.0], 0) == 1.0
    assert percentile([1.0, 2.0, 3.0], 100) == 3.0


def test_server_metrics_uses_shared_percentile():
    from repro.server import metrics as server_metrics

    assert server_metrics._percentile is percentile


# ----------------------------------------------------------------------
# registry: counters, gauges, histograms, exporters
# ----------------------------------------------------------------------

def test_counter_gauge_basics():
    reg = MetricsRegistry()
    c = reg.counter("t_total", "help text")
    c.inc()
    c.inc(2.5)
    assert c.value() == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)
    c.set_total(10)
    assert c.value() == 10.0

    g = reg.gauge("t_gauge")
    g.set(4)
    g.inc()
    g.inc(-2)
    assert g.value() == 3.0


def test_registry_idempotent_and_kind_checked():
    reg = MetricsRegistry()
    a = reg.counter("dup_total", labels={"x": "1"})
    b = reg.counter("dup_total", labels={"x": "1"})
    assert a is b
    c = reg.counter("dup_total", labels={"x": "2"})
    assert c is not a
    with pytest.raises(ValueError):
        reg.gauge("dup_total")


def test_pull_series_none_omitted():
    reg = MetricsRegistry()
    reg.gauge("gone", fn=lambda: None)
    reg.gauge("here", fn=lambda: 5.0)
    text = reg.render_prometheus()
    assert "here 5" in text
    assert "gone" not in text.replace("# TYPE gone gauge", "").replace(
        "# HELP gone", "")
    snap = reg.snapshot()
    assert snap["gone"]["series"] == []
    assert snap["here"]["series"] == [{"labels": {}, "value": 5.0}]


def test_register_views_resolves_label_values_at_render_time():
    """A mapping-valued view exports one row per key present *now*."""
    class Owner:
        by_prio = {}
        lat = {0: [5.0]}

    owner = Owner()
    reg = MetricsRegistry()
    reg.register_views(owner, [("shed_total", "Sheds.", "by_prio", "priority")])
    reg.register_views(owner, [("lat_us", "", "lat", "priority")], kind="histogram")
    assert "shed_total{" not in reg.render_prometheus()
    owner.by_prio[2] = 3
    owner.lat[1] = [7.0, 9.0]
    text = reg.render_prometheus()
    assert 'shed_total{priority="2"} 3' in text
    assert 'lat_us_count{priority="0"} 1' in text
    assert 'lat_us_count{priority="1"} 2' in text
    assert reg.snapshot()["shed_total"]["series"] == [
        {"labels": {"priority": "2"}, "value": 3.0}]
    del owner
    assert reg.snapshot()["shed_total"]["series"] == []


def test_zero_record_snapshot_renders():
    """A registry with instruments but no observations must export cleanly."""
    reg = MetricsRegistry()
    reg.counter("empty_total", "nothing yet")
    reg.histogram("empty_us", buckets=(1.0, 10.0))
    text = reg.render_prometheus()
    assert "empty_total 0" in text
    assert 'empty_us_bucket{le="+Inf"} 0' in text
    assert "empty_us_count 0" in text
    snap = reg.snapshot()
    assert snap["empty_us"]["series"][0]["count"] == 0
    json.dumps(snap)  # JSON-safe


def test_histogram_bucket_boundaries():
    """Inclusive ``le`` semantics: v == bound lands in that bucket."""
    reg = MetricsRegistry()
    h = reg.histogram("lat_us", buckets=(10.0, 100.0, 1000.0))
    for v in (5.0, 10.0, 10.5, 100.0, 999.9, 1000.0, 5000.0):
        h.observe(v)
    snap = h.snapshot()
    assert snap["buckets"] == [[10.0, 2], [100.0, 4], [1000.0, 6]]
    assert snap["count"] == 7
    assert snap["sum"] == pytest.approx(5.0 + 10.0 + 10.5 + 100.0 + 999.9
                                        + 1000.0 + 5000.0)
    h.reset()
    assert h.snapshot()["count"] == 0


def test_histogram_rejects_bad_buckets():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.histogram("bad_a", buckets=())
    with pytest.raises(ValueError):
        reg.histogram("bad_b", buckets=(2.0, 1.0))
    with pytest.raises(ValueError):
        reg.histogram("bad_c", buckets=(1.0, 1.0))


_PROM_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
_PROM_LINE = (
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{' + _PROM_LABEL + r'(,' + _PROM_LABEL + r')*\})?'
    r' -?[0-9.eE+\-]+(\+Inf)?$'
)


def test_prometheus_format_parses():
    import re

    reg = MetricsRegistry()
    reg.counter("c_total", "a counter", labels={"leg": 'with"quote'}).inc(3)
    reg.gauge("g", "a gauge").set(1.25)
    reg.histogram("h_us", "a histogram", buckets=(50.0,)).observe(7)
    text = reg.render_prometheus()
    pat = re.compile(_PROM_LINE)
    for line in text.strip().splitlines():
        if line.startswith("#"):
            assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* ", line), line
        else:
            assert pat.match(line) or '+Inf' in line, line
    # Escaping: the quote in the label value is backslash-escaped.
    assert 'leg="with\\"quote"' in text


def test_use_registry_swaps_global():
    outer = obs_metrics.get_registry()
    with use_registry() as reg:
        assert obs_metrics.get_registry() is reg
        assert reg is not outer
    assert obs_metrics.get_registry() is outer


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------

def test_disabled_probes_are_noops():
    assert tracing.get_tracer() is None
    with tracing.span("anything", cat="x") as s:
        assert s is None
    assert tracing.sim_span("evt", 0.0, 1.0) is None
    assert tracing.capture() is None
    assert not tracing.enabled()


def test_span_nesting_and_request_inheritance():
    with tracing.use_tracing() as tracer:
        with tracing.span("outer", cat="t", request_id="r-1"):
            with tracing.span("inner", cat="t"):
                pass
        spans = tracer.spans()
    assert [s.name for s in spans] == ["inner", "outer"]  # finish order
    inner = next(s for s in spans if s.name == "inner")
    outer = next(s for s in spans if s.name == "outer")
    assert inner.parent_id == outer.span_id
    assert inner.request_id == "r-1"  # inherited
    assert outer.parent_id is None
    assert inner.start_us >= outer.start_us
    assert inner.end_us <= outer.end_us + 1.0  # allow clock granularity


def test_cross_thread_parenting_via_capture():
    with tracing.use_tracing() as tracer:
        token = {}

        def child():
            with tracing.span("worker-side", parent=token["ctx"]):
                pass

        with tracing.span("parent-side", request_id="r-9"):
            token["ctx"] = tracing.capture()
            t = threading.Thread(target=child)
            t.start()
            t.join()
        parent = tracer.spans(name="parent-side")[0]
        ws = tracer.spans(name="worker-side")[0]
    assert ws.parent_id == parent.span_id
    assert ws.request_id == "r-9"
    assert ws.thread != parent.thread


def test_begin_end_cross_thread_span():
    with tracing.use_tracing() as tracer:
        handle = tracer.begin("async-op", cat="t", request_id="r-2")

        def finisher():
            tracer.end(handle, outcome="done")

        t = threading.Thread(target=finisher)
        t.start()
        t.join()
        s = tracer.spans(name="async-op")[0]
    assert s.request_id == "r-2"
    assert s.attrs["outcome"] == "done"


def test_trace_buffer_eviction_at_capacity():
    with tracing.use_tracing(capacity=8) as tracer:
        for i in range(20):
            tracer.add_sim_span(f"s{i}", float(i), float(i + 1))
        assert len(tracer) == 8
        assert tracer.evicted == 12
        names = [s.name for s in tracer.spans()]
    assert names == [f"s{i}" for i in range(12, 20)]  # oldest dropped


def test_request_tree_shape():
    with tracing.use_tracing() as tracer:
        root = tracer.add_sim_span("request", 0.0, 100.0, request_id="r-3")
        q = tracer.add_sim_span("queue", 0.0, 40.0, request_id="r-3",
                                parent=root)
        tracer.add_sim_span("batch", 10.0, 40.0, request_id="r-3", parent=q)
        tracer.add_sim_span("dispatch", 40.0, 100.0, request_id="r-3",
                            parent=root)
        tracer.add_sim_span("request", 0.0, 1.0, request_id="other")
        tree = tracer.request_tree("r-3")
    assert len(tree) == 1
    node = tree[0]
    assert node["span"].name == "request"
    kids = [c["span"].name for c in node["children"]]
    assert kids == ["queue", "dispatch"]
    assert node["children"][0]["children"][0]["span"].name == "batch"


def test_chrome_trace_export_valid():
    with tracing.use_tracing() as tracer:
        with tracing.span("wall-span", cat="t", request_id="r-4", n=3):
            pass
        tracer.add_sim_span("sim-span", 5.0, 25.0, request_id="r-4")
        blob = tracer.chrome_trace_json()
    doc = json.loads(blob)
    events = doc["traceEvents"]
    x = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {e["name"] for e in x} == {"wall-span", "sim-span"}
    wall = next(e for e in x if e["name"] == "wall-span")
    sim = next(e for e in x if e["name"] == "sim-span")
    assert wall["pid"] == 1 and sim["pid"] == 2  # separate clock domains
    assert sim["ts"] == 5.0 and sim["dur"] == 20.0
    assert wall["args"]["n"] == 3
    assert wall["args"]["request_id"] == "r-4"
    # Every X event's (pid, tid) lane has a thread_name metadata event.
    lanes = {(e["pid"], e["tid"]) for e in x}
    named = {(e["pid"], e["tid"]) for e in meta if e["name"] == "thread_name"}
    assert lanes <= named


def test_summary_flamegraph_text():
    with tracing.use_tracing() as tracer:
        with tracing.span("a"):
            with tracing.span("b"):
                pass
            with tracing.span("b"):
                pass
        text = tracer.summary()
    lines = text.splitlines()
    assert "2 spans" not in lines[0]  # 3 spans total
    assert lines[0].startswith("trace summary: 3 spans")
    a_line = next(l for l in lines if l.lstrip().startswith("a"))
    b_line = next(l for l in lines if l.lstrip().startswith("b"))
    assert "2" in b_line.split()[1]  # count column
    assert lines.index(b_line) > lines.index(a_line)  # child under parent


def test_use_tracing_restores_prior_state():
    assert tracing.get_tracer() is None
    with tracing.use_tracing() as outer_tracer:
        with tracing.use_tracing() as inner_tracer:
            assert tracing.get_tracer() is inner_tracer
        assert tracing.get_tracer() is outer_tracer
    assert tracing.get_tracer() is None


def test_enable_reinstalls_existing_tracer():
    tracer = tracing.Tracer(capacity=16)
    try:
        assert tracing.enable(tracer=tracer) is tracer
        tracer.add_sim_span("x", 0.0, 1.0)
        tracing.disable()
        tracing.enable(tracer=tracer)
        tracer.add_sim_span("y", 1.0, 2.0)
        assert len(tracer) == 2
    finally:
        tracing.disable()


def test_tracer_rejects_bad_capacity():
    with pytest.raises(ValueError):
        tracing.Tracer(capacity=0)


def test_one_measuring_system():
    """``e2ebench`` is the only speed ruler: no second history or gate."""
    from repro.__main__ import main

    assert importlib.util.find_spec("repro.obs.report") is None
    with pytest.raises(SystemExit) as exc:
        main(["report"])
    assert exc.value.code == 2
    root = pathlib.Path(__file__).resolve().parents[1]
    for top in ("src", "benchmarks"):
        for path in (root / top).rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                assert b"BENCH_wallclock" not in path.read_bytes(), path
