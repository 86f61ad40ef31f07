"""Unit tests of the benchmark's own helpers (never of repo behaviour or
CLI text: later PRs cannot edit this file, so it must not pin them)."""

import json
import re
from pathlib import Path

import pytest

from e2ebench import compare, schedule, spans, spec, stats

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_percentile_is_nearest_rank_half_up():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 3.0      # rank floor(2.5 + .5) = 3
    assert stats.percentile(values, 90) == 5.0      # rank floor(4.5 + .5) = 5
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0   # rank 2.5 -> 2
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 62.5) == 3.0  # rank 3.0
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_summary_uses_the_drivers_quartiles():
    s = stats.summary([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert s["median"] == 5.5
    assert (s["q1"], s["q3"]) == (2.75, 8.25)
    assert s["rel_iqr"] == pytest.approx(1.0)


def test_span_self_time_subtracts_children_once():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.span("request", "r1"):         # 0 .. 10
        with tracer.span("decode", "r1"):       # 1 .. 3
            pass
        with tracer.span("execute", "r1"):      # 4 .. 6
            pass
    assert [s["parent"] for s in tracer.spans] == [None, 0, 0]
    assert {s["request"] for s in tracer.spans} == {"r1"}
    selfs = spans.self_times(tracer.spans)
    assert selfs == {0: 6.0, 1: 2.0, 2: 2.0}
    assert spans.self_time_by_name(tracer.spans)["request"] == [6.0]


def test_span_self_time_merges_overlapping_and_clips_children():
    recs = [
        {"id": 0, "name": "p", "parent": None, "request": "", "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "request": "", "start": 1.0, "end": 5.0},
        {"id": 2, "name": "b", "parent": 0, "request": "", "start": 4.0, "end": 12.0},
    ]
    assert spans.self_times(recs)[0] == pytest.approx(1.0)   # covered 1..10


def test_same_seed_same_schedule_other_seed_other_schedule():
    ops = spec.MIX_OPS
    a = schedule.request_stream(1, "w", ops, 200, think_ms=4.0)
    assert a == schedule.request_stream(1, "w", ops, 200, think_ms=4.0)
    assert a != schedule.request_stream(2, "w", ops, 200, think_ms=4.0)
    assert a != schedule.request_stream(1, "other", ops, 200, think_ms=4.0)
    assert {p.op for p in a} == set(ops)
    # every block of 4 * len(ops) requests holds each op four times
    assert all(sum(p.op == op for p in a[:16]) == 4 for op in ops)
    assert all(0 <= p.variant < schedule.VARIANTS for p in a)
    assert all(0.0 <= p.think_s < 4e-3 for p in a)
    due = schedule.poisson_arrivals(1, "w", 50.0, 10.0)
    assert due == schedule.poisson_arrivals(1, "w", 50.0, 10.0)
    assert due != schedule.poisson_arrivals(2, "w", 50.0, 10.0)
    assert due == sorted(due) and 0.0 <= due[0] and due[-1] < 10.0
    assert len(due) == 500          # 50/s for 10 s, on every seed


def test_benchmark_json_and_the_code_name_the_same_things():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    for section, table in (("end_to_end", spec.END_TO_END),
                           ("per_layer", spec.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in doc[section]} == table
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert "setup_s" in spec.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert doc["paths"] == ["e2ebench"]


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]
    shift = lambda k: [v * k for v in base]
    assert compare.verdict(base, shift(0.8), "lower", 0.1) == "improved"
    assert compare.verdict(base, shift(1.2), "lower", 0.1) == "regressed"
    assert compare.verdict(base, shift(1.2), "higher", 0.1) == "improved"
    assert compare.verdict(base, shift(0.8), "higher", 0.1) == "regressed"
    assert compare.verdict(base, shift(1.02), "lower", 0.1) == "within bound"
    # wins every pair and shifts beyond A's IQR, without separating the runs
    assert compare.verdict(base, shift(0.985), "lower", 0.1) == "improved"
    assert compare.verdict(base[:5], shift(0.985)[:5], "lower", 0.1) == "within bound"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, shift(1.0), "lower", 0.1) == "unresolved"
