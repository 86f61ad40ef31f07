"""Overload A/B bench: shed rate and tail latency with admission on/off.

Drives the canonical ``mixed_square_multiply_traffic`` recipe at 2x the
pool's modelled capacity on identical frames, once unguarded, once
behind the token-bucket + backlog admission gate, and once with the
ciphertext math fanned across a 2-thread evaluation worker pool.  The
pooled leg must return byte-identical responses to the serial leg with
exactly one terminal status per request.

Two further legs cover the rest of the overload surface: a
priority-mixed run behind admission control (per-priority latency
percentiles, ``priorities``/``by_priority``) and a kernel-fusion A/B on
the unguarded frames (``fusion``: raw vs fused launches plus simulated
device time).  All times are on the simulated device clock.
"""

import numpy as np


def test_serving_overload(quick):
    from repro.server import (
        AdmissionPolicy,
        demo_deployment,
        mixed_square_multiply_traffic,
        modelled_capacity_rps,
        serve_traffic,
    )

    requests = 24 if quick else 60
    max_batch, window_us = 8, 200.0
    params, encoder, encryptor, _decryptor, relin_wire = demo_deployment()

    probe = mixed_square_multiply_traffic(
        encoder, encryptor, requests=12,
        rng=np.random.default_rng(2022))
    capacity_rps = modelled_capacity_rps(
        params, probe, relin_wire=relin_wire,
        max_batch=max_batch, window_us=window_us)

    frames = mixed_square_multiply_traffic(
        encoder, encryptor, requests=requests,
        rng=np.random.default_rng(2023),
        mean_gap_us=1e6 / (2.0 * capacity_rps))
    policy = AdmissionPolicy(rate_rps=capacity_rps, burst=max_batch,
                             max_backlog=2 * max_batch)
    common = dict(relin_wire=relin_wire, max_batch=max_batch,
                  window_us=window_us)
    unguarded = serve_traffic(params, frames, **common)
    guarded = serve_traffic(params, frames, admission=policy,
                            stream=True, **common)
    # Same overload, with the ciphertext math fanned across a real
    # 2-thread evaluation pool: responses must be identical to the
    # serial leg and every request still gets exactly one terminal.
    pooled = serve_traffic(params, frames, workers=2, **common)
    # Priority-mixed overload behind the gate: alternating urgent/normal
    # requests, so the per-priority percentile split is populated.
    frames_prio = mixed_square_multiply_traffic(
        encoder, encryptor, requests=requests,
        rng=np.random.default_rng(2024),
        mean_gap_us=1e6 / (2.0 * capacity_rps),
        priority_cycle=(1, 0))
    prio = serve_traffic(
        params, frames_prio,
        admission=AdmissionPolicy(rate_rps=capacity_rps, burst=max_batch,
                                  max_backlog=2 * max_batch),
        **common)
    # Kernel-fusion A/B on the identical unguarded frames.
    fused = serve_traffic(params, frames, kernel_fusion=True, **common)

    def row(server):
        m = server.metrics
        return {
            "served": m.count,
            "shed": m.shed_total,
            "shed_rate": round(m.shed_rate, 4),
            "max_inflight": m.max_inflight(),
            "p50_us": round(m.latency_percentile_us(50, status="ok"), 1),
            "p95_us": round(m.latency_percentile_us(95, status="ok"), 1),
            "p99_us": round(m.latency_percentile_us(99, status="ok"), 1),
            "throughput_rps": round(m.throughput_rps, 1),
        }

    def priority_row(server, p):
        m = server.metrics
        served = sum(1 for r in m.records
                     if r.priority == p and r.status == "ok")
        out = {"served": served, "shed": m.shed_by_priority.get(p, 0)}
        if served:
            out.update({
                "p50_us": round(m.latency_percentile_us(
                    50, priority=p, status="ok"), 1),
                "p95_us": round(m.latency_percentile_us(
                    95, priority=p, status="ok"), 1),
                "p99_us": round(m.latency_percentile_us(
                    99, priority=p, status="ok"), 1),
            })
        return out

    fu = fused.metrics
    payload = {
        "capacity_rps": round(capacity_rps, 1),
        "offered_x_capacity": 2.0,
        "requests": requests,
        "no_admission": row(unguarded),
        "admission": row(guarded),
        "workers2": {**row(pooled),
                     "worker_tasks": [w["tasks"]
                                      for w in pooled.metrics.worker_stats]},
        "priorities": {**row(prio),
                       "by_priority": {str(p): priority_row(prio, p)
                                       for p in prio.metrics.priorities()}},
        "fusion": {
            "raw_launches": fu.raw_launches,
            "fused_launches": fu.fused_launches,
            "launch_reduction": round(fu.raw_launches / fu.fused_launches, 2)
            if fu.fused_launches else None,
            "baseline_time_ms": round(unguarded.metrics.span_us / 1e3, 3),
            "fused_time_ms": round(fu.span_us / 1e3, 3),
        },
    }
    # The gate must shed under 2x offered load and protect accepted p99.
    assert payload["admission"]["shed"] > 0
    assert payload["no_admission"]["shed"] == 0
    assert payload["admission"]["p99_us"] < payload["no_admission"]["p99_us"]
    # Exactly one terminal response per request either way.
    assert payload["admission"]["served"] + payload["admission"]["shed"] \
        == requests
    assert payload["no_admission"]["served"] == requests
    # The worker-pool leg preserves those semantics and every response
    # byte: multi-core evaluation must be invisible to clients.
    assert payload["workers2"]["served"] == requests
    assert payload["workers2"]["shed"] == 0
    assert sum(payload["workers2"]["worker_tasks"]) > 0
    for rid, _wire, _arrival, _expected in frames:
        a, b = unguarded.response(rid), pooled.response(rid)
        assert a.status == b.status == "ok", rid
        assert np.array_equal(a.result.data, b.result.data), rid
    # Priority leg: exactly-one-terminal accounting holds per class and
    # both classes produced latency percentiles.
    prow = payload["priorities"]
    assert prow["served"] + prow["shed"] == requests
    assert set(prow["by_priority"]) == {"0", "1"}
    for cls in prow["by_priority"].values():
        assert cls["served"] > 0 and "p99_us" in cls
    # Fusion leg: fewer launches for byte-identical responses.
    assert payload["fusion"]["fused_launches"] \
        < payload["fusion"]["raw_launches"]
    for rid, _wire, _arrival, _expected in frames:
        a, b = unguarded.response(rid), fused.response(rid)
        assert a.status == b.status == "ok", rid
        assert np.array_equal(a.result.data, b.result.data), rid
