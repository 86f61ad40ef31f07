"""Property-based tests for priority/deadline scheduling and admission.

For random arrival sequences the batcher/dispatcher pair must uphold the
serving contract: no admitted request is ever dropped or served twice,
no batch dispatches past a member's deadline or its own latency budget,
higher-priority requests front-run lower ones inside a batch window, and
every submitted request receives exactly one typed terminal response.
Plus the empty-then-burst flush regression: the latency budget timer
resets per batch, never against the server-lifetime clock.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ciphertext import Ciphertext
from repro.server import (
    AdmissionPolicy,
    BatchPolicy,
    HEServer,
    RequestBatcher,
    ServeRequest,
    ServerClient,
)
from repro.xesim import DEVICE1, DEVICE2

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _ct():
    return Ciphertext(np.ones((2, 1, 8), dtype=np.uint64), 2.0**20)


ARRIVAL_SEQS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=2000.0,
                  allow_nan=False, allow_infinity=False),  # arrival us
        st.integers(min_value=0, max_value=3),             # priority
        st.one_of(st.none(),
                  st.floats(min_value=0.05, max_value=5.0,
                            allow_nan=False, allow_infinity=False)),
    ),
    min_size=1, max_size=16,
)
POLICIES = st.tuples(st.integers(min_value=1, max_value=5),
                     st.floats(min_value=0.0, max_value=400.0,
                               allow_nan=False, allow_infinity=False))


class TestBatcherProperties:
    @settings(max_examples=120, **COMMON)
    @given(seq=ARRIVAL_SEQS, policy=POLICIES,
           pump_at=st.one_of(st.none(),
                             st.floats(min_value=0.0, max_value=3000.0,
                                       allow_nan=False,
                                       allow_infinity=False)))
    def test_scheduling_invariants(self, seq, policy, pump_at):
        max_batch, window_us = policy
        batcher = RequestBatcher(BatchPolicy(max_batch=max_batch,
                                             window_us=window_us))
        ct = _ct()
        reqs = []
        for i, (arrival, priority, deadline_ms) in enumerate(seq):
            r = ServeRequest(f"r{i:03d}", "square", [ct],
                             priority=priority, deadline_ms=deadline_ms)
            r.arrival_us = arrival
            reqs.append(r)
            batcher.add(r)

        batches = []
        if pump_at is not None:
            # A mid-run pump must only close batches whose own budget
            # expired; the final pump past every window picks up the rest.
            batches += batcher.form_batches(now_us=pump_at)
        batches += batcher.form_batches(
            now_us=max(r.arrival_us for r in reqs) + window_us)

        # 1. Partition exactness: no request dropped, none duplicated.
        placed = [r.request_id for b in batches for r in b.requests]
        assert sorted(placed) == sorted(r.request_id for r in reqs)
        assert batcher.depth == 0

        batch_of = {r.request_id: bi
                    for bi, b in enumerate(batches) for r in b.requests}
        for b in batches:
            # 2. Size budget.
            assert b.size <= max_batch
            for m in b.requests:
                # 3. Nothing dispatches before it arrives.
                assert b.dispatch_us >= m.arrival_us - 1e-9
                # 4. Latency budget: the batch never dispatches past its
                #    own open + window (per-batch timer).
                assert b.dispatch_us <= b.open_us + window_us + 1e-9
                # 5. Deadline-aware cutting: no member is dispatched
                #    after its absolute deadline.
                if m.deadline_us is not None:
                    assert b.dispatch_us <= m.deadline_us + 1e-9

        # 6. Front-running: when a size-closed batch left eligible
        #    requests behind, everything left behind had priority <= the
        #    lowest priority that made the batch.
        for bi, b in enumerate(batches):
            if b.closed_by != "size":
                continue
            floor = min(m.priority for m in b.requests)
            for r in reqs:
                # Exact comparison: the batcher's eligibility test is
                # exact, so a request a hair after the dispatch stamp
                # was legitimately out of reach.
                if batch_of[r.request_id] > bi and \
                        r.arrival_us <= b.dispatch_us:
                    assert r.priority <= floor

    @settings(max_examples=60, **COMMON)
    @given(seq=ARRIVAL_SEQS, policy=POLICIES)
    def test_uniform_priority_is_fifo(self, seq, policy):
        """With equal priorities and no deadlines the priority queue
        degrades to the original FIFO window semantics: batch membership
        follows arrival order."""
        max_batch, window_us = policy
        batcher = RequestBatcher(BatchPolicy(max_batch=max_batch,
                                             window_us=window_us))
        ct = _ct()
        for i, (arrival, _p, _d) in enumerate(seq):
            r = ServeRequest(f"r{i:03d}", "square", [ct])
            r.arrival_us = arrival
            batcher.add(r)
        batches = batcher.form_batches(
            now_us=max(r.arrival_us for r in batcher.pending) + window_us)
        flat = [(r.arrival_us, r.request_id)
                for b in batches for r in b.requests]
        assert flat == sorted(flat)


class TestFlushTimerRegression:
    """The latency budget timer resets per batch, not per server lifetime."""

    def test_empty_then_burst_dispatches_at_own_window(self):
        """Regression: a partial burst arriving long after the clock has
        advanced must dispatch at its own open+window, not at the
        server clock (which once stamped `max(last, now)`)."""
        batcher = RequestBatcher(BatchPolicy(max_batch=8, window_us=200.0))
        ct = _ct()
        for i, arrival in enumerate([1_000_000.0, 1_000_010.0]):
            r = ServeRequest(f"b{i}", "square", [ct])
            r.arrival_us = arrival
            batcher.add(r)
        # Server-lifetime clock far past the burst (earlier epochs ran).
        (batch,) = batcher.form_batches(now_us=5_000_000.0)
        assert batch.dispatch_us == pytest.approx(1_000_200.0)
        assert batch.closed_by == "window"

    def test_pump_fires_window_timer_without_new_arrivals(self):
        """form_batches(now_us=...) closes a window-expired partial
        batch at its cut without a later arrival — the pump path."""
        batcher = RequestBatcher(BatchPolicy(max_batch=8, window_us=100.0))
        ct = _ct()
        r = ServeRequest("p0", "square", [ct])
        r.arrival_us = 50.0
        batcher.add(r)
        assert batcher.form_batches(now_us=149.0) == []
        (batch,) = batcher.form_batches(now_us=151.0)
        assert batch.closed_by == "window"
        assert batch.dispatch_us == pytest.approx(150.0)
        assert batcher.depth == 0

    def test_server_burst_after_idle_keeps_latency_budget(self, ckks, rng):
        """End-to-end: after a served epoch pushes the server clock far
        ahead, a later partial burst's queue wait stays within its own
        batching window."""
        server = HEServer(
            ServerClient.params_wire(ckks["params"]),
            devices=[(DEVICE2, 1)],
            policy=BatchPolicy(max_batch=8, window_us=200.0),
        )
        client = ServerClient(
            server, encoder=ckks["encoder"], encryptor=ckks["encryptor"],
            decryptor=ckks["decryptor"], relin_key=ckks["relin"],
        )
        v = rng.normal(size=ckks["encoder"].slots)
        for i in range(4):
            client.submit_square(v, arrival_us=float(i))
        client.serve()
        clock_after_wave1 = max(
            r.complete_us for r in server._responses.values())
        # The burst arrives while the previous epoch is still in flight.
        burst_open = clock_after_wave1 / 2
        r1 = client.submit_square(v, arrival_us=burst_open)
        r2 = client.submit_square(v, arrival_us=burst_open + 10.0)
        client.serve()
        resp = client.response(r1)
        assert resp.dispatch_us <= burst_open + 200.0 + 1e-6
        assert client.response(r2).ok and resp.ok


@pytest.fixture()
def cheap_pair(ckks):
    server = HEServer(
        ServerClient.params_wire(ckks["params"]),
        devices=[(DEVICE1, 2)],
        policy=BatchPolicy(max_batch=4, window_us=100.0),
    )
    client = ServerClient(
        server, encoder=ckks["encoder"], encryptor=ckks["encryptor"],
        decryptor=ckks["decryptor"], relin_key=ckks["relin"],
    )
    return server, client


class TestExactlyOneTerminalResponse:
    @settings(max_examples=8, **COMMON)
    @given(
        seq=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=3000.0,
                          allow_nan=False, allow_infinity=False),
                st.integers(min_value=0, max_value=2),
                st.one_of(st.none(),
                          st.floats(min_value=0.1, max_value=3.0,
                                    allow_nan=False,
                                    allow_infinity=False)),
            ),
            min_size=1, max_size=6,
        ),
        with_admission=st.booleans(),
    )
    def test_every_request_one_terminal_response(self, ckks, seq,
                                                 with_admission):
        """Random arrivals/priorities/deadlines, admission on or off:
        every submitted request ends in exactly one typed terminal
        state; deadline-shed requests are never also served; no admitted
        request is dropped."""
        server = HEServer(
            ServerClient.params_wire(ckks["params"]),
            devices=[(DEVICE1, 2)],
            policy=BatchPolicy(max_batch=4, window_us=100.0),
            admission=(AdmissionPolicy(rate_rps=2000.0, burst=2,
                                       max_backlog=4)
                       if with_admission else None),
        )
        enc = ckks["encoder"]
        ct = ckks["encryptor"].encrypt(enc.encode(np.ones(enc.slots)))
        arrivals = sorted(a for a, _, _ in seq)
        ids = []
        for i, ((_, priority, deadline_ms), arrival) in enumerate(
                zip(seq, arrivals)):
            req = ServeRequest(f"q{i}", "add", [ct, ct],
                               priority=priority, deadline_ms=deadline_ms)
            ids.append(server.submit(req, arrival_us=arrival))
        streamed = list(server.stream())

        admitted = {r.request_id for r in server.request_log}
        seen = set()
        for rid in ids:
            resp = server.response(rid)  # exactly one terminal response
            assert rid not in seen
            seen.add(rid)
            assert resp.status in {"ok", "error", "overloaded", "expired"}
            if resp.status == "overloaded":
                assert rid not in admitted  # shed before queueing
                assert resp.result is None
            else:
                assert rid in admitted  # no admitted request dropped
            if resp.status == "expired":
                assert resp.result is None  # never served after rejection
                assert resp.priority is not None
            if resp.status == "ok":
                assert resp.result is not None
        # Streamed yields cover every submitted request exactly once,
        # admission sheds included.
        streamed_ids = [r.request_id for r in streamed]
        assert sorted(streamed_ids) == sorted(ids)
        if not with_admission:
            assert len(admitted) == len(ids)
