"""Pump-driven batching, tenant fairness, and the PR-9 correctness fixes.

Covers the timer-driven serving path (``HEServer.pump_once`` /
``BatchPump``), the three regression fixes (size-close fill-instant
membership, expired-on-arrival shedding before the deadline cut, retry
backoff bounded by the request deadline), the per-tenant token-bucket +
weighted fair-share + priority-eviction machinery, and the
incremental-vs-oneshot and pump-vs-drain equivalence properties.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ciphertext import Ciphertext
from repro.server import (
    AdmissionPolicy,
    BatchPolicy,
    BatchPump,
    FrameError,
    HEServer,
    RequestBatcher,
    RetryPolicy,
    ServeRequest,
    ServerClient,
    SessionHello,
    SimClock,
    TenantFairness,
    TenantPolicy,
    encode_session_hello,
    submit_with_retry,
)
from repro.xesim import DEVICE1, DEVICE2

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _ct():
    return Ciphertext(np.ones((2, 1, 8), dtype=np.uint64), 2.0**20)


def _req(rid, arrival, *, priority=0, deadline_ms=None, client_id=""):
    r = ServeRequest(rid, "square", [_ct()], priority=priority,
                     deadline_ms=deadline_ms, client_id=client_id)
    r.arrival_us = arrival
    return r


# ---------------------------------------------------------------------------
# Bugfix 1: size-close membership is fixed at the fill instant.
# ---------------------------------------------------------------------------


class TestSizeCloseFillInstant:
    def test_high_priority_after_fill_lands_in_next_batch(self):
        """Regression: a batch that filled at t=10 physically closed
        then; a priority-9 request arriving at t=20 must open the next
        batch, not displace a member of the closed one."""
        b = RequestBatcher(BatchPolicy(max_batch=2, window_us=10_000.0))
        b.add(_req("r0", 0.0))
        b.add(_req("r1", 10.0))
        b.add(_req("urgent", 20.0, priority=9))
        first, second = b.form_batches(now_us=10_020.0)
        assert [r.request_id for r in first.requests] == ["r0", "r1"]
        assert first.closed_by == "size"
        assert first.dispatch_us == pytest.approx(10.0)
        assert [r.request_id for r in second.requests] == ["urgent"]

    def test_dispatch_stamp_is_fill_instant_not_last_chosen(self):
        """Priority selection may pick early arrivals, but the batch
        still dispatches when it *filled* — the max_batch-th eligible
        arrival — not at the latest chosen member."""
        b = RequestBatcher(BatchPolicy(max_batch=2, window_us=10_000.0))
        b.add(_req("lo", 0.0, priority=0))
        b.add(_req("hi", 5.0, priority=2))
        b.add(_req("later", 10.0, priority=2))
        batches = b.form_batches(now_us=10_010.0)
        first = batches[0]
        assert first.closed_by == "size"
        # Fill instant = 2nd eligible arrival (t=5); "later" (t=10) was
        # not present yet and cannot compete.
        assert first.dispatch_us == pytest.approx(5.0)
        assert sorted(r.request_id for r in first.requests) == ["hi", "lo"]

    def test_fill_instant_members_still_front_run(self):
        """Within the candidates present at the fill instant, priority
        order still decides membership."""
        b = RequestBatcher(BatchPolicy(max_batch=2, window_us=10_000.0))
        b.add(_req("a", 0.0, priority=0))
        b.add(_req("b", 1.0, priority=0))
        b.add(_req("c", 2.0, priority=3))
        # 2nd eligible arrival is t=1, but eligibility spans the window:
        # with three requests pending the batch fills at t=1 and "c"
        # (t=2) is beyond the fill instant.
        first = b.form_batches(now_us=10_002.0)[0]
        assert sorted(r.request_id for r in first.requests) == ["a", "b"]
        assert first.dispatch_us == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Bugfix 2: expired-on-arrival requests shed before the deadline cut.
# ---------------------------------------------------------------------------


class TestExpiredOnArrivalShed:
    # At arrival 1e12 us a deadline of 1e-10 ms (0.1 ns) vanishes in
    # float addition: deadline_us == arrival_us exactly — the stamped
    # form of an already-expired request.
    STALE_ARRIVAL = 1.0e12
    STALE_DEADLINE_MS = 1.0e-10

    def test_burst_with_one_stale_deadline_keeps_window(self):
        """Regression: one already-expired request must not pull the
        deadline cut down to the batch open and splinter the live burst
        into degenerate single-request batches."""
        t0 = self.STALE_ARRIVAL
        b = RequestBatcher(BatchPolicy(max_batch=8, window_us=200.0))
        b.add(_req("stale", t0, deadline_ms=self.STALE_DEADLINE_MS))
        b.add(_req("live0", t0 + 10.0))
        b.add(_req("live1", t0 + 20.0))
        assert b.pending[0].deadline_us == b.pending[0].arrival_us
        (batch,) = b.form_batches(now_us=t0 + 300.0)
        assert sorted(r.request_id for r in batch.requests) == \
            ["live0", "live1"]
        assert batch.closed_by == "window"
        assert batch.dispatch_us == pytest.approx(t0 + 210.0)
        shed = b.take_expired()
        assert [r.request_id for r in shed] == ["stale"]
        assert b.take_expired() == []  # drained exactly once

    def test_pump_turns_shed_into_typed_expired_response(self, ckks):
        """Server-level: the shed request gets exactly one typed
        ``expired`` terminal and the live burst still batches."""
        server = HEServer(
            ServerClient.params_wire(ckks["params"]),
            devices=[(DEVICE1, 2)],
            policy=BatchPolicy(max_batch=8, window_us=200.0),
        )
        enc = ckks["encoder"]
        ct = ckks["encryptor"].encrypt(enc.encode(np.ones(enc.slots)))
        t0 = self.STALE_ARRIVAL
        stale = ServeRequest("stale", "add", [ct, ct],
                             deadline_ms=self.STALE_DEADLINE_MS)
        live = ServeRequest("live", "add", [ct, ct])
        server.submit(stale, arrival_us=t0)
        server.submit(live, arrival_us=t0 + 10.0)
        responses = server.pump_once(now_us=t0 + 300.0)
        by_id = {r.request_id: r for r in responses}
        assert set(by_id) == {"stale", "live"}
        assert by_id["stale"].status == "expired"
        assert by_id["stale"].result is None
        assert by_id["live"].status == "ok"
        # Exactly one terminal each; the shed never re-surfaces.
        assert server.pump_once(now_us=t0 + 600.0) == []
        assert server.response("stale").status == "expired"


class TestNextCut:
    """``next_cut_us`` is the first ``now_us`` at which ``form_batches``
    closes something: just before it nothing closes, at it the batch
    does, with the reason the cut named."""

    @staticmethod
    def _closes_exactly_at(b, cut, closed_by):
        assert b.form_batches(now_us=cut - 1.0) == []
        (batch,) = b.form_batches(now_us=cut)
        assert batch.closed_by == closed_by
        assert b.next_cut_us() is None

    def test_empty_is_none(self):
        assert RequestBatcher().next_cut_us() is None

    def test_window_cut(self):
        b = RequestBatcher(BatchPolicy(max_batch=8, window_us=200.0))
        b.add(_req("r0", 100.0))
        b.add(_req("r1", 150.0))
        assert b.next_cut_us() == 300.0
        self._closes_exactly_at(b, 300.0, "window")

    def test_deadline_cut(self):
        b = RequestBatcher(BatchPolicy(max_batch=8, window_us=200.0))
        b.add(_req("r0", 100.0))
        b.add(_req("r1", 150.0, deadline_ms=0.1))  # due at 250 < 300
        assert b.next_cut_us() == 250.0
        self._closes_exactly_at(b, 250.0, "deadline")

    def test_size_fill_is_the_fill_instant(self):
        b = RequestBatcher(BatchPolicy(max_batch=2, window_us=10_000.0))
        for i, t in enumerate([0.0, 10.0, 20.0]):
            b.add(_req(f"r{i}", t))
        assert b.next_cut_us() == 10.0  # the 2nd arrival filled the batch
        (batch,) = b.form_batches(now_us=20.0)
        assert batch.closed_by == "size"
        # "r2" opens the next window.
        assert b.next_cut_us() == 10_020.0

    def test_stale_deadline_is_due_now(self):
        """An expired-on-arrival request is shed by the very next tick,
        so its cut is its own arrival: already past on a live clock."""
        t0 = TestExpiredOnArrivalShed.STALE_ARRIVAL
        b = RequestBatcher(BatchPolicy(max_batch=8, window_us=200.0))
        b.add(_req("live", t0))
        b.add(_req("stale", t0 + 10.0,
                   deadline_ms=TestExpiredOnArrivalShed.STALE_DEADLINE_MS))
        assert b.next_cut_us() == t0 + 10.0
        assert b.form_batches(now_us=t0 + 10.0) == []  # window still open
        assert [r.request_id for r in b.take_expired()] == ["stale"]
        assert b.next_cut_us() == t0 + 200.0


# ---------------------------------------------------------------------------
# Bugfix 3: retry backoff never overruns the request deadline.
# ---------------------------------------------------------------------------


class _FlakyServer:
    """Server stub whose submit always raises FrameError (transport)."""

    def __init__(self):
        self.attempts = 0

    def submit(self, wire, arrival_us=None):
        self.attempts += 1
        raise FrameError("injected transport fault")


class TestRetryDeadline:
    POLICY = RetryPolicy(max_attempts=6, base_backoff_us=400.0,
                         multiplier=2.0, jitter=0.0, timeout_ms=1.0)

    def test_retry_stops_at_request_deadline(self):
        """Regression: backoffs 400, 800, ... with a 1000 us budget —
        the 3rd attempt would arrive at t=1200 > deadline, so exactly 2
        attempts are made and the failure surfaces."""
        flaky = _FlakyServer()
        with pytest.raises(FrameError):
            submit_with_retry(flaky, b"frame", arrival_us=0.0,
                              policy=self.POLICY)
        assert flaky.attempts == 2

    def test_no_deadline_burns_full_attempt_budget(self):
        flaky = _FlakyServer()
        policy = RetryPolicy(max_attempts=6, base_backoff_us=400.0,
                             multiplier=2.0, jitter=0.0)
        with pytest.raises(FrameError):
            submit_with_retry(flaky, b"frame", arrival_us=0.0, policy=policy)
        assert flaky.attempts == 6

    def test_client_submit_pins_attempts_to_deadline(self, ckks):
        """ServerClient.submit honours the same bound: the stamped
        deadline caps resubmission, attempt count stays pinned."""
        flaky = _FlakyServer()
        client = ServerClient(
            flaky, encoder=ckks["encoder"], encryptor=ckks["encryptor"],
            decryptor=ckks["decryptor"], retry=self.POLICY,
        )
        with pytest.raises(FrameError):
            client.submit("square", [_ct()], arrival_us=0.0)
        assert flaky.attempts == 2
        assert client.retries == 1  # one resubmission happened


# ---------------------------------------------------------------------------
# Pump: timer-driven form_batches, no drain anywhere.
# ---------------------------------------------------------------------------


@pytest.fixture()
def pump_server(ckks):
    server = HEServer(
        ServerClient.params_wire(ckks["params"]),
        devices=[(DEVICE1, 2)],
        policy=BatchPolicy(max_batch=4, window_us=100.0),
    )
    enc = ckks["encoder"]
    ct = ckks["encryptor"].encrypt(enc.encode(np.ones(enc.slots)))
    return server, ct


class TestPumpOnce:
    def test_window_fires_on_timer_not_drain(self, pump_server):
        server, ct = pump_server
        server.submit(ServeRequest("p0", "add", [ct, ct]), arrival_us=0.0)
        server.submit(ServeRequest("p1", "add", [ct, ct]), arrival_us=10.0)
        assert server.pump_once(now_us=50.0) == []  # window still open
        responses = server.pump_once(now_us=150.0)
        assert sorted(r.request_id for r in responses) == ["p0", "p1"]
        assert all(r.ok for r in responses)
        assert server.pump_ticks == 2

    def test_size_close_fires_before_window(self, pump_server):
        server, ct = pump_server
        for i in range(4):  # max_batch=4 fills immediately
            server.submit(ServeRequest(f"s{i}", "add", [ct, ct]),
                          arrival_us=float(i))
        responses = server.pump_once(now_us=10.0)  # well inside the window
        assert len(responses) == 4
        assert all(r.ok for r in responses)

    def test_responses_sorted_by_completion(self, pump_server):
        server, ct = pump_server
        for i in range(6):
            server.submit(ServeRequest(f"q{i}", "add", [ct, ct]),
                          arrival_us=float(i * 30))
        responses = server.pump_once(now_us=1_000.0)
        stamps = [(r.yielded_at_us, r.request_id) for r in responses]
        assert stamps == sorted(stamps)
        assert len(responses) == 6

    def test_wire_mode_returns_encoded_frames(self, pump_server):
        from repro.server import decode_response, encode_response

        server, ct = pump_server
        server.submit(ServeRequest("w0", "add", [ct, ct]), arrival_us=0.0)
        (frame,) = map(encode_response, server.pump_once(now_us=500.0))
        assert isinstance(frame, bytes)
        assert decode_response(frame).request_id == "w0"

    def test_pump_after_drain_redelivers_nothing(self, ckks):
        """drain() returns every terminal, admission sheds included, so
        a later pump tick has nothing left to deliver a second time."""
        server = HEServer(
            ServerClient.params_wire(ckks["params"]),
            devices=[(DEVICE1, 2)],
            policy=BatchPolicy(max_batch=4, window_us=100.0),
            admission=AdmissionPolicy(rate_rps=1.0, burst=1, max_backlog=1),
        )
        enc = ckks["encoder"]
        ct = ckks["encryptor"].encrypt(enc.encode(np.ones(enc.slots)))
        ids = [server.submit(ServeRequest(f"d{i}", "add", [ct, ct]),
                             arrival_us=float(i)) for i in range(4)]
        drained = server.drain()
        assert sorted(drained) == ids
        assert sum(r.status == "overloaded" for r in drained.values()) == 3
        assert server.pump_once(now_us=10_000.0) == []


class TestBatchPump:
    def test_manual_tick_routes_responses(self, pump_server):
        server, ct = pump_server
        got = []
        pump = BatchPump(server, pump_ms=5.0, on_response=got.append)
        server.submit(ServeRequest("m0", "add", [ct, ct]), arrival_us=0.0)
        pump.tick(now_us=500.0)
        assert [r.request_id for r in got] == ["m0"]
        assert pump.ticks == 1 and pump.responses == 1

    def test_threaded_pump_serves_without_drain(self, pump_server):
        server, ct = pump_server
        got, done = [], threading.Event()

        def collect(resp):
            got.append(resp)
            if len(got) >= 2:
                done.set()

        pump = BatchPump(server, pump_ms=2.0, on_response=collect).start()
        try:
            now = pump.clock.now_us()
            server.submit(ServeRequest("t0", "add", [ct, ct]),
                          arrival_us=now)
            server.submit(ServeRequest("t1", "add", [ct, ct]),
                          arrival_us=now + 1.0)
            assert done.wait(timeout=10.0), "pump never served the batch"
        finally:
            pump.stop()
        assert not pump.running
        assert sorted(r.request_id for r in got) == ["t0", "t1"]
        assert all(r.ok for r in got)
        assert pump.errors == 0

    def test_stop_is_prompt_with_a_long_heartbeat(self, pump_server):
        """stop() wakes the sleeping loop instead of waiting out a 10 s
        heartbeat."""
        server, _ = pump_server
        pump = BatchPump(server, pump_ms=10_000.0).start()
        time.sleep(0.02)  # let the loop reach its wait
        t0 = time.monotonic()
        pump.stop()
        assert time.monotonic() - t0 < 0.1
        assert not pump.running

    def test_stop_serves_requests_still_in_their_window(self, ckks):
        """stop() ticks at every remaining cut: a request whose 0.5 s
        window is still open gets its terminal instead of staying
        pending."""
        server = HEServer(
            ServerClient.params_wire(ckks["params"]),
            devices=[(DEVICE1, 2)],
            policy=BatchPolicy(max_batch=4, window_us=500_000.0),
        )
        enc = ckks["encoder"]
        ct = ckks["encryptor"].encrypt(enc.encode(np.ones(enc.slots)))
        got = []
        pump = BatchPump(server, pump_ms=5.0, on_response=got.append).start()
        server.submit(ServeRequest("late", "add", [ct, ct]),
                      arrival_us=pump.clock.now_us())
        pump.stop()
        assert [r.request_id for r in got] == ["late"]
        assert got[0].ok
        assert server.batcher.depth == 0

    def test_rejects_nonpositive_period(self, pump_server):
        server, _ = pump_server
        with pytest.raises(ValueError):
            BatchPump(server, pump_ms=0.0)

    def test_simclock_is_monotone_microseconds(self):
        clock = SimClock()
        a = clock.now_us()
        time.sleep(0.002)
        b = clock.now_us()
        assert b >= a + 1_000.0  # at least 1 ms of simulated time passed


# ---------------------------------------------------------------------------
# Tenant fairness: token buckets, weighted membership, priority eviction.
# ---------------------------------------------------------------------------


class TestTenantFairness:
    def test_bucket_refills_per_tenant(self):
        fair = TenantFairness(TenantPolicy(rate_rps=1_000.0, burst=2))
        assert fair.admit("a", 0.0)
        assert fair.admit("a", 1.0)
        assert not fair.admit("a", 2.0)  # burst exhausted
        assert fair.admit("b", 2.0)      # other tenants unaffected
        # 1000 req/s = 1 token per 1000 us.
        assert fair.admit("a", 1_050.0)

    def test_per_tenant_policy_overrides_default(self):
        fair = TenantFairness(
            TenantPolicy(rate_rps=10.0, burst=1, weight=1.0),
            per_tenant={"gold": TenantPolicy(rate_rps=10.0, burst=3,
                                             weight=4.0)},
        )
        assert fair.weight("gold") == 4.0 and fair.weight("x") == 1.0
        assert [fair.admit("gold", 0.0) for _ in range(3)] == [True] * 3
        assert not fair.admit("gold", 0.0)
        assert fair.admit("x", 0.0) and not fair.admit("x", 0.0)
        assert set(fair.weights()) == {"gold", "x"}

    def test_weighted_membership_caps_bursty_tenant(self):
        """With weights 3:1 and 4 slots, a size-closed batch takes 3 of
        the heavy tenant and 1 of the light one — the bursty light
        tenant cannot monopolise."""
        fair = TenantFairness(
            TenantPolicy(rate_rps=1e9, burst=64),
            per_tenant={"heavy": TenantPolicy(rate_rps=1e9, burst=64,
                                              weight=3.0),
                        "light": TenantPolicy(rate_rps=1e9, burst=64,
                                              weight=1.0)},
        )
        b = RequestBatcher(BatchPolicy(max_batch=4, window_us=10_000.0))
        b.weights_fn = fair.weights
        for i in range(4):
            b.add(_req(f"h{i}", float(i), client_id="heavy"))
            b.add(_req(f"l{i}", float(i) + 0.5, client_id="light"))
        first = b.form_batches(now_us=10_004.0)[0]
        by_tenant = {}
        for r in first.requests:
            by_tenant[r.client_id] = by_tenant.get(r.client_id, 0) + 1
        assert by_tenant == {"heavy": 3, "light": 1}
        assert first.closed_by == "size"

    def test_over_budget_tenant_sheds_own_lowest_priority(self, ckks):
        """A tenant over its rate budget sheds its *own* lowest-priority
        pending request when the newcomer outranks it; the victim gets a
        typed overloaded terminal and vanishes from the request log."""
        server = HEServer(
            ServerClient.params_wire(ckks["params"]),
            devices=[(DEVICE1, 2)],
            policy=BatchPolicy(max_batch=8, window_us=500.0),
            tenant_fairness=TenantFairness(
                TenantPolicy(rate_rps=10.0, burst=1)),
        )
        enc = ckks["encoder"]
        ct = ckks["encryptor"].encrypt(enc.encode(np.ones(enc.slots)))
        server.handshake(encode_session_hello(SessionHello(client_id="acme")))
        server.submit(ServeRequest("low", "add", [ct, ct], priority=0,
                                   client_id="acme"), arrival_us=0.0)
        server.submit(ServeRequest("hi", "add", [ct, ct], priority=2,
                                   client_id="acme"), arrival_us=1.0)
        victim = server.response("low")
        assert victim.status == "overloaded"
        assert "preempted" in victim.error
        # The pump delivers both terminals: the victim's typed shed and
        # the newcomer's served result.
        by_id = {r.request_id: r for r in server.pump_once(now_us=1_000.0)}
        assert set(by_id) == {"low", "hi"}
        assert by_id["low"].status == "overloaded"
        assert by_id["hi"].ok
        assert [r.request_id for r in server.request_log] == ["hi"]
        assert server.metrics.shed_by_tenant == {"acme": 1}

    def test_shed_without_victim_rejects_newcomer(self, ckks):
        """Equal-priority newcomer from an over-budget tenant finds no
        lower-priority victim and is itself shed (typed overloaded)."""
        server = HEServer(
            ServerClient.params_wire(ckks["params"]),
            devices=[(DEVICE1, 2)],
            policy=BatchPolicy(max_batch=8, window_us=500.0),
            tenant_fairness=TenantFairness(
                TenantPolicy(rate_rps=10.0, burst=1)),
        )
        enc = ckks["encoder"]
        ct = ckks["encryptor"].encrypt(enc.encode(np.ones(enc.slots)))
        server.handshake(encode_session_hello(SessionHello(client_id="acme")))
        server.submit(ServeRequest("first", "add", [ct, ct],
                                   client_id="acme"), arrival_us=0.0)
        server.submit(ServeRequest("second", "add", [ct, ct],
                                   client_id="acme"), arrival_us=1.0)
        assert server.response("second").status == "overloaded"
        by_id = {r.request_id: r for r in server.pump_once(now_us=1_000.0)}
        assert set(by_id) == {"first", "second"}
        assert by_id["first"].ok
        assert by_id["second"].status == "overloaded"


# ---------------------------------------------------------------------------
# Property: incremental pump == one-shot batching, byte for byte.
# ---------------------------------------------------------------------------


def _batch_fingerprint(batches):
    return [
        (
            [r.request_id for r in b.requests],
            b.open_us,
            b.dispatch_us,
            b.closed_by,
        )
        for b in batches
    ]


ARRIVALS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=2_000.0,
                  allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=3),
        st.one_of(st.none(),
                  st.floats(min_value=0.05, max_value=5.0,
                            allow_nan=False, allow_infinity=False)),
    ),
    min_size=1, max_size=16,
)
TICKS = st.lists(
    st.floats(min_value=0.0, max_value=3_000.0,
              allow_nan=False, allow_infinity=False),
    min_size=0, max_size=6,
)


POLICIES = st.tuples(st.integers(min_value=1, max_value=5),
                     st.floats(min_value=0.0, max_value=400.0,
                               allow_nan=False, allow_infinity=False))


def _assert_pump_matches_oneshot(seq, policy, pump):
    """``pump(live, reqs, t_final)`` feeds every request of the trace
    into ``live`` with its own interleaved ticks and returns the batches
    they closed; they, the shed sets and the leftovers must equal one
    ``form_batches`` over the whole trace."""
    max_batch, window_us = policy
    reqs = sorted(
        (_req(f"r{i:03d}", a, priority=p, deadline_ms=d)
         for i, (a, p, d) in enumerate(seq)),
        key=lambda r: (r.arrival_us, r.request_id),
    )
    t_final = max(r.arrival_us for r in reqs) + window_us + 1.0

    oneshot = RequestBatcher(BatchPolicy(max_batch=max_batch,
                                         window_us=window_us))
    for r in reqs:
        oneshot.add(r)
    expected = oneshot.form_batches(now_us=t_final)

    live = RequestBatcher(BatchPolicy(max_batch=max_batch,
                                      window_us=window_us))
    got = pump(live, reqs, t_final)
    got += live.form_batches(now_us=t_final)

    assert _batch_fingerprint(got) == _batch_fingerprint(expected)
    assert sorted(r.request_id for r in live.take_expired()) == \
        sorted(r.request_id for r in oneshot.take_expired())
    assert sorted(r.request_id for r in live.pending) == \
        sorted(r.request_id for r in oneshot.pending)


class TestIncrementalPumpEquivalence:
    @settings(max_examples=150, **COMMON)
    @given(seq=ARRIVALS, ticks=TICKS, policy=POLICIES)
    def test_interleaved_pump_matches_oneshot(self, seq, ticks, policy):
        """Feeding arrivals incrementally with arbitrary interleaved
        pump calls yields batches identical to handing the batcher the
        whole trace at once: membership, open/dispatch stamps and close
        reasons all match, as do the shed sets and leftovers."""
        def arbitrary_ticks(live, reqs, t_final):
            got, fed = [], 0
            for tick in sorted(ticks):
                while fed < len(reqs) and reqs[fed].arrival_us <= tick:
                    live.add(reqs[fed])
                    fed += 1
                got += live.form_batches(now_us=min(tick, t_final))
            for r in reqs[fed:]:
                live.add(r)
            return got

        _assert_pump_matches_oneshot(seq, policy, arbitrary_ticks)

    @settings(max_examples=150, **COMMON)
    @given(seq=ARRIVALS, policy=POLICIES)
    def test_ticks_at_each_next_cut_match_oneshot(self, seq, policy):
        """The schedule the threaded pump follows: after each arrival,
        tick exactly at every ``next_cut_us()`` due before the next one
        (or at the arrival itself when the cut is already past).  Every
        such tick must close or shed something — a cut that closes
        nothing would spin the pump — and the result still equals
        one-shot batching, so no cut is missed either."""
        def ticks_at_cuts(live, reqs, t_final):
            got, now = [], 0.0
            for i, r in enumerate(reqs):
                live.add(r)
                horizon = (reqs[i + 1].arrival_us if i + 1 < len(reqs)
                           else t_final)
                if horizon == r.arrival_us:
                    continue  # a tick at this instant sees the whole tie
                now = max(now, r.arrival_us)
                while (cut := live.next_cut_us()) is not None \
                        and cut < horizon:
                    now = max(now, cut)
                    depth = live.depth
                    got += live.form_batches(now_us=now)
                    assert live.depth < depth, (cut, now)
            return got

        _assert_pump_matches_oneshot(seq, policy, ticks_at_cuts)

    @settings(max_examples=25, **COMMON)
    @given(seq=ARRIVALS.map(lambda s: s[:8]), policy=POLICIES)
    def test_pump_at_cuts_matches_drain(self, ckks, seq, policy):
        """Server level: ticking ``pump_once`` at each ``next_cut_us()``
        and one ``drain()`` over the same arrivals give every request the
        same status, stamps, device, batch size and result bytes."""
        max_batch, window_us = policy
        enc = ckks["encoder"]
        ct = ckks["encryptor"].encrypt(enc.encode(np.ones(enc.slots)))

        def serve(drive):
            server = HEServer(
                ServerClient.params_wire(ckks["params"]),
                devices=[(DEVICE1, 2), (DEVICE2, 1)],
                policy=BatchPolicy(max_batch=max_batch, window_us=window_us),
            )
            for i, (arrival, priority, deadline_ms) in enumerate(seq):
                server.submit(ServeRequest(f"r{i:03d}", "add", [ct, ct],
                                           priority=priority,
                                           deadline_ms=deadline_ms),
                              arrival_us=arrival)
            drive(server)
            return [server.response(f"r{i:03d}") for i in range(len(seq))]

        def pump_at_cuts(server):
            while (cut := server.next_cut_us()) is not None:
                server.pump_once(now_us=cut)

        def fingerprint(resp):
            return (resp.status, resp.dispatch_us, resp.complete_us,
                    resp.device, resp.batch_size,
                    None if resp.result is None
                    else resp.result.data.tobytes())

        drained = serve(lambda server: server.drain())
        pumped = serve(pump_at_cuts)
        assert list(map(fingerprint, pumped)) == \
            list(map(fingerprint, drained))
