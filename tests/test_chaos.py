"""End-to-end chaos soak tests + backend circuit-breaker unit tests."""

import json

import pytest

from repro.faults.chaos import ChaosConfig, chaos_plan, run_chaos
from repro.native import backend, glue


@pytest.fixture(autouse=True)
def _clean_backend_state():
    """Every test here leaves the process-global backend as it found it."""
    backend.reset_breaker()
    yield
    backend.set_backend(None)
    backend.reset_breaker()


class TestChaosSoak:
    @pytest.fixture(scope="class")
    def report(self):
        # The CI-sized soak: >= 200 requests, 2 workers, the full plan.
        return run_chaos(ChaosConfig.quick(seed=8))

    def test_all_invariants_pass(self, report):
        failed = [inv for inv in report.invariants if not inv["ok"]]
        assert report.ok, f"failed invariants: {failed}\n{report.render()}"

    def test_soak_shape_matches_acceptance(self, report):
        assert report.requests >= 200
        assert report.config["workers"] == 2
        modes = {key.split("/")[1] for key in report.injections}
        assert len(modes) >= 4, report.injections

    def test_watchdog_and_requeue_observed(self, report):
        assert report.pool["hung"] >= 1
        assert report.pool["requeued"] >= 1
        assert report.dispatcher_requeued >= 1

    def test_no_thread_leaks_and_recovery(self, report):
        assert report.pool["leaked"] == 0
        assert report.pool["healthy"] is True

    def test_duplicates_were_absorbed(self, report):
        assert report.deduped >= 1

    def test_breaker_tripped_when_native_available(self, report):
        if not report.native_armed:
            pytest.skip("native backend unavailable in this environment")
        assert report.breaker["degraded_to"] == "serial"
        assert report.fallback_delta >= 1

    def test_report_serializes(self, report):
        payload = json.loads(report.to_json())
        assert payload["ok"] == report.ok
        assert payload["requests"] == report.requests
        assert isinstance(payload["invariants"], list)
        text = report.render()
        assert "CHAOS PASS" in text or "CHAOS FAIL" in text

    def test_plan_is_deterministic_for_a_config(self):
        cfg = ChaosConfig.quick(seed=8)
        assert chaos_plan(cfg, native=False).rules == \
            chaos_plan(cfg, native=False).rules


class TestCircuitBreaker:
    def test_trips_at_threshold(self):
        start = backend.get_backend()
        if start == "serial":
            pytest.skip("already at the lowest tier")
        assert backend.note_kernel_fault() is None
        assert backend.note_kernel_fault() is None
        assert backend.breaker_state()["faults"] == 2
        assert backend.note_kernel_fault() == "serial"
        assert backend.get_backend() == "serial"
        state = backend.breaker_state()
        assert state["degraded_to"] == "serial"
        assert state["faults"] == 0  # counter cleared at the trip
        assert state["threshold"] == backend.KERNEL_FAULT_THRESHOLD == 3

    def test_native_downgrade_counts_the_fallback(self):
        if not glue.available():
            pytest.skip("native backend unavailable")
        backend.set_backend("native")
        before = glue.fallback_count()
        assert backend.degrade(reason="test") == "serial"
        assert glue.fallback_count() == before + 1
        assert backend.get_backend() == "serial"

    def test_degrade_from_serial_is_a_noop(self):
        backend.set_backend("serial")
        assert backend.degrade() == "serial"
        assert backend.breaker_state()["degraded_to"] is None

    def test_reset_breaker_clears_state(self):
        backend.note_kernel_fault()
        backend.reset_breaker()
        state = backend.breaker_state()
        assert state["faults"] == 0 and state["degraded_to"] is None

    def test_glue_kernel_faultpoint_feeds_the_breaker(self):
        """An injected native-kernel fault degrades the call (None -> NumPy
        fallback) and counts toward the breaker."""
        if not glue.available():
            pytest.skip("native backend unavailable")
        from repro.faults import FaultPlan, FaultRule, use_plan

        plan = FaultPlan([
            FaultRule("native.kernel", "kernel_exception", hits=(1,)),
        ])
        backend.set_backend("native")
        with use_plan(plan):
            assert glue._kernel_fault() is True
        assert backend.breaker_state()["faults"] == 1
        # Without a plan, the probe is free and never fires.
        assert glue._kernel_fault() is False
