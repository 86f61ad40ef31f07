"""End-to-end chaos soak: mixed serving traffic under an armed fault plan.

The resilience claim this repo makes is not "each mechanism has a unit
test" but "the serving stack survives *combinations* of failures without
changing a single correct result".  This harness asserts that claim the
only way it can be asserted — by running it:

1. **Baseline run** — the full mixed square/multiply workload
   (:func:`~repro.server.traffic.mixed_square_multiply_traffic`) on a
   two-device pool with a real worker pool, no faults.  Every ``ok``
   ciphertext is recorded byte-for-byte.
2. **Chaos run** — the *same frames* with a seeded
   :class:`~repro.faults.FaultPlan` arming corrupt/truncated frames,
   worker hangs and crashes, a device failure, kernel exceptions, slow
   executions — and (when the native backend is live) scheduled
   native-kernel faults that trip the circuit breaker.
3. **Invariants** — exactly one terminal status per accepted request;
   every ``ok`` result bit-identical to the baseline; a bounded non-ok
   ratio; the watchdog observed the hang and requeued; the device
   failure requeued; the pool ends healthy with zero leaked threads;
   the breaker degraded ``native -> serial`` and counted the fallback.

A separate one-shot *build drill* arms ``native.build``/``build_failure``
and asserts the toolchain failure surfaces as the typed
:class:`~repro.native.build.NativeBuildError` (it never touches the
loaded library's state).

Everything is seeded: ``python -m repro chaos --seed 8`` replays the
same schedule-based faults every run (probability-based faults draw from
one seeded stream; under pool concurrency only their assignment to
requests can vary, never the invariants).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import FaultPlan, FaultRule, use_plan
from ..native import backend, glue
from ..native.build import NativeBuildError, build
from ..server.batcher import BatchPolicy
from ..server.client import RetryPolicy, submit_with_retry
from ..server.dispatcher import HEServer
from ..server.request import FrameError
from ..server.traffic import demo_deployment, mixed_square_multiply_traffic
from ..xesim.devices import DEVICE1, DEVICE2

__all__ = ["ChaosConfig", "ChaosReport", "chaos_plan", "run_chaos"]


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs for one chaos soak (defaults = the full local run)."""

    seed: int = 8
    requests: int = 400
    degree: int = 512
    workers: int = 2
    watchdog_s: float = 0.25
    max_batch: int = 8
    window_us: float = 200.0
    #: Upper bound on the fraction of requests that may end non-``ok``
    #: (injected kernel faults + anything lost to exhausted retries).
    max_non_ok_ratio: float = 0.35
    #: Resubmit every Nth frame a second time (dedup exercise).
    duplicate_every: int = 17

    @classmethod
    def quick(cls, *, seed: int = 8) -> "ChaosConfig":
        """The CI-sized soak: still >= 200 requests, smaller ring."""
        return cls(seed=seed, requests=200, degree=256)


def chaos_plan(cfg: ChaosConfig, *, native: bool) -> FaultPlan:
    """The soak's fault schedule (>= 4 modes armed, more with native).

    Schedule-based rules pin the one-shot dramas (hang, crash, device
    loss, breaker trip) to exact check indices so every seeded run
    exercises them; the background noise (frame corruption, kernel
    exceptions, slowdowns) is Bernoulli from the plan's seeded stream.
    """
    rules = [
        FaultRule("wire.decode", "corrupt_frame", probability=0.04),
        FaultRule("wire.decode", "truncate_frame", probability=0.02),
        # Hang one worker well past the watchdog deadline; crash another
        # later.  Hits are per-point task-pickup indices.
        FaultRule("worker.execute", "worker_hang", hits=(30,),
                  param=2.5 * cfg.watchdog_s),
        FaultRule("worker.execute", "worker_crash", hits=(75,)),
        # Lose the first pool device just after its 3rd dispatch: its
        # in-flight chunk requeues onto the survivor.
        FaultRule("dispatcher.device", "device_failure", hits=(3,),
                  max_fires=1),
        FaultRule("dispatcher.execute", "kernel_exception",
                  probability=0.02),
        FaultRule("dispatcher.execute", "slow_execution",
                  probability=0.03, param=0.002),
    ]
    if native:
        # Three scheduled native-kernel faults == the default breaker
        # threshold: the third one trips native -> serial.
        rules.append(FaultRule("native.kernel", "kernel_exception",
                               hits=(5, 10, 15), max_fires=3))
    return FaultPlan(rules, seed=cfg.seed)


@dataclass
class ChaosReport:
    """Everything a soak run measured, plus the invariant verdicts."""

    config: Dict[str, object]
    requests: int = 0
    accepted: int = 0
    lost: int = 0
    statuses: Dict[str, int] = field(default_factory=dict)
    deduped: int = 0
    injections: Dict[str, int] = field(default_factory=dict)
    pool: Dict[str, object] = field(default_factory=dict)
    dispatcher_requeued: int = 0
    native_armed: bool = False
    breaker: Dict[str, object] = field(default_factory=dict)
    fallback_delta: int = 0
    build_drill_ok: bool = False
    invariants: List[Dict[str, object]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.invariants.append(
            {"name": name, "ok": bool(ok), "detail": detail})

    @property
    def ok(self) -> bool:
        return all(inv["ok"] for inv in self.invariants)

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "ok": self.ok,
            "requests": self.requests,
            "accepted": self.accepted,
            "lost": self.lost,
            "statuses": self.statuses,
            "deduped": self.deduped,
            "injections": self.injections,
            "pool": self.pool,
            "dispatcher_requeued": self.dispatcher_requeued,
            "native_armed": self.native_armed,
            "breaker": self.breaker,
            "fallback_delta": self.fallback_delta,
            "build_drill_ok": self.build_drill_ok,
            "invariants": self.invariants,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def render(self) -> str:
        lines = [
            f"chaos soak: {self.requests} requests, "
            f"seed {self.config.get('seed')}, "
            f"{self.config.get('workers')} workers",
            f"  accepted {self.accepted}, lost {self.lost}, "
            f"statuses {self.statuses}, deduped resubmits {self.deduped}",
            f"  injections: {self.injections or '(none fired)'}",
            f"  pool: {self.pool}",
            f"  dispatcher requeued {self.dispatcher_requeued}; "
            f"native armed {self.native_armed}, breaker {self.breaker}, "
            f"fallback delta {self.fallback_delta}; "
            f"build drill {'ok' if self.build_drill_ok else 'FAILED'}",
        ]
        for inv in self.invariants:
            mark = "PASS" if inv["ok"] else "FAIL"
            detail = f" — {inv['detail']}" if inv["detail"] else ""
            lines.append(f"  [{mark}] {inv['name']}{detail}")
        lines.append("CHAOS PASS" if self.ok else "CHAOS FAIL")
        return "\n".join(lines)


def _build_drill(seed: int) -> bool:
    """Arm ``native.build`` and prove the failure is typed, not raw."""
    plan = FaultPlan(
        [FaultRule("native.build", "build_failure", hits=(1,))], seed=seed)
    with use_plan(plan):
        try:
            build()
        except NativeBuildError:
            return True
        except Exception:
            return False
    return False


def run_chaos(cfg: Optional[ChaosConfig] = None) -> ChaosReport:
    """Run the baseline + chaos soak; returns the populated report."""
    cfg = cfg or ChaosConfig()
    report = ChaosReport(config={
        "seed": cfg.seed, "requests": cfg.requests, "degree": cfg.degree,
        "workers": cfg.workers, "watchdog_s": cfg.watchdog_s,
    })
    report.requests = cfg.requests

    params, encoder, encryptor, _decryptor, relin_wire = demo_deployment(
        degree=cfg.degree, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    frames = mixed_square_multiply_traffic(
        encoder, encryptor, requests=cfg.requests, rng=rng)
    devices = [(DEVICE1, 2), (DEVICE2, 1)]
    policy = BatchPolicy(max_batch=cfg.max_batch, window_us=cfg.window_us)

    def fresh_server() -> HEServer:
        server = HEServer(params, devices=list(devices), policy=policy,
                          workers=cfg.workers, watchdog_s=cfg.watchdog_s)
        server.install_relin_key(relin_wire)
        return server

    # -- run A: fault-free baseline, byte-for-byte ---------------------------------
    baseline: Dict[str, tuple] = {}
    server = fresh_server()
    try:
        for rid, wire, t_us, _expected in frames:
            server.submit(wire, arrival_us=t_us)
        for resp in server.stream():
            if resp.ok:
                baseline[resp.request_id] = (
                    resp.result.data.tobytes(), resp.result.scale)
    finally:
        server.close()

    # -- run B: same frames under the armed plan -----------------------------------
    native_armed = glue.available()
    report.native_armed = native_armed
    fallback_before = glue.fallback_count()
    backend.reset_breaker()
    if native_armed:
        backend.set_backend("native")
    plan = chaos_plan(cfg, native=native_armed)
    retry = RetryPolicy(max_attempts=4, seed=cfg.seed)
    accepted: List[str] = []
    responses = []
    server = fresh_server()
    try:
        with use_plan(plan):
            for i, (rid, wire, t_us, _expected) in enumerate(frames):
                try:
                    submit_with_retry(server, wire, arrival_us=t_us,
                                      policy=retry)
                except FrameError:
                    report.lost += 1
                    continue
                accepted.append(rid)
                if cfg.duplicate_every and i % cfg.duplicate_every == 5:
                    # Client retry after a "lost response": same bytes,
                    # same id — must be absorbed, never re-executed.
                    try:
                        submit_with_retry(server, wire, arrival_us=t_us,
                                          policy=retry)
                    except FrameError:
                        pass
            for resp in server.stream():
                responses.append(resp)
        pool = server.workers
        assert pool is not None
        pool.ensure_alive()
        pool_healthy = pool.healthy()
        report.dispatcher_requeued = server.dispatcher.requeued
        report.deduped = server.metrics.deduped_total
    finally:
        server.close()
        if native_armed:
            backend.set_backend(None)
    report.breaker = backend.breaker_state()
    backend.reset_breaker()
    report.fallback_delta = glue.fallback_count() - fallback_before
    report.injections = plan.summary()
    report.pool = {
        "healthy": pool_healthy,
        "hung": pool.hung_total,
        "requeued": pool.requeued,
        "crashes": sum(s.crashes for s in pool.stats),
        "restarts": sum(s.restarts for s in pool.stats),
        "leaked": pool.leaked,
    }
    report.accepted = len(accepted)
    for resp in responses:
        report.statuses[resp.status] = report.statuses.get(resp.status, 0) + 1

    # -- invariants ----------------------------------------------------------------
    rids = [r.request_id for r in responses]
    report.check(
        "one-terminal-status",
        len(rids) == len(set(rids)) and set(rids) == set(accepted),
        f"{len(rids)} responses for {len(accepted)} accepted requests",
    )
    mismatched = [
        r.request_id for r in responses
        if r.ok and baseline.get(r.request_id) != (
            r.result.data.tobytes(), r.result.scale)
    ]
    report.check(
        "ok-results-bit-identical", not mismatched,
        f"{len(mismatched)} of {report.statuses.get('ok', 0)} ok results "
        f"diverge from the fault-free run",
    )
    non_ok = cfg.requests - report.statuses.get("ok", 0)
    report.check(
        "bounded-non-ok-ratio",
        non_ok <= cfg.max_non_ok_ratio * cfg.requests,
        f"{non_ok}/{cfg.requests} non-ok "
        f"(budget {cfg.max_non_ok_ratio:.0%})",
    )
    report.check("pool-recovered-healthy", pool_healthy)
    report.check("no-leaked-threads", pool.leaked == 0,
                 f"leaked={pool.leaked}")
    report.check(
        "watchdog-caught-hang",
        plan.fired("worker.execute", "worker_hang") >= 1
        and pool.hung_total >= 1 and pool.requeued >= 1,
        f"hang fired {plan.fired('worker.execute', 'worker_hang')}x, "
        f"hung={pool.hung_total}, requeued={pool.requeued}",
    )
    report.check(
        "device-failure-requeued",
        plan.fired("dispatcher.device", "device_failure") >= 1
        and report.dispatcher_requeued >= 1,
        f"dispatcher requeued {report.dispatcher_requeued}",
    )
    report.check("dedup-absorbed-duplicates", report.deduped >= 1,
                 f"deduped={report.deduped}")
    if native_armed:
        report.check(
            "breaker-degraded-native-to-serial",
            report.breaker.get("degraded_to") == "serial"
            and report.fallback_delta >= 1,
            f"breaker={report.breaker}, "
            f"fallback_delta={report.fallback_delta}",
        )

    # -- build drill (typed toolchain failure) -------------------------------------
    report.build_drill_ok = _build_drill(cfg.seed)
    report.check("build-failure-typed", report.build_drill_ok)
    return report
