"""Deterministic, seedable fault injection for the serving stack.

Production HE serving has to survive failures that unit tests rarely
exercise together: devices dying mid-batch, worker threads crashing or
hanging, kernel-level faults in the native backend, corrupted wire
frames, slow executions, broken toolchains.  This package gives all of
those one systematic surface:

* **Faultpoints** — named hooks (:func:`faultpoint`) registered where
  the production code already is: ``wire.decode`` (frame decode),
  ``worker.execute`` (the evaluation pool), ``dispatcher.execute`` /
  ``dispatcher.device`` (batch execution / the device pool),
  ``native.kernel`` (compiled-kernel dispatch), ``native.build`` (the
  toolchain).  With no plan installed every probe is one ``None``
  check — the hot paths pay nothing.
* **A fault plan** — :class:`FaultPlan` arms faultpoints with
  :class:`FaultRule` entries: either an exact per-point hit schedule
  (``hits=(3, 7)`` fires on the 3rd and 7th check, exactly) or a seeded
  Bernoulli probability.  Probability draws come from one seeded
  :class:`random.Random`, so a single-threaded caller replays exactly;
  under concurrency the *set* of draws is still seeded, only their
  assignment to threads can vary — schedule-based rules stay exact
  either way.
* **Accounting** — every fired injection lands in the plan's log and in
  the ``repro_faults_injected_total{point,mode}`` counter, so a chaos
  run can assert which faults actually happened.

The resilience layers this exercises live with the code they protect:
retry/backoff in :mod:`repro.server.client`, the worker watchdog in
:mod:`repro.server.workers`, request-id dedup in
:mod:`repro.server.dispatcher`, the backend circuit breaker in
:mod:`repro.native.backend`.  The end-to-end harness is
:mod:`repro.faults.chaos` (``python -m repro chaos``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Tuple

from ..obs import metrics as obs_metrics

__all__ = [
    "FAULT_MODES",
    "FaultError",
    "InjectedFault",
    "FaultRule",
    "FaultEvent",
    "FaultPlan",
    "faultpoint",
    "faultpoints",
    "check",
    "active",
    "install_plan",
    "clear_plan",
    "get_plan",
    "use_plan",
    "register_metrics",
]

#: Failure modes a rule can arm.  What each one does is decided by the
#: faultpoint that fires it (e.g. ``worker_hang`` sleeps ``param``
#: seconds of *wall* time on a pool worker; simulated time never moves).
FAULT_MODES = (
    "device_failure",    # dispatcher.device: one pool device dies
    "worker_crash",      # worker.execute: the worker thread dies, task requeued
    "worker_hang",       # worker.execute: the worker stalls `param` wall-seconds
    "kernel_exception",  # dispatcher.execute / native.kernel
    "corrupt_frame",     # wire.decode / net.frame: flip bytes before parsing
    "truncate_frame",    # wire.decode / net.frame: cut the frame short
    "drop_connection",   # net.frame: close the client socket mid-stream
    "slow_execution",    # any point: sleep `param` wall-seconds, then proceed
    "build_failure",     # native.build: the toolchain "breaks"
)


class FaultError(RuntimeError):
    """Base class of deliberately injected failures."""


class InjectedFault(FaultError):
    """An injected exception surfacing through a faultpoint."""


@dataclass(frozen=True)
class FaultRule:
    """Arm one failure mode at one faultpoint.

    ``hits`` (1-based per-point check indices) makes the rule an exact
    schedule; otherwise each check draws Bernoulli(``probability``) from
    the plan's seeded RNG.  ``max_fires`` caps total firings (use 1 for
    one-shot faults like a device failure).  ``param`` is mode-specific
    (sleep seconds, failure instant, ...); ``match`` optionally names a
    target (e.g. a device label) the faultpoint may honour.
    """

    point: str
    mode: str
    probability: float = 1.0
    hits: Optional[Tuple[int, ...]] = None
    max_fires: Optional[int] = None
    param: float = 0.0
    match: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; known: {FAULT_MODES}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.hits is not None:
            object.__setattr__(self, "hits", tuple(int(h) for h in self.hits))
            if any(h < 1 for h in self.hits):
                raise ValueError("hits are 1-based check indices (>= 1)")


@dataclass(frozen=True)
class FaultEvent:
    """One injection that actually fired."""

    point: str
    mode: str
    hit: int            # 1-based index of the check that fired at this point
    param: float
    match: Optional[str] = None


class FaultPlan:
    """A seeded set of :class:`FaultRule` arming the faultpoints.

    Thread-safe: faultpoints are checked from pool workers and the
    coordinator concurrently.  ``check`` returns the :class:`FaultEvent`
    to act on (first matching rule wins) or ``None``.
    """

    def __init__(self, rules, *, seed: Optional[int] = 0):
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = seed
        self._rng = Random(seed)
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {}
        self._fires: Dict[Tuple[str, str], int] = {}
        self.log: List[FaultEvent] = []
        self._by_point: Dict[str, List[FaultRule]] = {}
        for rule in self.rules:
            self._by_point.setdefault(rule.point, []).append(rule)

    def check(self, point: str, **ctx) -> Optional[FaultEvent]:
        rules = self._by_point.get(point)
        if not rules:
            return None
        with self._lock:
            hit = self._hits[point] = self._hits.get(point, 0) + 1
            for rule in rules:
                key = (rule.point, rule.mode)
                if (rule.max_fires is not None
                        and self._fires.get(key, 0) >= rule.max_fires):
                    continue
                if rule.hits is not None:
                    fire = hit in rule.hits
                else:
                    fire = self._rng.random() < rule.probability
                if not fire:
                    continue
                self._fires[key] = self._fires.get(key, 0) + 1
                event = FaultEvent(point=point, mode=rule.mode, hit=hit,
                                   param=rule.param, match=rule.match)
                self.log.append(event)
                _count_injection(point, rule.mode)
                return event
        return None

    def fired(self, point: Optional[str] = None,
              mode: Optional[str] = None) -> int:
        """How many injections fired (optionally filtered)."""
        with self._lock:
            return sum(
                1 for e in self.log
                if (point is None or e.point == point)
                and (mode is None or e.mode == mode)
            )

    def checks(self, point: str) -> int:
        """How many times ``point`` has been checked under this plan."""
        with self._lock:
            return self._hits.get(point, 0)

    def summary(self) -> Dict[str, int]:
        """``{"point/mode": fires}`` for every fired injection."""
        with self._lock:
            out: Dict[str, int] = {}
            for e in self.log:
                key = f"{e.point}/{e.mode}"
                out[key] = out.get(key, 0) + 1
            return out


# -- module-level plan installation -------------------------------------------

_PLAN: Optional[FaultPlan] = None
_PLAN_LOCK = threading.Lock()


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Arm ``plan`` process-wide (``None`` disarms)."""
    global _PLAN
    with _PLAN_LOCK:
        _PLAN = plan


def clear_plan() -> None:
    install_plan(None)


def get_plan() -> Optional[FaultPlan]:
    return _PLAN


def active() -> bool:
    """True when a fault plan is armed."""
    return _PLAN is not None


@contextmanager
def use_plan(plan: FaultPlan):
    """Arm ``plan`` for the duration of a ``with`` block (tests, chaos)."""
    global _PLAN
    with _PLAN_LOCK:
        prev = _PLAN
        _PLAN = plan
    try:
        yield plan
    finally:
        with _PLAN_LOCK:
            _PLAN = prev


def check(point: str, **ctx) -> Optional[FaultEvent]:
    """The faultpoint probe: ``None`` (the overwhelmingly common case)
    or the :class:`FaultEvent` the calling site must act on.

    Cost with no plan armed: one global read and a ``None`` check.
    """
    plan = _PLAN
    if plan is None:
        return None
    return plan.check(point, **ctx)


def sleep_event(event: Optional[FaultEvent],
                default_s: float = 0.001) -> None:
    """Serve a ``slow_execution``/``worker_hang`` event's wall sleep."""
    if event is not None and event.mode in ("slow_execution", "worker_hang"):
        time.sleep(event.param if event.param > 0 else default_s)


# -- faultpoint registry -------------------------------------------------------

_POINTS: Dict[str, str] = {}
_POINTS_LOCK = threading.Lock()


def faultpoint(name: str, description: str = "") -> str:
    """Register a named faultpoint (idempotent); returns ``name``.

    Called at import time by the instrumented modules so
    :func:`faultpoints` documents every hook the plan can arm.
    """
    with _POINTS_LOCK:
        if description or name not in _POINTS:
            _POINTS[name] = description
    return name


def faultpoints() -> Dict[str, str]:
    """Every registered faultpoint: ``{name: description}``."""
    with _POINTS_LOCK:
        return dict(_POINTS)


# -- metrics -------------------------------------------------------------------

_INJECTED: Dict[Tuple[str, str], int] = {}
_INJECTED_LOCK = threading.Lock()


def _count_injection(point: str, mode: str) -> None:
    with _INJECTED_LOCK:
        _INJECTED[(point, mode)] = _INJECTED.get((point, mode), 0) + 1


def register_metrics(registry=None):
    """Publish ``repro_faults_injected_total{point,mode}`` into a registry."""
    reg = registry or obs_metrics.get_registry()
    with _INJECTED_LOCK:
        items = dict(_INJECTED)
    for (point, mode), n in sorted(items.items()):
        reg.counter(
            "repro_faults_injected_total",
            "Deliberately injected faults, by faultpoint and mode.",
            labels={"point": point, "mode": mode},
        ).set_total(n)
    reg.gauge(
        "repro_faults_plan_armed",
        "1 while a fault plan is installed.",
        fn=lambda: 1.0 if _PLAN is not None else 0.0,
    )
    return reg
