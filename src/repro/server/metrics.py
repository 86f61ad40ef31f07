"""Serving telemetry: latency, throughput, queue depth, cache hits, shed.

Everything is measured on the *simulated* clock (microseconds), so the
numbers are deterministic and the tests can assert on them.  The record
layout mirrors what a production HE service would export: per-request
(arrival, dispatch, complete, device, priority, typed status) plus batch
shapes, admission shed/accept counters and artifact / device-memory
cache counters.  Latency percentiles split by priority class so a
deadline-sensitive client's p99 is visible separately from batch
traffic.

:class:`ServerMetrics` stores only what it alone observes; numbers other
objects own are read-through views of the dispatcher it is built over,
and a metrics registry reads all of it live (:meth:`register_metrics`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, List, Optional

from ..obs.metrics import MetricsRegistry, percentile as _percentile
from .request import RESPONSE_STATUSES

__all__ = ["RequestRecord", "ServerMetrics"]


@dataclass(frozen=True)
class RequestRecord:
    """The lifecycle of one served request (all times simulated us)."""

    request_id: str
    op: str
    device: str
    arrival_us: float
    dispatch_us: float
    complete_us: float
    batch_size: int
    priority: int = 0
    status: str = "ok"

    @property
    def latency_us(self) -> float:
        return self.complete_us - self.arrival_us

    @property
    def queue_wait_us(self) -> float:
        return self.dispatch_us - self.arrival_us


def _view(path: str) -> property:
    """Read-only view of ``self.dispatcher.<path>`` (live, never stored)."""
    return property(attrgetter("dispatcher." + path))


@dataclass
class ServerMetrics:
    """Aggregated counters the server exposes after (or during) a drain."""

    #: The :class:`~.dispatcher.BatchDispatcher` the views below read.
    dispatcher: Any = field(repr=False)
    records: List[RequestRecord] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    #: Terminal responses by typed status, counted at the event
    #: (``overloaded`` sheds never enter ``records``).
    terminal_counts: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(sorted(RESPONSE_STATUSES), 0))
    #: Admission accounting: requests shed with a typed ``overloaded``
    #: response before queueing, split by priority class.  ``admitted``
    #: counts requests the gate let through (== every queued request
    #: when admission is on; 0 when it is off).
    admitted_total: int = 0
    shed_by_priority: Dict[int, int] = field(default_factory=dict)
    #: Shed requests split by tenant (client id; "" = anonymous) —
    #: covers global-gate sheds, per-tenant bucket sheds and
    #: priority-eviction victims alike.
    shed_by_tenant: Dict[str, int] = field(default_factory=dict)
    #: Duplicate submissions absorbed by the request-id dedup cache
    #: (idempotent client retries) — each got no second execution and
    #: no second terminal status.
    deduped_total: int = 0

    artifact_hits = _view("session.artifacts.hits")
    artifact_misses = _view("session.artifacts.misses")
    memcache_hits = _view("session.memcache.stats.hits")
    memcache_requests = _view("session.memcache.stats.requests")
    #: Launch accounting: ``raw_launches`` is what the per-request kernel
    #: chains would submit one-by-one; ``fused_launches`` is what actually
    #: hit the queues after kernel fusion + cross-request batching.
    #: Equal when fusion is disabled.
    raw_launches = _view("raw_launches")
    fused_launches = _view("submitted_launches")
    #: Requests re-dispatched onto a surviving device after a device
    #: failure mid-stream.
    requeued_total = _view("requeued")
    shed_total = property(lambda self: self.terminal_counts["overloaded"])

    @property
    def worker_stats(self) -> List[Dict]:
        """Per-worker health/rate dicts from the evaluation pool (empty
        when the server runs inline): ``name``, ``tasks``, ``failures``,
        ``busy_s``, ``rate_per_s``, ``restarts``."""
        pool = self.dispatcher.workers
        return [s.as_dict() for s in pool.stats] if pool is not None else []

    def observe(self, record: RequestRecord) -> None:
        self.records.append(record)
        self.terminal_counts[record.status] += 1

    def observe_batch(self, size: int) -> None:
        self.batch_sizes.append(size)

    def observe_shed(self, priority: int = 0, client_id: str = "") -> None:
        self.terminal_counts["overloaded"] += 1
        self.shed_by_priority[priority] = (
            self.shed_by_priority.get(priority, 0) + 1
        )
        self.shed_by_tenant[client_id] = (
            self.shed_by_tenant.get(client_id, 0) + 1
        )

    def observe_admitted(self) -> None:
        self.admitted_total += 1

    def observe_deduped(self) -> None:
        self.deduped_total += 1

    # -- aggregates ------------------------------------------------------------

    @property
    def count(self) -> int:
        return len(self.records)

    @property
    def span_us(self) -> float:
        """First arrival to last completion."""
        if not self.records:
            return 0.0
        return (max(r.complete_us for r in self.records)
                - min(r.arrival_us for r in self.records))

    @property
    def throughput_rps(self) -> float:
        span_s = self.span_us * 1e-6
        return self.count / span_s if span_s > 0 else 0.0

    @property
    def mean_latency_us(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.latency_us for r in self.records) / self.count

    def _latencies(self, *, priority: Optional[int] = None,
                   status: Optional[str] = None) -> List[float]:
        return sorted(
            r.latency_us for r in self.records
            if (priority is None or r.priority == priority)
            and (status is None or r.status == status)
        )

    def latency_percentile_us(self, q: float, *,
                              priority: Optional[int] = None,
                              status: Optional[str] = None) -> float:
        """Nearest-rank latency percentile, optionally filtered.

        ``priority`` restricts to one priority class; ``status`` to one
        typed outcome (pass ``"ok"`` for accepted-and-served latency —
        the number admission control exists to protect).
        """
        return _percentile(self._latencies(priority=priority,
                                           status=status), q)

    def priorities(self) -> List[int]:
        return sorted({r.priority for r in self.records})

    def status_counts(self) -> Dict[str, int]:
        return {s: n for s, n in self.terminal_counts.items() if n}

    @property
    def shed_rate(self) -> float:
        total = self.shed_total + self.count
        return self.shed_total / total if total else 0.0

    @property
    def mean_batch_size(self) -> float:
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)

    def _peak_depth(self, end_us) -> int:
        """Peak concurrent requests between arrival and ``end_us(r)``.

        Exits sort after arrivals at the same instant: a request whose
        interval is empty still counts as present once.
        """
        events = []
        for r in self.records:
            events.append((r.arrival_us, 0, 1))
            events.append((end_us(r), 1, -1))
        depth = peak = 0
        for _, _, delta in sorted(events):
            depth += delta
            peak = max(peak, depth)
        return peak

    def max_queue_depth(self) -> int:
        """Peak number of requests arrived but not yet dispatched."""
        return self._peak_depth(lambda r: r.dispatch_us)

    def max_inflight(self) -> int:
        """Peak number of requests arrived but not yet completed.

        The server's true backlog (queued + executing) — the quantity
        the admission gate's modelled-backlog bound protects; compare
        against ``AdmissionPolicy.max_backlog + burst``.
        """
        return self._peak_depth(lambda r: r.complete_us)

    def per_device_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in self.records:
            out[r.device] = out.get(r.device, 0) + 1
        return out

    @property
    def artifact_hit_rate(self) -> float:
        total = self.artifact_hits + self.artifact_misses
        return self.artifact_hits / total if total else 0.0

    @property
    def launch_reduction(self) -> float:
        """Fraction of raw kernel launches removed by fusion (0 = none)."""
        if not self.raw_launches:
            return 0.0
        return 1.0 - self.fused_launches / self.raw_launches

    # -- registry view ---------------------------------------------------------

    def register_metrics(self, registry: MetricsRegistry) -> None:
        """Register the serving series into ``registry`` as pull views
        of this object's live state (idempotent).  Per-status, -priority
        and -tenant label sets are resolved at render time, so one
        registration also reports labels first seen after it."""
        registry.register_views(self, _SERIES)
        registry.register_views(self, [_LATENCY], kind="histogram")

    # -- reporting -------------------------------------------------------------

    def render(self) -> str:
        lines = [
            f"requests served      : {self.count}",
            f"simulated span       : {self.span_us / 1e3:.3f} ms",
            f"throughput           : {self.throughput_rps:,.0f} req/s",
            f"latency mean         : {self.mean_latency_us:.1f} us",
            f"latency p50/p95/p99  : {self.latency_percentile_us(50):.1f} / "
            f"{self.latency_percentile_us(95):.1f} / "
            f"{self.latency_percentile_us(99):.1f} us",
            f"batches (mean size)  : {len(self.batch_sizes)} "
            f"({self.mean_batch_size:.1f})",
            f"peak queue depth     : {self.max_queue_depth()}",
            f"kernel launches      : {self.fused_launches} submitted / "
            f"{self.raw_launches} raw "
            f"({100 * self.launch_reduction:.0f}% fused away)",
            f"artifact cache       : {self.artifact_hits} hits / "
            f"{self.artifact_misses} misses "
            f"({100 * self.artifact_hit_rate:.0f}%)",
            f"device memcache      : {self.memcache_hits}/"
            f"{self.memcache_requests} hits",
        ]
        if self.shed_total or self.admitted_total:
            lines.append(
                f"admission            : {self.admitted_total} admitted / "
                f"{self.shed_total} shed "
                f"({100 * self.shed_rate:.0f}% shed)"
            )
        if len(self.shed_by_tenant) > 1 or (
                self.shed_by_tenant and "" not in self.shed_by_tenant):
            parts = ", ".join(
                f"{cid or 'anonymous'}={n}"
                for cid, n in sorted(self.shed_by_tenant.items()))
            lines.append(f"shed by tenant       : {parts}")
        if self.requeued_total:
            lines.append(f"requeued on failure  : {self.requeued_total}")
        if self.deduped_total:
            lines.append(f"deduped resubmits    : {self.deduped_total}")
        if self.worker_stats:
            total = sum(w["tasks"] for w in self.worker_stats)
            lines.append(
                f"eval workers         : {len(self.worker_stats)} "
                f"({total} tasks)"
            )
            for w in self.worker_stats:
                extras = "".join(
                    f", {w[k]} {k}" for k in ("restarts", "hung", "crashes",
                                              "leaked")
                    if w.get(k)
                )
                lines.append(
                    f"  {w['name']:<19}: {w['tasks']} tasks, "
                    f"{w['failures']} failures, "
                    f"{w['rate_per_s']:.0f}/s{extras}"
                )
        statuses = self.status_counts()
        if set(statuses) - {"ok"}:
            parts = ", ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
            lines.append(f"terminal statuses    : {parts}")
        prios = self.priorities()
        if len(prios) > 1:
            for p in prios:
                lines.append(
                    f"  prio {p} p50/p95/p99 : "
                    f"{self.latency_percentile_us(50, priority=p):.1f} / "
                    f"{self.latency_percentile_us(95, priority=p):.1f} / "
                    f"{self.latency_percentile_us(99, priority=p):.1f} us"
                )
        for name, n in sorted(self.per_device_counts().items()):
            lines.append(f"  {name:<19}: {n} requests")
        return "\n".join(lines)


#: The serving series: (name, help, ``ServerMetrics`` reader[, labels | label name]) rows for
#: :meth:`MetricsRegistry.register_views`.
_SERIES = (
    ("repro_server_requests_total", "Terminal responses by typed status.", "terminal_counts",
     "status"),
    ("repro_server_batches_total", "Batches dispatched.", lambda m: len(m.batch_sizes)),
    ("repro_server_mean_batch_size", "Mean formed batch size.", "mean_batch_size"),
    ("repro_server_throughput_rps", "Served requests per simulated second.", "throughput_rps"),
    ("repro_server_span_us", "First arrival to last completion (simulated us).", "span_us"),
    ("repro_server_max_inflight", "Peak arrived-but-not-completed requests.",
     lambda m: m.max_inflight()),
    ("repro_artifact_cache_hits_total", "Server-side artifact (key/plan) cache hits.",
     "artifact_hits"),
    ("repro_artifact_cache_misses_total", "Server-side artifact (key/plan) cache misses.",
     "artifact_misses"),
    ("repro_memcache_hits_total", "Device memory cache hits.", "memcache_hits"),
    ("repro_memcache_requests_total", "Device memory cache lookups.", "memcache_requests"),
    ("repro_launches_total", "Kernel launches before/after fusion.", "raw_launches",
     {"kind": "raw"}),
    ("repro_launches_total", "", "fused_launches", {"kind": "fused"}),
    ("repro_admission_admitted_total", "Requests the admission gate let through.",
     "admitted_total"),
    ("repro_admission_shed_total", "Requests shed with a typed overloaded response.",
     "shed_total"),
    ("repro_admission_shed_by_priority_total", "Shed requests split by priority class.",
     "shed_by_priority", "priority"),
    ("repro_tenant_shed_total", "Shed requests split by tenant (client id).",
     lambda m: {t or "anonymous": n for t, n in list(m.shed_by_tenant.items())}, "client"),
    ("repro_requeued_total", "Requests re-dispatched after device failure.", "requeued_total"),
    ("repro_server_deduped_total",
     "Duplicate request-id submissions absorbed (idempotent retries).", "deduped_total"),
)
_LATENCY = (
    "repro_server_latency_us", "End-to-end simulated latency of served (ok) requests.",
    lambda m: {p: m._latencies(priority=p, status="ok") for p in m.priorities() or [0]},
    "priority")
