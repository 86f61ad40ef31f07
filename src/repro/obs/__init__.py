"""Cross-cutting observability: tracing and a metrics registry.

Two legs, both dependency-free (stdlib only) so every other package can
instrument itself without import cycles:

* :mod:`repro.obs.tracing` — a lightweight span API.  ``span(...)``
  context managers (plus explicit ``begin``/``end`` for cross-thread
  work and ``sim_span`` for simulated-clock intervals) record into a
  bounded, thread-safe in-memory buffer, exportable as Chrome
  ``trace_event`` JSON (load in ``chrome://tracing`` / Perfetto) or a
  text flamegraph-style summary.  Disabled by default: every probe
  degenerates to one ``None`` check, so the instrumented hot paths pay
  nothing until :func:`~repro.obs.tracing.enable` is called.
* :mod:`repro.obs.metrics` — a process-global :class:`MetricsRegistry`
  of typed counters/gauges/histograms (fixed, deterministic buckets)
  with Prometheus text-format and JSON snapshot exporters.  The server,
  admission gate, worker pool, socket front end, NTT table caches and
  native backend all register pull views of their live state here;
  ``HEServer.metrics_snapshot()`` and ``python -m repro metrics`` render it.

The nearest-rank :func:`percentile` ``ServerMetrics`` uses lives in
:mod:`repro.obs.metrics`.
"""

from . import metrics, tracing
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    percentile,
    set_registry,
    use_registry,
)
from .tracing import (
    Span,
    Tracer,
    capture,
    disable,
    enable,
    enabled,
    get_tracer,
    sim_span,
    span,
    use_tracing,
)

__all__ = [
    "metrics",
    "tracing",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
    "percentile",
    "Span",
    "Tracer",
    "span",
    "sim_span",
    "capture",
    "enable",
    "disable",
    "enabled",
    "get_tracer",
    "use_tracing",
    "register_process_metrics",
]


def register_process_metrics(registry=None):
    """(Re-)register the process-global pull gauges into ``registry``.

    The NTT table caches (:mod:`repro.ntt.tables`), the native backend
    (:mod:`repro.native.glue`) and the fault injector
    (:mod:`repro.faults`) register themselves into the *default*
    registry when they are created/imported; a caller exporting through
    a private :class:`MetricsRegistry` (e.g. a test, or a server built
    with ``registry=...``) calls this to pull the same series there.
    Imports lazily so :mod:`repro.obs` itself stays a leaf dependency.
    """
    reg = registry or get_registry()
    from .. import faults
    from ..native import glue
    from ..ntt import tables

    tables.register_metrics(reg)
    glue.register_metrics(reg)
    faults.register_metrics(reg)
    return reg
