"""Typed metrics registry with Prometheus and JSON exporters.

A :class:`MetricsRegistry` holds named instruments — :class:`Counter`,
:class:`Gauge`, :class:`Histogram` — keyed by ``(name, labels)``.
Registration is idempotent: asking for an existing series returns it
(and refreshes its callback), so modules can (re-)register freely into
any registry without duplicate-series errors.  Series may be *pull*
style (a ``fn`` callback sampled at export time; one returning ``None``
drops the series from that export, which is how weakref'd sources age
out, and one returning a mapping exports a row per key — see
:meth:`MetricsRegistry.register_views`) or *push* style
(``inc``/``set``/``observe``).  Pull is the rule for state that has an
owner: the registry is a view, never a second copy.  ``set_total``
remains only for ``faults.register_metrics``, whose label set is not
known up front.

Histograms use **fixed, caller-supplied bucket bounds** so exports are
deterministic across runs and hosts — no adaptive resizing.  A bound is
inclusive (Prometheus ``le`` semantics): an observation equal to a bound
lands in that bound's bucket.

The process-global default registry (:func:`get_registry`) is what the
instrumented modules register into at import/creation time;
:func:`use_registry` swaps in a fresh one for a test block.

The nearest-rank :func:`percentile` ``ServerMetrics`` uses lives here:
one correctly rounded rank rule; see the note in its docstring for the
banker's-rounding bug it replaces.
"""

from __future__ import annotations

import math
import threading
import weakref
from bisect import bisect_left
from contextlib import contextmanager
from operator import attrgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
    "percentile",
    "DEFAULT_LATENCY_BUCKETS_US",
]

LabelItems = Tuple[Tuple[str, str], ...]

#: Default fixed bucket bounds (microseconds) for latency histograms.
DEFAULT_LATENCY_BUCKETS_US: Tuple[float, ...] = (
    50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0,
    10_000.0, 25_000.0, 50_000.0, 100_000.0, 250_000.0, 1_000_000.0,
)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over pre-sorted ``sorted_values``.

    The rank is ``floor(q/100 * (n-1) + 0.5)`` — explicit half-up
    rounding.  The previous implementation used ``int(round(...))``,
    whose banker's rounding picks the *even* neighbor on exact ``.5``
    ranks, so e.g. p50 of two samples flipped between the lower and
    upper sample depending on surrounding list lengths.  Half-up makes
    the rank monotone in ``q`` and stable across ``n``.
    """
    if not sorted_values:
        return 0.0
    n = len(sorted_values)
    k = int(math.floor(q / 100.0 * (n - 1) + 0.5))
    return float(sorted_values[max(0, min(n - 1, k))])


class _Instrument:
    """Common machinery for a single (name, labels) series."""

    kind = "untyped"

    __slots__ = ("name", "help", "labels", "fn", "_lock", "_value")

    def __init__(self, name: str, help: str, labels: LabelItems,
                 fn: Optional[Callable[[], Optional[float]]] = None) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self.fn = fn
        self._lock = threading.Lock()
        self._value = 0.0

    def value(self) -> Optional[float]:
        """Current value; ``None`` (pull series gone away) omits the export line."""
        if self.fn is not None:
            v = self.fn()
            return None if v is None else float(v)
        with self._lock:
            return self._value

    def samples(self) -> List[Tuple[LabelItems, float]]:
        got = self.fn() if self.fn is not None else self._value
        return [(labels, float(v)) for labels, v in _expand(self.labels, got)]


class Counter(_Instrument):
    """Monotonically increasing count (or a pull callback)."""

    kind = "counter"
    __slots__ = ()

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += n

    def set_total(self, total: float) -> None:
        """Sync-style assignment for exporting an externally kept total."""
        with self._lock:
            self._value = float(total)


class Gauge(_Instrument):
    """Point-in-time value (or a pull callback)."""

    kind = "gauge"
    __slots__ = ()

    def set(self, v: float) -> None:
        with self._lock:
            self._value = float(v)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n


class Histogram:
    """Fixed-bucket histogram with inclusive (``le``) upper bounds.

    Pull style: with ``fn``, an export buckets the observations ``fn()``
    returns instead of the pushed ones (see :func:`_expand`).
    """

    kind = "histogram"

    __slots__ = ("name", "help", "labels", "buckets", "fn",
                 "_counts", "_sum", "_count", "_lock")

    def __init__(self, name: str, help: str, labels: LabelItems,
                 buckets: Sequence[float],
                 fn: Optional[Callable[[], Optional[Sequence[float]]]] = None) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.help = help
        self.labels = labels
        self.buckets = bounds
        self.fn = fn
        self._counts = [0] * (len(bounds) + 1)  # final slot = +Inf overflow
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, v: float) -> None:
        v = float(v)
        idx = bisect_left(self.buckets, v)  # v == bound -> that bound's bucket
        with self._lock:
            self._counts[idx] += 1
            self._sum += v
            self._count += 1

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0

    def samples(self) -> List[Tuple[LabelItems, Dict[str, Any]]]:
        if self.fn is None:
            return [(self.labels, self.snapshot())]
        out = []
        for labels, values in _expand(self.labels, self.fn()):
            fresh = Histogram(self.name, self.help, labels, self.buckets)
            for v in values:
                fresh.observe(v)
            out.append((labels, fresh.snapshot()))
        return out

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            total, s = self._count, self._sum
        cumulative = []
        running = 0
        for bound, c in zip(self.buckets, counts[:-1]):
            running += c
            cumulative.append([bound, running])
        return {"buckets": cumulative, "count": total, "sum": s}


def _expand(labels: LabelItems, got: Any) -> List[Tuple[LabelItems, Any]]:
    """Export rows of one pull result: none for ``None`` (the source is
    gone), one per key of a ``{label items: value}`` mapping (a label set
    that grows after registration), else one."""
    if isinstance(got, dict):
        return [(labels + extra, v) for extra, v in sorted(got.items())]
    return [] if got is None else [(labels, got)]


def _label_items(labels: Optional[Dict[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label(v: str) -> str:
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(items: LabelItems, extra: Optional[List[Tuple[str, str]]] = None) -> str:
    parts = [f'{k}="{_escape_label(v)}"' for k, v in items]
    if extra:
        parts += [f'{k}="{_escape_label(v)}"' for k, v in extra]
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


class MetricsRegistry:
    """Process-wide collection of typed instruments, keyed by (name, labels)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, LabelItems], Any] = {}
        self._kinds: Dict[str, str] = {}

    def _get(self, cls, name: str, help: str, labels: Optional[Dict[str, str]],
             fn=None, **kwargs):
        items = _label_items(labels)
        key = (name, items)
        with self._lock:
            kind = self._kinds.get(name)
            if kind is not None and kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {kind}, not {cls.kind}"
                )
            inst = self._instruments.get(key)
            if inst is None:
                if cls is Histogram:
                    inst = Histogram(name, help, items, kwargs["buckets"], fn=fn)
                else:
                    inst = cls(name, help, items, fn=fn)
                self._instruments[key] = inst
                self._kinds[name] = cls.kind
            else:
                if fn is not None:
                    inst.fn = fn  # re-register refreshes the pull callback
                if help and not inst.help:
                    inst.help = help
            return inst

    def counter(self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None,
                fn: Optional[Callable[[], Optional[float]]] = None) -> Counter:
        return self._get(Counter, name, help, labels, fn=fn)

    def gauge(self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None,
              fn: Optional[Callable[[], Optional[float]]] = None) -> Gauge:
        return self._get(Gauge, name, help, labels, fn=fn)

    def histogram(self, name: str, help: str = "",
                  labels: Optional[Dict[str, str]] = None,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_US,
                  fn: Optional[Callable[[], Optional[Sequence[float]]]] = None) -> Histogram:
        return self._get(Histogram, name, help, labels, fn=fn, buckets=buckets)

    def register_views(self, owner: Any, series, kind: str = "") -> None:
        """Register ``(name, help, read[, labels])`` rows as pull series.

        Each series samples ``read(owner)`` (``read`` may be a dotted
        attribute path) through a weak reference and drops out of
        exports once ``owner`` is collected instead of pinning it alive.
        ``labels`` is a dict, or the *name* of one label when ``read``
        returns a ``{label value: number}`` mapping — one export row per
        key present at render time.  Unless ``kind`` says otherwise, a
        name ending in ``_total`` is a counter and any other a gauge —
        the Prometheus naming rule.
        """
        ref = weakref.ref(owner)

        def pull(read, by):
            read = attrgetter(read) if isinstance(read, str) else read

            def fn():
                got = None if (obj := ref()) is None else read(obj)
                if by and got is not None:
                    return {((by, str(k)),): v for k, v in list(got.items())}
                return got
            return fn

        for name, help, read, *labels in series:
            by = labels.pop() if labels and isinstance(labels[0], str) else ""
            inferred = "counter" if name.endswith("_total") else "gauge"
            getattr(self, kind or inferred)(name, help, *labels, fn=pull(read, by))

    def instruments(self) -> List[Any]:
        with self._lock:
            return list(self._instruments.values())

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()
            self._kinds.clear()

    # -- exporters ------------------------------------------------------

    def _grouped(self) -> List[Tuple[str, str, str, List[Tuple[LabelItems, Any]]]]:
        """[(name, kind, help, [(labels, sample)…])] sorted by name, labels."""
        with self._lock:
            items = sorted(self._instruments.items(), key=lambda kv: kv[0])
            kinds = dict(self._kinds)
        groups: Dict[str, List[Any]] = {}
        for (name, _), inst in items:
            groups.setdefault(name, []).append(inst)
        out = []
        for name in sorted(groups):
            insts = groups[name]
            help_text = next((i.help for i in insts if i.help), "")
            rows = [row for inst in insts for row in inst.samples()]
            out.append((name, kinds[name], help_text, rows))
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name, kind, help_text, rows in self._grouped():
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, v in rows:
                if kind == "histogram":
                    for bound, cum in v["buckets"]:
                        le = [("le", _fmt(bound))]
                        lines.append(f"{name}_bucket{_label_str(labels, le)} {cum}")
                    lines.append(f"{name}_bucket{_label_str(labels, [('le', '+Inf')])} {v['count']}")
                    lines.append(f"{name}_sum{_label_str(labels)} {_fmt(v['sum'])}")
                    lines.append(f"{name}_count{_label_str(labels)} {v['count']}")
                else:
                    lines.append(f"{name}{_label_str(labels)} {_fmt(v)}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe snapshot: {name: {type, help, series: [...]}}."""
        return {
            name: {"type": kind, "help": help_text, "series": [
                {"labels": dict(labels), **(v if kind == "histogram" else {"value": v})}
                for labels, v in rows]}
            for name, kind, help_text, rows in self._grouped()}


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one."""
    global _REGISTRY
    prev = _REGISTRY
    _REGISTRY = registry
    return prev


@contextmanager
def use_registry(registry: Optional[MetricsRegistry] = None) -> Iterator[MetricsRegistry]:
    """Swap in ``registry`` (default: a fresh one) for a ``with`` block."""
    reg = registry if registry is not None else MetricsRegistry()
    prev = set_registry(reg)
    try:
        yield reg
    finally:
        set_registry(prev)
