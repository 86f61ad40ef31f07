"""Backend selection for the hot numeric path.

Two kernel tables (:mod:`repro.native.tables`) implement the same
surface with bit-identical arithmetic; :func:`kernels` returns the
selected one and is the only place the selection is read:

``native``
    Runtime-compiled C kernels (fused stacked-NTT butterflies, dyadic
    cores, divide-round tails) loaded via ctypes — the fast path.
``serial``
    Row loops over the scalar-modulus reference kernels: the oracle,
    and the fallback on a host without a C toolchain.

Selection precedence:

1. an explicit :func:`set_backend` call;
2. the ``REPRO_BACKEND`` environment variable
   (``native|serial|auto``);
3. auto-detection: ``native`` when the kernel library builds/loads,
   otherwise ``serial`` (the library layer logs the fallback once).

``set_backend("native")`` *raises* :class:`BackendUnavailableError` when
no toolchain or cached library is usable — an explicit request must not
degrade silently.  The env var and auto-detection degrade with a single
logged warning instead (they express a preference, not a requirement).
"""

from __future__ import annotations

import logging
import os
import threading
from contextlib import contextmanager
from typing import Optional

__all__ = [
    "BACKENDS", "BackendUnavailableError",
    "set_backend", "get_backend", "use_backend",
    "kernels", "invalidate",
    "note_kernel_fault", "degrade", "breaker_state", "reset_breaker",
    "KERNEL_FAULT_THRESHOLD",
]

logger = logging.getLogger("repro.native")

BACKENDS = ("native", "serial")
_AUTO = "auto"

_LOCK = threading.RLock()
_EXPLICIT: Optional[str] = None   # set_backend choice (None = follow env/auto)
_TABLE = None                     # memoized kernel table for the hot path
_ENV_WARNED = False
_DEGRADE_WARNED = False


class BackendUnavailableError(RuntimeError):
    """A requested backend cannot run (e.g. native without a C toolchain)."""


def _native_available() -> bool:
    from . import glue

    return glue.available()


def _resolve_locked() -> str:
    global _ENV_WARNED, _DEGRADE_WARNED
    choice = _EXPLICIT
    source = "set_backend"
    if choice is None:
        env = os.environ.get("REPRO_BACKEND", "").strip().lower()
        if env and env != _AUTO:
            if env in BACKENDS:
                choice = env
                source = "REPRO_BACKEND"
            elif not _ENV_WARNED:
                _ENV_WARNED = True
                logger.warning(
                    "ignoring invalid REPRO_BACKEND=%r (expected one of "
                    "%s or 'auto')", env, "|".join(BACKENDS),
                )
    if choice is None:  # auto-detect
        return "native" if _native_available() else "serial"
    if choice == "native" and not _native_available():
        # set_backend already verified availability, so this is the env
        # path: degrade once, loudly (glue logged the root cause).  The
        # once-flag matters because re-resolutions are routine (every
        # use_backend exit invalidates the memo).
        if not _DEGRADE_WARNED:
            _DEGRADE_WARNED = True
            logger.warning(
                "%s requested the native backend but it is unavailable; "
                "using the serial backend", source,
            )
            from . import glue

            glue.note_fallback()
        return "serial"
    return choice


def kernels():
    """The kernel table every stacked entry point dispatches through.

    Memoized; :func:`set_backend`, :func:`use_backend`, :func:`degrade`
    and :func:`invalidate` drop the memo, so swapping the backend swaps
    this one object.
    """
    global _TABLE
    table = _TABLE
    if table is None:
        with _LOCK:
            table = _TABLE
            if table is None:
                from .tables import TABLES

                table = _TABLE = TABLES[_resolve_locked()]
    return table


def get_backend() -> str:
    """The currently resolved backend name."""
    return kernels().name


def set_backend(name: Optional[str]) -> str:
    """Select the execution backend process-wide; returns the resolved name.

    ``None`` or ``"auto"`` restores env-var/auto-detect behaviour.
    Requesting ``"native"`` when the kernel library cannot be built or
    loaded raises :class:`BackendUnavailableError`.
    """
    global _EXPLICIT, _TABLE
    if name is not None:
        name = name.strip().lower()
        if name == _AUTO:
            name = None
    if name is not None and name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKENDS} or 'auto'"
        )
    if name == "native" and not _native_available():
        from . import glue

        raise BackendUnavailableError(
            "native backend unavailable: "
            f"{glue.availability_error() or 'kernel library failed to load'}"
        )
    with _LOCK:
        _EXPLICIT = name
        _TABLE = None
    return get_backend()


@contextmanager
def use_backend(name: Optional[str]):
    """Temporarily select a backend (tests and benchmarks)."""
    global _EXPLICIT, _TABLE
    with _LOCK:
        prev = _EXPLICIT
    set_backend(name)
    try:
        yield
    finally:
        with _LOCK:
            _EXPLICIT = prev
            _TABLE = None


def invalidate() -> None:
    """Drop the memoized resolution (after env or library-state changes)."""
    global _TABLE, _ENV_WARNED, _DEGRADE_WARNED
    with _LOCK:
        _TABLE = None
        _ENV_WARNED = False
        _DEGRADE_WARNED = False


# -- kernel-fault circuit breaker ---------------------------------------------
#
# Repeated faults inside the compiled kernels (real crashes would take
# the process down, so in practice these are the injected faults of
# repro.faults plus any per-call glue failure) trip a breaker that
# *downgrades* the backend from native to serial at runtime.  Both
# tables are bit-identical, so degradation trades speed for stability
# without changing a single result.

_BREAKER_FAULTS = 0        # consecutive kernel faults since last trip/reset
_BREAKER_DEGRADED: Optional[str] = None   # tier the breaker moved to
KERNEL_FAULT_THRESHOLD = 3  # consecutive faults that trip the breaker


def note_kernel_fault(reason: str = "") -> Optional[str]:
    """Count one kernel-level fault; trips :func:`degrade` at threshold.

    Returns the tier degraded to when the breaker tripped on this call,
    else ``None``.  Called by the glue layer when a native kernel call
    faults (the caller then falls back to the serial body for that one
    call, so a single fault costs time, not correctness).
    """
    global _BREAKER_FAULTS
    with _LOCK:
        _BREAKER_FAULTS += 1
        tripped = _BREAKER_FAULTS >= KERNEL_FAULT_THRESHOLD
    if tripped:
        return degrade(reason=reason or "repeated kernel faults")
    return None


def degrade(*, reason: str = "") -> str:
    """Downgrade the backend to ``serial``; returns the new tier.

    ``native -> serial`` counts in ``repro_native_fallback_total`` (the
    same counter every other native downgrade uses) and in
    ``repro_backend_degraded_total``.  Already at ``serial`` this is a
    no-op.
    """
    global _EXPLICIT, _TABLE, _BREAKER_FAULTS, _BREAKER_DEGRADED
    with _LOCK:
        current = _TABLE.name if _TABLE is not None else _resolve_locked()
        _BREAKER_FAULTS = 0
        if current == "serial":
            return "serial"
        _EXPLICIT = _BREAKER_DEGRADED = "serial"
        _TABLE = None
    logger.warning(
        "backend circuit breaker: degrading native -> serial%s",
        f" ({reason})" if reason else "",
    )
    from . import glue

    glue.note_fallback()
    from ..obs import metrics as obs_metrics

    obs_metrics.get_registry().counter(
        "repro_backend_degraded_total",
        "Circuit-breaker backend downgrades after repeated kernel faults.",
        labels={"from": "native", "to": "serial"},
    ).inc()
    return "serial"


def breaker_state() -> dict:
    """Snapshot of the circuit breaker (for tests/chaos assertions)."""
    with _LOCK:
        return {
            "faults": _BREAKER_FAULTS,
            "threshold": KERNEL_FAULT_THRESHOLD,
            "degraded_to": _BREAKER_DEGRADED,
        }


def reset_breaker() -> None:
    """Clear fault counts and the trip record (backend stays as set)."""
    global _BREAKER_FAULTS, _BREAKER_DEGRADED
    with _LOCK:
        _BREAKER_FAULTS = 0
        _BREAKER_DEGRADED = None
