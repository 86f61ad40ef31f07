"""Bounded per-thread scratch-buffer registry.

The packed kernels (:mod:`repro.modmath.packedops`) and the stacked NTT
(:mod:`repro.ntt.radix2`) keep per-thread pools of large reusable
buffers so the hot path never allocates.  Per-thread pools are correct
(no kernel ever reads another thread's scratch) but they used to be
unbounded across *threads*: a long-lived worker pool — exactly what the
server now runs — would accumulate one full pool per worker forever.

:class:`ScratchRegistry` keeps the per-thread fast path (a plain dict
lookup on ``threading.local``, no lock on a warm hit) and adds global
accounting: every buffer is registered with its byte size, and when the
total across all threads exceeds the cap the registry evicts the
globally least-recently-used buffers — including other threads'.
Eviction only removes the pool-dict *reference* (an atomic dict delete);
a thread still writing through a previously returned buffer keeps it
alive via its own reference and simply re-creates scratch on its next
call, so eviction can never corrupt an in-flight kernel.

The cap is shared by all registries in the process:
``REPRO_SCRATCH_MAX_BYTES`` (default 256 MiB).  Per-thread entry counts
stay bounded too (``max_thread_entries``, matching the historical
8-entry clear).
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, List, Optional, Tuple

from .. import faults as _faults
from ..obs import metrics as obs_metrics

__all__ = ["ScratchRegistry", "default_max_bytes"]

_FP_ALLOC = _faults.faultpoint(
    "scratch.alloc",
    "Scratch-buffer miss path (fresh allocation); kernel_exception "
    "raises InjectedFault from the allocating kernel, slow_execution "
    "stalls the allocation.",
)

#: Process-wide default cap on scratch bytes *per registry*.
_DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def default_max_bytes() -> int:
    """The byte cap from ``REPRO_SCRATCH_MAX_BYTES`` (default 256 MiB)."""
    env = os.environ.get("REPRO_SCRATCH_MAX_BYTES", "").strip()
    if env:
        try:
            value = int(env)
            if value >= 0:
                return value
        except ValueError:
            pass
    return _DEFAULT_MAX_BYTES


class ScratchRegistry:
    """Per-thread buffer pools with a global LRU byte bound."""

    def __init__(self, name: str, *, max_thread_entries: int = 8,
                 max_bytes: int | None = None):
        self.name = name
        self.max_thread_entries = max_thread_entries
        self._max_bytes = max_bytes
        self._local = threading.local()
        self._lock = threading.Lock()
        # (pool id, key) -> [pool dict, nbytes, last-use tick].  The
        # pool-dict backref lets eviction drop another thread's entry.
        self._entries: Dict[Tuple[int, object], List] = {}
        self._bytes = 0
        self._tick = 0
        self.register_metrics()

    @property
    def max_bytes(self) -> int:
        return (self._max_bytes if self._max_bytes is not None
                else default_max_bytes())

    def get(self, key, factory: Callable):
        """The cached buffer for ``key`` on this thread, built on miss.

        ``factory(key)`` must return an object with an ``nbytes``
        attribute.  Warm hits touch the LRU clock under the lock but do
        no allocation; misses build, register, and may evict.
        """
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = self._local.pool = {}
            with self._lock:
                self._pools().append(pool)
        buf = pool.get(key)
        ident = (id(pool), key)
        if buf is not None:
            with self._lock:
                self._tick += 1
                entry = self._entries.get(ident)
                if entry is not None:
                    entry[2] = self._tick
            return buf
        event = _faults.check(_FP_ALLOC)
        if event is not None:
            if event.mode == "kernel_exception":
                raise _faults.InjectedFault(
                    f"injected scratch allocation failure "
                    f"({self.name}, key={key!r})"
                )
            _faults.sleep_event(event)
        buf = factory(key)
        nbytes = int(buf.nbytes)
        with self._lock:
            self._tick += 1
            if len(pool) >= self.max_thread_entries:
                for k in list(pool):
                    self._discard_locked(pool, k)
            pool[key] = buf
            self._entries[ident] = [pool, nbytes, self._tick]
            self._bytes += nbytes
            self._evict_locked(keep=ident)
        return buf

    # -- internals (all under self._lock) ------------------------------------------

    def _pools(self) -> List[dict]:
        pools = getattr(self, "_all_pools", None)
        if pools is None:
            pools = self._all_pools = []
        return pools

    def _discard_locked(self, pool: dict, key) -> None:
        pool.pop(key, None)
        entry = self._entries.pop((id(pool), key), None)
        if entry is not None:
            self._bytes -= entry[1]

    def _evict_locked(self, *, keep: Tuple[int, object]) -> None:
        cap = self.max_bytes
        while self._bytes > cap and len(self._entries) > 1:
            victim = min(
                (ident for ident in self._entries if ident != keep),
                key=lambda ident: self._entries[ident][2],
                default=None,
            )
            if victim is None:
                break
            pool, _nbytes, _tick = self._entries[victim]
            self._discard_locked(pool, victim[1])

    # -- observability --------------------------------------------------------------

    def info(self) -> Dict[str, int]:
        """Snapshot: live thread pools, cached buffers, total bytes."""
        with self._lock:
            pools = [p for p in self._pools() if p]
            return {
                "threads": len(pools),
                "buffers": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
            }

    def register_metrics(
        self, registry: Optional["obs_metrics.MetricsRegistry"] = None,
    ) -> None:
        """Register pull gauges for this pool into a metrics registry.

        Called at construction against the process-global registry and
        again by snapshot exporters against theirs.  The callbacks hold
        a weakref: when the registry instance is garbage-collected its
        series return ``None`` and drop out of exports instead of
        pinning the pool alive.
        """
        labels = {"pool": self.name}
        (registry or obs_metrics.get_registry()).register_views(self, [
            ("repro_scratch_bytes",
             "Bytes cached across all threads of a scratch pool.",
             lambda s: s.info()["bytes"], labels),
            ("repro_scratch_buffers",
             "Cached buffers across all threads of a scratch pool.",
             lambda s: s.info()["buffers"], labels),
            ("repro_scratch_threads",
             "Threads holding live entries in a scratch pool.",
             lambda s: s.info()["threads"], labels),
            ("repro_scratch_max_bytes", "Byte cap of a scratch pool.",
             lambda s: s.info()["max_bytes"], labels),
        ])

    def clear(self) -> None:
        """Drop every cached buffer in every thread's pool."""
        with self._lock:
            for pool, _nbytes, _tick in list(self._entries.values()):
                pool.clear()
            self._entries.clear()
            self._bytes = 0
