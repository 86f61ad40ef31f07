"""A bounded thread pool for concurrent batch evaluation.

The dispatcher's per-device loop interleaves two very different kinds of
work: *real* ciphertext math (``ServerSession.execute_plan`` thunks —
NumPy/native kernels that release the GIL) and *simulated-time*
bookkeeping (memory cache, schedulers, the epoch clock).  Only the first
parallelizes; the second must stay sequential or the simulated clock
stops being deterministic.  :class:`WorkerPool` carries the first kind:
:meth:`map_ordered` fans a list of independent evaluations across N
long-lived worker threads and returns results in submission order, so
the caller's bookkeeping — and therefore every response, timestamp and
counter — is bit-identical to the inline (``workers=0``) run.

Health/rate accounting is per worker (:class:`WorkerStats`): tasks run,
failures (exceptions raised by the task — propagated to the caller, the
worker itself survives), cumulative busy seconds, and tasks/sec.  A
worker thread that dies anyway (a crash fault, interpreter teardown
races) is respawned by the submitting thread, counted in ``restarts`` —
the pool degrades, it does not deadlock.

Resilience:

* **Watchdog** (``watchdog_s``): :meth:`map_ordered` polls its futures
  on the watchdog period; a worker whose in-flight task has been
  running past the deadline is *abandoned* (its generation is bumped so
  it exits after the stall), a replacement thread is spawned, and the
  stuck task is requeued.  Requeueing is safe because the dispatcher
  only submits pure thunks (all bookkeeping stays on the coordinator),
  and :class:`_Future` is first-write-wins, so the abandoned worker
  eventually finishing the same task changes nothing.
* **Crash/hang faults**: the ``worker.execute`` faultpoint
  (:mod:`repro.faults`) can kill a worker before it runs a task (the
  task goes back on the queue) or stall it for the watchdog to catch.
* **Leak detection**: :meth:`close` no longer ignores the ``join``
  timeout — a worker that fails to join is logged loudly and counted in
  ``WorkerStats.leaked`` (and the pool-level :attr:`leaked` total), so
  thread leaks surface in metrics instead of accumulating silently.

Thread safety: :meth:`submit`/:meth:`map_ordered` may be called from
several coordinator threads at once; the task queue is the only shared
mutable state and it is a :class:`queue.Queue`.  The pool never touches
the simulated clock.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from typing import Callable, List, Optional, Sequence

from .. import faults as _faults
from ..obs import tracing
from ..obs.metrics import MetricsRegistry

__all__ = ["WorkerStats", "WorkerPool"]

logger = logging.getLogger("repro.server")

_FP_EXECUTE = _faults.faultpoint(
    "worker.execute",
    "crash, hang or slow a pool worker as it picks up a task",
)


class WorkerStats:
    """Health/rate counters for one pool worker (updated by that worker)."""

    __slots__ = ("name", "tasks", "failures", "busy_s", "restarts",
                 "hung", "crashes", "leaked")

    def __init__(self, name: str):
        self.name = name
        self.tasks = 0
        self.failures = 0
        self.busy_s = 0.0
        self.restarts = 0
        #: Tasks abandoned by the watchdog past the deadline.
        self.hung = 0
        #: Injected worker crashes (thread died before running a task).
        self.crashes = 0
        #: Threads that failed to join at close() and were left behind.
        self.leaked = 0

    @property
    def rate(self) -> float:
        """Tasks per busy second (0.0 until the worker has run anything)."""
        return self.tasks / self.busy_s if self.busy_s > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "tasks": self.tasks,
            "failures": self.failures,
            "busy_s": self.busy_s,
            "rate_per_s": self.rate,
            "restarts": self.restarts,
            "hung": self.hung,
            "crashes": self.crashes,
            "leaked": self.leaked,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WorkerStats({self.name}: tasks={self.tasks} "
                f"failures={self.failures} busy={self.busy_s:.3f}s)")


class _Future:
    """Minimal result slot: first writer wins, one consumer.

    First-write-wins matters for the watchdog: a requeued task and its
    abandoned original can both complete.  Both compute the same pure
    thunk, so either result is correct; the guard only prevents a late
    writer from re-signalling.
    """

    __slots__ = ("_done", "_result", "_error")

    def __init__(self):
        self._done = threading.Event()
        self._result = None
        self._error: Optional[BaseException] = None

    def _set(self, result, error) -> None:
        if self._done.is_set():
            return
        self._result = result
        self._error = error
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None):
        if not self._done.wait(timeout):
            raise TimeoutError("worker task still pending")
        if self._error is not None:
            raise self._error
        return self._result


_STOP = object()

#: Per-worker series: (name, help, ``WorkerStats`` attribute).
_WORKER_SERIES = (
    ("repro_worker_tasks_total", "Tasks executed per pool worker.", "tasks"),
    ("repro_worker_failures_total", "Task exceptions per pool worker.", "failures"),
    ("repro_worker_restarts_total", "Respawns after a worker thread died.", "restarts"),
    ("repro_worker_hung_total", "Tasks the watchdog abandoned as hung.", "hung"),
    ("repro_worker_crashes_total", "Injected worker crashes.", "crashes"),
    ("repro_worker_leaked_total", "Threads leaked (failed to join) at close.", "leaked"),
    ("repro_worker_busy_seconds", "Cumulative busy wall time per pool worker.", "busy_s"),
    ("repro_worker_rate_per_s", "Tasks per busy second per pool worker.", "rate"),
)


class WorkerPool:
    """N long-lived daemon workers draining a bounded task queue."""

    def __init__(self, workers: int, *, name: str = "worker",
                 queue_depth: Optional[int] = None,
                 watchdog_s: Optional[float] = None):
        if workers < 1:
            raise ValueError("need at least one worker")
        if watchdog_s is not None and watchdog_s <= 0:
            raise ValueError("watchdog_s must be > 0 when given")
        # A bounded queue keeps a fast submitter from buffering the whole
        # workload; by default depth tracks the pool width.
        self._tasks: queue.Queue = queue.Queue(queue_depth or 2 * workers)
        self.stats: List[WorkerStats] = [
            WorkerStats(f"{name}-{i}") for i in range(workers)
        ]
        self.watchdog_s = watchdog_s
        #: Tasks the watchdog pulled off a hung worker and requeued.
        self.requeued = 0
        self._closed = False
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        # Generation counter per slot: a worker whose generation no
        # longer matches has been abandoned by the watchdog and must
        # exit once its (stuck) task finishes.
        self._gen: List[int] = [0] * workers
        # In-flight task per slot: (item, wall start, generation).
        self._current: List[Optional[tuple]] = [None] * workers
        # Abandoned (hung) threads, joined best-effort at close().
        self._abandoned: List[tuple] = []
        for i in range(workers):
            self._threads.append(self._spawn(i))

    def _spawn(self, idx: int) -> threading.Thread:
        self._gen[idx] += 1
        t = threading.Thread(
            target=self._run, args=(idx, self._gen[idx]),
            name=self.stats[idx].name, daemon=True,
        )
        t.start()
        return t

    def _run(self, idx: int, gen: int) -> None:
        stats = self.stats[idx]
        while True:
            item = self._tasks.get()
            if item is _STOP:
                return
            fn, args, fut, ctx = item
            event = _faults.check(_FP_EXECUTE, worker=stats.name)
            if event is not None and event.mode == "worker_crash":
                # Die without running the task; it goes back on the
                # queue for a surviving (or respawned) worker.  A full
                # queue would make the requeue block a dying thread (and
                # could deadlock a fully-crashed pool), so fall through
                # and run the task normally in that corner.
                try:
                    self._tasks.put_nowait(item)
                except queue.Full:
                    pass
                else:
                    stats.crashes += 1
                    return
            self._current[idx] = (item, time.perf_counter(), gen)
            _faults.sleep_event(event)
            start = time.perf_counter()
            # The ctx captured at submit() re-parents this worker span
            # under the submitting thread's open span, so a request's
            # trace tree crosses the pool handoff intact.
            with tracing.span("worker", cat="server", parent=ctx,
                              worker=stats.name):
                try:
                    result, error = fn(*args), None
                except BaseException as exc:  # noqa: BLE001 - relayed to caller
                    result, error = None, exc
                    stats.failures += 1
            stats.busy_s += time.perf_counter() - start
            stats.tasks += 1
            self._current[idx] = None
            fut._set(result, error)
            with self._lock:
                if self._gen[idx] != gen:
                    # Abandoned by the watchdog while stuck: a
                    # replacement already owns this slot.
                    return

    # -- submission ----------------------------------------------------------------

    @property
    def width(self) -> int:
        return len(self._threads)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def hung_total(self) -> int:
        return sum(s.hung for s in self.stats)

    @property
    def leaked(self) -> int:
        return sum(s.leaked for s in self.stats)

    def register_metrics(self, registry: MetricsRegistry) -> None:
        """Register the per-worker :class:`WorkerStats` as pull views of
        this pool (idempotent, weakly referenced)."""
        registry.register_views(self, [
            (name, help_text, lambda p, attr=attr: {s.name: getattr(s, attr) for s in p.stats},
             "worker")
            for name, help_text, attr in _WORKER_SERIES])

    def ensure_alive(self) -> None:
        """Respawn dead workers (restart counted) so submits never hang."""
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            for i, t in enumerate(self._threads):
                if not t.is_alive():
                    self.stats[i].restarts += 1
                    self._threads[i] = self._spawn(i)

    # Backwards-compatible private alias (pre-watchdog name).
    _ensure_alive = ensure_alive

    def submit(self, fn: Callable, *args) -> _Future:
        """Queue one task; returns a future whose ``result()`` re-raises.

        The submitting thread's current trace context rides along with
        the task, so the worker's span parents under the caller's.
        """
        self.ensure_alive()
        fut = _Future()
        self._tasks.put((fn, args, fut, tracing.capture()))
        return fut

    def _watchdog_sweep(self) -> None:
        """Respawn the dead; abandon + replace the hung, requeue their task.

        Called from the waiting ``map_ordered`` thread.  Abandonment
        bumps the slot's generation (the stuck thread exits after its
        stall) and requeues the in-flight item under the *same* future —
        first-write-wins keeps the outcome single-valued.
        """
        deadline = self.watchdog_s
        now = time.perf_counter()
        requeue: List[tuple] = []
        with self._lock:
            if self._closed:
                return
            for i, t in enumerate(self._threads):
                if not t.is_alive():
                    self.stats[i].restarts += 1
                    self._threads[i] = self._spawn(i)
                    continue
                cur = self._current[i]
                if deadline is None or cur is None:
                    continue
                item, started, gen = cur
                if gen != self._gen[i] or now - started <= deadline:
                    continue
                stats = self.stats[i]
                stats.hung += 1
                stats.restarts += 1
                logger.warning(
                    "watchdog: worker %s hung > %.3fs; abandoning and "
                    "requeueing its task", stats.name, deadline)
                self._abandoned.append((t, i))
                self._current[i] = None
                self._threads[i] = self._spawn(i)
                requeue.append(item)
        for item in requeue:
            self.requeued += 1
            self._tasks.put(item)

    def map_ordered(self, fn: Callable, items: Sequence) -> list:
        """``[fn(item) for item in items]`` across the pool, order kept.

        The submitting thread blocks until every result is in; the first
        task exception (in submission order) re-raises here.  Results
        are returned in submission order regardless of which worker
        finished first — the property the dispatcher's deterministic
        bookkeeping relies on.  With ``watchdog_s`` set, the wait
        doubles as the watchdog: hung workers are abandoned/replaced and
        their tasks requeued, so a stalled thread cannot wedge the
        barrier.
        """
        futures = [self.submit(fn, item) for item in items]
        if self.watchdog_s is None:
            return [f.result() for f in futures]
        out = []
        for f in futures:
            while not f._done.wait(self.watchdog_s):
                self._watchdog_sweep()
            out.append(f.result())
        return out

    # -- lifecycle -----------------------------------------------------------------

    def healthy(self) -> bool:
        """Open, every worker thread alive, nothing queued or in flight."""
        with self._lock:
            return (not self._closed
                    and all(t.is_alive() for t in self._threads)
                    and all(c is None for c in self._current)
                    and self._tasks.empty())

    def close(self, *, timeout: float = 5.0) -> None:
        """Stop accepting work and join the workers (idempotent).

        A worker that fails to join within ``timeout`` — e.g. one still
        stuck in a hung kernel — is *leaked*: logged as an error and
        counted in its :class:`WorkerStats` (and :attr:`leaked`), never
        silently dropped.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            threads = list(enumerate(self._threads))
            abandoned = list(self._abandoned)
        for _ in threads:
            self._tasks.put(_STOP)
        for i, t in threads:
            t.join(timeout=timeout)
            if t.is_alive():
                self.stats[i].leaked += 1
                logger.error(
                    "worker %s failed to join within %.1fs at close(); "
                    "leaking its thread", self.stats[i].name, timeout)
        for t, i in abandoned:
            t.join(timeout=timeout)
            if t.is_alive():
                self.stats[i].leaked += 1
                logger.error(
                    "abandoned worker thread %s (slot %s) failed to join "
                    "within %.1fs at close(); leaking it", t.name, i, timeout)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
