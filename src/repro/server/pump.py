"""Event-driven batch pump: wall-clock ticks over the simulated server.

Everything inside :class:`~repro.server.dispatcher.HEServer` runs on a
deterministic simulated clock, and ``HEServer.pump_once`` is the one
loop body that forms and dispatches batches.  In-process,
``stream()``/``drain()`` tick it at each cut in simulated time; an
online server must tick it when a window elapses in *real* time, with
no client action.  This module supplies that driver:

* :class:`SimClock` anchors the simulated microsecond axis to
  ``time.monotonic()`` (one wall microsecond = one simulated
  microsecond), so arrival stamps and window cuts line up with what the
  sockets actually observe;
* :class:`BatchPump` calls ``server.pump_once(now_us=clock.now_us())``
  on a daemon thread at the instant the earliest pending batch can
  close (``server.next_cut_us()``), re-planning whenever ``submit``
  sets the server's wake event.  With nothing due it ticks every
  ``pump_ms`` milliseconds, an idle heartbeat for parked-response
  flushes and expiry sweeps.  Each tick closes exactly the batches
  whose size filled or whose window/deadline cut has been reached and
  hands every newly terminal response to the transport's router.

The pump holds no protocol state; it is safe to drive ``tick()``
manually (tests, single-threaded tools) instead of ``start()``-ing the
thread.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional

from .dispatcher import HEServer
from .request import ServeResponse

__all__ = ["SimClock", "BatchPump"]


class SimClock:
    """Wall-anchored simulated clock: microseconds since construction."""

    def __init__(self):
        self._t0 = time.monotonic()

    def now_us(self) -> float:
        return (time.monotonic() - self._t0) * 1e6


class BatchPump:
    """``pump_once`` driver, woken at batch cuts, with a response router.

    The loop ticks at ``server.next_cut_us()``, re-plans whenever
    ``server.wake`` is set, and otherwise ticks every ``pump_ms`` (the
    idle heartbeat: the longest it ever sleeps).  ``on_response``
    receives every response a tick completed (dispatched batches,
    expired-on-arrival sheds, admission/tenant sheds, eviction victims)
    in yield order; ``after_tick`` runs once per tick after the
    responses are routed (the socket layer uses it to flush responses
    parked for reconnected clients).  Both callbacks run on the pump
    thread when the loop is running.
    """

    def __init__(self, server: HEServer, *, pump_ms: float = 5.0,
                 clock: Optional[SimClock] = None,
                 on_response: Optional[Callable[[ServeResponse], None]] = None,
                 after_tick: Optional[Callable[[], None]] = None):
        if pump_ms <= 0:
            raise ValueError("pump_ms must be > 0")
        self.server = server
        self.pump_ms = float(pump_ms)
        self.clock = clock or SimClock()
        self.on_response = on_response
        self.after_tick = after_tick
        self.ticks = 0
        self.responses = 0
        self.errors = 0
        self.last_error = ""
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def tick(self, now_us: Optional[float] = None) -> List[ServeResponse]:
        """One pump cycle at ``now_us`` (default: the wall-anchored clock)."""
        now = self.clock.now_us() if now_us is None else now_us
        responses = self.server.pump_once(now_us=now)
        self.ticks += 1
        self.responses += len(responses)
        if self.on_response is not None:
            for resp in responses:
                self.on_response(resp)
        if self.after_tick is not None:
            self.after_tick()
        return responses

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "BatchPump":
        """Start the pump loop (idempotent)."""
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, name="batch-pump",
                                        daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        heartbeat_s = self.pump_ms * 1e-3
        wake = self.server.wake
        while True:
            # Clear before reading the plan: a submit landing after this
            # line re-sets the event, so its arrival is never slept past.
            wake.clear()
            if self._stop.is_set():
                return
            cut = self.server.next_cut_us()
            delay_s = (heartbeat_s if cut is None else
                       min(max(cut - self.clock.now_us(), 0.0) * 1e-6,
                           heartbeat_s))
            if delay_s > 0.0 and wake.wait(delay_s):
                continue  # new work (or stop): re-plan before ticking
            try:
                self.tick()
            except Exception as exc:  # pragma: no cover - defensive
                # A bad tick must not kill the pump: count it, remember
                # it, and keep pumping at the heartbeat rather than
                # spinning on a cut it cannot clear.
                self.errors += 1
                self.last_error = f"{type(exc).__name__}: {exc}"
                self._stop.wait(heartbeat_s)

    def stop(self) -> None:
        """Stop the loop, then tick at each remaining cut until nothing
        is pending, so every admitted request gets its terminal."""
        self._stop.set()
        self.server.wake.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)
            try:
                self.tick()
                while (cut := self.server.next_cut_us()) is not None:
                    self.tick(max(cut, self.clock.now_us()))
            except Exception as exc:  # pragma: no cover - defensive
                self.errors += 1
                self.last_error = f"{type(exc).__name__}: {exc}"
