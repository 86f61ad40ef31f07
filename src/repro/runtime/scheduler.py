"""Explicit multi-tile work distribution (paper Sec. III-C.2).

DPC++ of the paper's era did not transparently spread one queue across
tiles of a multi-tile GPU; the paper therefore opens one queue per tile
and splits batched workloads between them ("explicit multiple-tile
submission").  :class:`MultiTileScheduler` reproduces that: one in-order
queue per tile on a shared host clock.  Callers submit each kernel to a
chosen tile queue (or the least-loaded one) and read the makespan (the
slowest tile).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..xesim.device import DeviceSpec
from .event import Event, EventStatus, HostClock
from .queue import Queue

__all__ = ["MultiTileScheduler"]


@dataclass
class MultiTileScheduler:
    """One in-order queue per tile.

    ``use_tiles`` is clamped into ``[1, device.tiles]`` — the serving
    layer shares one device table across heterogeneous devices, so a
    tile request that exceeds a smaller device's tile count degrades
    gracefully to "all tiles".
    """

    device: DeviceSpec
    use_tiles: int
    clock: HostClock = field(default_factory=HostClock)
    queues: List[Queue] = field(init=False)

    def __post_init__(self) -> None:
        self.use_tiles = max(1, min(self.use_tiles, self.device.tiles))
        self.queues = [
            Queue(device=self.device, tiles=1, clock=self.clock)
            for _ in range(self.use_tiles)
        ]

    def least_loaded(self) -> Queue:
        """The tile queue with the earliest projected drain time."""
        return min(self.queues, key=lambda q: q.device_time)

    def wait_all(self) -> float:
        """Drain every tile queue; returns the makespan (host time)."""
        for q in self.queues:
            q.wait()
        return self.clock.now

    def drain(self):
        """Incrementally drain all tile queues in completion order.

        Yields every not-yet-complete event across the per-tile queues
        ordered by device completion time, marking each complete and
        advancing the shared host clock to its completion instant — the
        streaming alternative to the :meth:`wait_all` barrier.  Once the
        generator is exhausted the clock sits exactly where
        ``wait_all()`` would have left it, so barrier and streaming
        callers observe identical end states.
        """
        ready: List[Event] = sorted(
            (ev for q in self.queues for ev in q.events
             if ev.status is not EventStatus.COMPLETE),
            key=lambda ev: (ev.device_end, ev.device_start, ev.name),
        )
        for ev in ready:
            ev.status = EventStatus.COMPLETE
            self.clock.advance_to(ev.device_end)
            yield ev

    @property
    def makespan(self) -> float:
        return max(q.device_time for q in self.queues)

    @property
    def total_busy(self) -> float:
        return sum(q.busy_time for q in self.queues)
