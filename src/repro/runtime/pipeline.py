"""Asynchronous end-to-end HE pipelines (paper Fig. 2).

The paper's client/server flow uploads inputs once, submits the whole
computational graph without host synchronization, and blocks only when
downloading results for decryption.  :class:`AsyncPipeline` replays a
recorded operation list in either mode so the benefit is measurable:

* ``synchronous``: the host waits after every kernel (and does its own
  per-op bookkeeping in between) — the naive binding;
* ``asynchronous``: submissions are non-blocking; host bookkeeping
  overlaps device execution; one wait at the end.

A pipeline can execute on a single queue (the default, ``tiles`` wide)
or on a :class:`~repro.runtime.scheduler.MultiTileScheduler` — the
paper's explicit per-tile queues (Sec. III-C.2).  In scheduler mode each
op carries an optional *lane*: ops sharing a lane stay in-order on one
tile queue (one request's kernel chain), while different lanes land on
different tiles and overlap.  This is the execution path of the
``repro.server`` batched serving subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..xesim.device import DeviceSpec
from ..xesim.kernel import KernelProfile
from .event import HostClock
from .queue import Queue
from .scheduler import MultiTileScheduler

__all__ = ["PipelineOp", "PipelineResult", "AsyncPipeline"]

#: Host-side bookkeeping per operation (argument marshalling, graph walk).
HOST_WORK_PER_OP_US = 3.0


@dataclass(frozen=True)
class PipelineOp:
    """One step of the computational graph.

    ``lane`` selects a tile queue in scheduler mode (``lane % tiles``);
    ``None`` means "least-loaded tile".  Ignored on a single queue.
    """

    profile: KernelProfile
    payload: Optional[Callable[[], None]] = None
    lane: Optional[int] = None


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of one pipeline run."""

    mode: str
    total_time_s: float
    device_busy_s: float
    sync_count: int


class AsyncPipeline:
    """Replay a kernel graph synchronously or asynchronously.

    With ``scheduler=`` the graph executes over the scheduler's per-tile
    queues (and its shared clock) instead of a private single queue; the
    scheduler's queues accumulate events, so pass a fresh scheduler per
    run when comparing modes.
    """

    def __init__(self, device: DeviceSpec, *, tiles: int = 1,
                 scheduler: Optional[MultiTileScheduler] = None):
        if scheduler is not None and scheduler.device is not device:
            raise ValueError("scheduler is bound to a different device")
        self.device = device
        self.tiles = tiles if scheduler is None else scheduler.use_tiles
        self.scheduler = scheduler
        self.ops: List[PipelineOp] = []
        self._uploads: List[Tuple[str, int, Optional[int]]] = []
        self._downloads: List[Tuple[str, int, Optional[int]]] = []

    # -- graph recording -------------------------------------------------------

    def add_upload(self, bytes_: int, *, lane: Optional[int] = None,
                   name: str = "inputs") -> None:
        self._uploads.append((name, bytes_, lane))

    def add_op(self, profile: KernelProfile,
               payload: Optional[Callable[[], None]] = None,
               *, lane: Optional[int] = None) -> None:
        self.ops.append(PipelineOp(profile, payload, lane))

    def add_download(self, bytes_: int, *, lane: Optional[int] = None,
                     name: str = "results") -> None:
        self._downloads.append((name, bytes_, lane))

    @property
    def upload_bytes(self) -> int:
        return sum(b for _, b, _ in self._uploads)

    @property
    def download_bytes(self) -> int:
        return sum(b for _, b, _ in self._downloads)

    # -- execution -------------------------------------------------------------

    def run(self, mode: str = "asynchronous") -> PipelineResult:
        """Execute the recorded graph; returns simulated wall time."""
        if mode not in ("synchronous", "asynchronous"):
            raise ValueError(f"unknown mode {mode!r}")
        if self.scheduler is not None:
            return self._run_on_scheduler(mode)
        return self._run_single_queue(mode)

    def _run_single_queue(self, mode: str) -> PipelineResult:
        clock = HostClock()
        queue = Queue(device=self.device, tiles=self.tiles, clock=clock)
        syncs = 0

        if self.upload_bytes:
            queue.memcpy("inputs", self.upload_bytes, to_device=True)
            if mode == "synchronous":
                queue.wait()
                syncs += 1

        for op in self.ops:
            queue.submit(op.profile, op.payload)
            queue.host_sleep(HOST_WORK_PER_OP_US * 1e-6)
            if mode == "synchronous":
                queue.wait()
                syncs += 1

        if self.download_bytes:
            queue.memcpy("results", self.download_bytes, to_device=False)
        queue.wait()  # the one unavoidable sync: results for decryption
        syncs += 1
        return PipelineResult(
            mode=mode,
            total_time_s=clock.now,
            device_busy_s=queue.busy_time,
            sync_count=syncs,
        )

    def _submit_on_scheduler(self, mode: str) -> int:
        """Submit the recorded graph onto the scheduler's tile queues.

        Returns the number of host synchronizations the submission phase
        itself performed (zero in asynchronous mode).
        """
        sched = self.scheduler
        syncs = 0

        def pick(lane: Optional[int]) -> Queue:
            if lane is None:
                return sched.least_loaded()
            return sched.queues[lane % len(sched.queues)]

        for name, bytes_, lane in self._uploads:
            q = pick(lane)
            q.memcpy(name, bytes_, to_device=True)
            if mode == "synchronous":
                q.wait()
                syncs += 1

        for op in self.ops:
            q = pick(op.lane)
            q.submit(op.profile, op.payload)
            q.host_sleep(HOST_WORK_PER_OP_US * 1e-6)
            if mode == "synchronous":
                q.wait()
                syncs += 1

        for name, bytes_, lane in self._downloads:
            pick(lane).memcpy(name, bytes_, to_device=False)
        return syncs

    def _run_on_scheduler(self, mode: str) -> PipelineResult:
        sched = self.scheduler
        clock = sched.clock
        start = clock.now
        busy_before = sched.total_busy
        syncs = self._submit_on_scheduler(mode)
        sched.wait_all()  # one drain across all tile queues
        syncs += 1
        return PipelineResult(
            mode=mode,
            total_time_s=clock.now - start,
            device_busy_s=sched.total_busy - busy_before,
            sync_count=syncs,
        )

    def run_stream(self):
        """Asynchronous run that yields completion events incrementally.

        The whole graph is submitted without blocking (asynchronous
        mode), then the scheduler's tile queues drain in completion
        order: each yielded :class:`~repro.runtime.event.Event` has the
        shared clock advanced to its completion instant, so a consumer
        can hand results downstream as tiles finish instead of waiting
        at the :meth:`run` barrier.  Scheduler mode only — a single
        private queue has no per-tile lanes to stream from.
        """
        if self.scheduler is None:
            raise ValueError(
                "streaming execution needs a MultiTileScheduler "
                "(pass scheduler= at construction)"
            )
        self._submit_on_scheduler("asynchronous")
        yield from self.scheduler.drain()
