"""SYCL-like asynchronous runtime (the paper's application level)."""

from .buffer import DeviceBuffer
from .event import Event, EventStatus, HostClock
from .memcache import CacheStats, MemoryCache
from .pipeline import AsyncPipeline, PipelineOp, PipelineResult
from .queue import Queue
from .scheduler import MultiTileScheduler

__all__ = [
    "DeviceBuffer",
    "Event",
    "EventStatus",
    "HostClock",
    "MemoryCache",
    "CacheStats",
    "Queue",
    "MultiTileScheduler",
    "AsyncPipeline",
    "PipelineOp",
    "PipelineResult",
]
