"""The device memory cache (paper Sec. III-C.1, Fig. 11).

Runtime ``sycl::malloc`` calls are expensive; the paper routes every
buffer request through a cache holding a *free pool* and a *used pool*:

* ``malloc(S)``: scan the free pool for any buffer with capacity >= S;
  reuse it (cache hit, cheap) or allocate fresh (miss, expensive);
* ``free(B)``: move B back to the free pool for later reuse.

This implementation is functional (buffers really are recycled — NumPy
storage included) *and* timed: each operation reports its simulated cost
so the matMul application benchmarks (Fig. 19) can show the ~90% win.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .buffer import DeviceBuffer

__all__ = ["CacheStats", "MemoryCache"]

#: Simulated cost of a fresh device allocation (driver round-trip).
FRESH_ALLOC_US = 40.0
#: Simulated cost of servicing a request from the free pool.
CACHE_HIT_US = 1.0
#: Simulated cost of releasing a buffer back to the pool / driver.
FREE_US = 0.5


@dataclass
class CacheStats:
    """Counters the tests and benchmarks assert on."""

    requests: int = 0
    hits: int = 0
    fresh_allocations: int = 0
    frees: int = 0
    bytes_allocated: int = 0
    bytes_reused: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


class MemoryCache:
    """Free/used buffer pools with first-adequate-fit reuse.

    Parameters
    ----------
    enabled:
        When False every request is a fresh allocation and every free
        returns memory to the driver — the paper's baseline behaviour.
    """

    def __init__(self, *, enabled: bool = True,
                 alloc_cost_us: float = FRESH_ALLOC_US):
        self.enabled = enabled
        self.alloc_cost_us = alloc_cost_us
        self._free_pool: List[DeviceBuffer] = []
        self._used_pool: Dict[int, DeviceBuffer] = {}
        self.stats = CacheStats()

    # -- allocation API --------------------------------------------------------

    def malloc(self, size_bytes: int) -> Tuple[DeviceBuffer, float]:
        """Obtain a buffer of at least ``size_bytes``; returns (buffer, cost_us)."""
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        self.stats.requests += 1
        if self.enabled:
            candidate = self._take_from_free_pool(size_bytes)
            if candidate is not None:
                candidate.freed = False
                candidate.resize_logical(size_bytes)
                self._used_pool[candidate.buffer_id] = candidate
                self.stats.hits += 1
                self.stats.bytes_reused += size_bytes
                return candidate, CACHE_HIT_US
        buf = DeviceBuffer.allocate(size_bytes)
        self._used_pool[buf.buffer_id] = buf
        self.stats.fresh_allocations += 1
        self.stats.bytes_allocated += buf.capacity_bytes
        return buf, self.alloc_cost_us

    def free(self, buf: DeviceBuffer) -> float:
        """Release a buffer; returns the simulated cost in microseconds."""
        if buf.buffer_id not in self._used_pool:
            raise ValueError(f"buffer {buf.buffer_id} is not in the used pool")
        del self._used_pool[buf.buffer_id]
        self.stats.frees += 1
        buf.freed = True
        if self.enabled:
            self._free_pool.append(buf)
        return FREE_US

    def clear(self) -> None:
        """Drop the free pool (return memory to the driver)."""
        self._free_pool.clear()

    # -- internals -----------------------------------------------------------------

    def _take_from_free_pool(self, size_bytes: int) -> Optional[DeviceBuffer]:
        """Smallest free buffer with capacity >= request (best adequate fit)."""
        best_idx = -1
        best_cap = None
        for i, buf in enumerate(self._free_pool):
            if buf.capacity_bytes >= size_bytes:
                if best_cap is None or buf.capacity_bytes < best_cap:
                    best_idx, best_cap = i, buf.capacity_bytes
        if best_idx < 0:
            return None
        return self._free_pool.pop(best_idx)
