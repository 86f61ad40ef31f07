"""Hypothesis property tests for the runtime: memory cache and queues."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import MemoryCache, Queue
from repro.xesim import DEVICE2, KernelProfile

# Random malloc/free scripts: positive = malloc of that size, None = free
# the oldest live buffer.
ops_strategy = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=100_000),
        st.none(),
    ),
    min_size=1,
    max_size=60,
)


@given(ops=ops_strategy)
@settings(max_examples=60, deadline=None)
def test_memcache_pool_invariants(ops):
    """Pools partition buffers; capacities never shrink; no double frees."""
    cache = MemoryCache()
    live = []
    total_capacity_seen = 0
    for op in ops:
        if op is None:
            if live:
                cache.free(live.pop(0))
        else:
            buf, _ = cache.malloc(op)
            assert buf.capacity_bytes >= op
            assert not buf.freed
            live.append(buf)
    # Invariants at the end of any script:
    assert cache.stats.requests == cache.stats.hits + cache.stats.fresh_allocations
    assert cache.stats.frees == cache.stats.requests - len(live)
    # Every live buffer is distinct.
    assert len({b.buffer_id for b in live}) == len(live)


@given(ops=ops_strategy)
@settings(max_examples=40, deadline=None)
def test_memcache_disabled_never_reuses(ops):
    cache = MemoryCache(enabled=False)
    seen = set()
    live = []
    for op in ops:
        if op is None:
            if live:
                cache.free(live.pop())
        else:
            buf, _ = cache.malloc(op)
            assert buf.buffer_id not in seen
            seen.add(buf.buffer_id)
            live.append(buf)
    assert cache.stats.hits == 0


@given(
    cycles=st.lists(st.floats(min_value=1.0, max_value=1e5),
                    min_size=1, max_size=20)
)
@settings(max_examples=40, deadline=None)
def test_queue_events_in_order_and_gapless(cycles):
    """In-order queue: device intervals are sorted and non-overlapping."""
    q = Queue(device=DEVICE2)
    for i, c in enumerate(cycles):
        q.submit(KernelProfile(f"k{i}", 10_000, c, c, 0.0))
    intervals = [(e.device_start, e.device_end) for e in q.events]
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        assert e1 <= s2 + 1e-12          # no overlap
    assert q.device_time == intervals[-1][1]
    # Busy time equals the sum of durations (no double counting).
    assert abs(q.busy_time - sum(e - s for s, e in intervals)) < 1e-9


@given(
    sizes=st.lists(st.integers(min_value=8, max_value=4096),
                   min_size=2, max_size=12)
)
@settings(max_examples=40, deadline=None)
def test_memcache_reuse_is_size_safe(sizes):
    """A recycled buffer always satisfies the new request's size."""
    cache = MemoryCache()
    # Allocate all, free all, then reallocate in a different order.
    bufs = [cache.malloc(s)[0] for s in sizes]
    for b in bufs:
        cache.free(b)
    for s in reversed(sizes):
        buf, _ = cache.malloc(s)
        assert buf.capacity_bytes >= s
        view = buf.view((s // 8 or 1,))
        view[:] = 1  # writable storage of sufficient size
