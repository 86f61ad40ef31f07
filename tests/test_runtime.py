"""Tests for the SYCL-like runtime: buffers, cache, queues, scheduler, pipeline."""

import numpy as np
import pytest

from repro.runtime import (
    AsyncPipeline,
    DeviceBuffer,
    HostClock,
    MemoryCache,
    MultiTileScheduler,
    Queue,
)
from repro.runtime.memcache import CACHE_HIT_US, FRESH_ALLOC_US
from repro.xesim import DEVICE1, DEVICE2, KernelProfile


def profile(cycles=1000.0, items=10**6, name="k", launches=1):
    return KernelProfile(name, items, cycles, cycles, 0.0, launches=launches)


class TestDeviceBuffer:
    def test_allocate_and_view(self):
        b = DeviceBuffer.allocate(64)
        v = b.view((8,))
        v[:] = np.arange(8, dtype=np.uint64)
        assert np.array_equal(b.download((8,)), np.arange(8, dtype=np.uint64))

    def test_upload_roundtrip(self):
        b = DeviceBuffer.allocate(80)
        data = np.arange(10, dtype=np.uint64)
        b.upload(data)
        assert np.array_equal(b.download((10,)), data)
        assert b.size_bytes == 80

    def test_capacity_vs_size(self):
        b = DeviceBuffer.allocate(32, capacity_bytes=128)
        assert b.capacity_bytes == 128 and b.size_bytes == 32
        b.resize_logical(100)
        with pytest.raises(ValueError):
            b.resize_logical(200)

    def test_view_too_large(self):
        b = DeviceBuffer.allocate(32)
        with pytest.raises(ValueError):
            b.view((100,))

    def test_use_after_free(self):
        cache = MemoryCache()
        b, _ = cache.malloc(64)
        cache.free(b)
        with pytest.raises(RuntimeError):
            b.view((4,))


class TestMemoryCache:
    def test_hit_on_refree(self):
        cache = MemoryCache()
        b1, c1 = cache.malloc(1000)
        assert c1 == FRESH_ALLOC_US
        cache.free(b1)
        b2, c2 = cache.malloc(500)  # smaller request reuses the big buffer
        assert c2 == CACHE_HIT_US
        assert b2.buffer_id == b1.buffer_id
        assert cache.stats.hit_rate == 0.5

    def test_miss_when_too_small(self):
        cache = MemoryCache()
        b1, _ = cache.malloc(100)
        cache.free(b1)
        b2, cost = cache.malloc(1000)
        assert cost == FRESH_ALLOC_US
        assert b2.buffer_id != b1.buffer_id

    def test_best_adequate_fit(self):
        cache = MemoryCache()
        big, _ = cache.malloc(10_000)
        small, _ = cache.malloc(200)
        cache.free(big)
        cache.free(small)
        got, _ = cache.malloc(100)
        assert got.buffer_id == small.buffer_id  # not the 10KB one

    def test_disabled_cache_never_hits(self):
        cache = MemoryCache(enabled=False)
        b, _ = cache.malloc(100)
        cache.free(b)
        _, cost = cache.malloc(100)
        assert cost == FRESH_ALLOC_US
        assert cache.stats.hits == 0

    def test_double_free_rejected(self):
        cache = MemoryCache()
        b, _ = cache.malloc(10)
        cache.free(b)
        with pytest.raises(ValueError):
            cache.free(b)

    def test_pools_and_bytes(self):
        cache = MemoryCache()
        b1, _ = cache.malloc(100)
        b2, _ = cache.malloc(200)
        cache.free(b1)
        assert cache.stats.requests - cache.stats.frees == 1  # b2 in use
        assert cache.stats.bytes_allocated == b1.capacity_bytes + b2.capacity_bytes
        cache.clear()  # b1 goes back to the driver
        _, cost = cache.malloc(100)
        assert cost == FRESH_ALLOC_US
        assert cache.stats.hits == 0

    def test_data_integrity_across_reuse(self):
        """Recycled buffers must not leak stale logical sizes into views."""
        cache = MemoryCache()
        b1, _ = cache.malloc(64)
        b1.view((8,))[:] = 7
        cache.free(b1)
        b2, _ = cache.malloc(32)
        v = b2.view((4,))
        v[:] = 1
        assert (b2.download((4,)) == 1).all()


class TestQueue:
    def test_in_order_device_times(self):
        q = Queue(device=DEVICE1)
        e1 = q.submit(profile())
        e2 = q.submit(profile())
        assert e2.device_start == pytest.approx(e1.device_end)

    def test_async_host_does_not_block(self):
        q = Queue(device=DEVICE1)
        q.submit(profile(cycles=10_000.0))
        assert q.clock.now < q.device_time  # host ran ahead

    def test_wait_advances_host(self):
        q = Queue(device=DEVICE1)
        q.submit(profile())
        t = q.wait()
        assert t == pytest.approx(q.device_time)

    def test_payload_executes(self):
        q = Queue(device=DEVICE1)
        ran = []
        q.submit(profile(), fn=lambda: ran.append(1))
        assert ran == [1]

    def test_memcpy_duration_scales_with_bytes(self):
        q = Queue(device=DEVICE1)
        e1 = q.memcpy("a", 32_000_000, to_device=True)
        e2 = q.memcpy("b", 64_000_000, to_device=True)
        assert e2.duration == pytest.approx(2 * e1.duration)

    def test_tiles_validation(self):
        with pytest.raises(ValueError):
            Queue(device=DEVICE2, tiles=2)


class TestScheduler:
    def test_two_tiles_beat_one(self):
        """A batch split over two tile queues finishes before the whole
        batch on one queue."""
        one = MultiTileScheduler(device=DEVICE1, use_tiles=1)
        one.queues[0].submit(profile(cycles=1000.0, items=10**6 * 64))
        two = MultiTileScheduler(device=DEVICE1, use_tiles=2)
        for q in two.queues:
            q.submit(profile(cycles=1000.0, items=10**6 * 32))
        assert two.makespan < one.makespan

    def test_balanced_load(self):
        sched = MultiTileScheduler(device=DEVICE1, use_tiles=2)
        for _ in range(64):
            sched.least_loaded().submit(profile(items=10**5))
        ideal = sched.total_busy / sched.use_tiles
        assert sched.makespan == pytest.approx(ideal, rel=0.05)

    def test_use_tiles_clamped_when_not_strict(self):
        """Regression: a shared tile request larger than a device's tile
        count degrades to all tiles instead of aborting the dispatch."""
        sched = MultiTileScheduler(device=DEVICE2, use_tiles=4)
        assert sched.use_tiles == DEVICE2.tiles == 1
        sched = MultiTileScheduler(device=DEVICE1, use_tiles=0)
        assert sched.use_tiles == 1

    def test_submit_empty_batch_is_noop(self):
        """Regression: dispatching an empty batch leaves the scheduler idle."""
        sched = MultiTileScheduler(device=DEVICE1, use_tiles=2)
        AsyncPipeline(DEVICE1, scheduler=sched).run()
        assert sched.makespan == 0.0
        assert sched.wait_all() == sched.clock.now

    def test_least_loaded(self):
        sched = MultiTileScheduler(device=DEVICE1, use_tiles=2)
        sched.queues[0].submit(profile(items=10**6))
        assert sched.least_loaded() is sched.queues[1]


class TestAsyncPipeline:
    def build(self, n_ops=20):
        pipe = AsyncPipeline(DEVICE1)
        pipe.add_upload(8 * 1024 * 1024)
        for _ in range(n_ops):
            pipe.add_op(profile(cycles=200.0))
        pipe.add_download(8 * 1024 * 1024)
        return pipe

    def test_async_faster_than_sync(self):
        sync = self.build().run("synchronous")
        async_ = self.build().run("asynchronous")
        assert async_.total_time_s < sync.total_time_s

    def test_sync_counts(self):
        pipe = self.build(n_ops=5)
        sync = pipe.run("synchronous")
        async_ = pipe.run("asynchronous")
        assert sync.sync_count == 1 + 5 + 1  # upload + each op + download
        assert async_.sync_count == 1        # only the final download wait

    def test_device_busy_equal_between_modes(self):
        pipe = self.build(n_ops=8)
        s = pipe.run("synchronous")
        a = pipe.run("asynchronous")
        assert s.device_busy_s == pytest.approx(a.device_busy_s)

    def test_payloads_run_in_both_modes(self):
        pipe = AsyncPipeline(DEVICE1)
        hits = []
        pipe.add_op(profile(), payload=lambda: hits.append(1))
        pipe.run("synchronous")
        pipe.run("asynchronous")
        assert hits == [1, 1]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            self.build().run("turbo")


class TestPipelineOnScheduler:
    """AsyncPipeline executing over per-tile queues (the serving path)."""

    def build(self, tiles=2, lanes=2, ops_per_lane=6):
        sched = MultiTileScheduler(device=DEVICE1, use_tiles=tiles)
        pipe = AsyncPipeline(DEVICE1, scheduler=sched)
        for lane in range(lanes):
            pipe.add_upload(1024, lane=lane)
            for _ in range(ops_per_lane):
                pipe.add_op(profile(cycles=500.0), lane=lane)
            pipe.add_download(1024, lane=lane, name=f"lane{lane}")
        return sched, pipe

    def test_lanes_overlap_across_tiles(self):
        _, two = self.build(tiles=2)
        res_two = two.run()
        _, one = self.build(tiles=1)
        res_one = one.run()
        assert res_two.total_time_s < res_one.total_time_s

    def test_lane_chain_stays_in_order(self):
        sched, pipe = self.build(tiles=2, lanes=1)
        pipe.run()
        events = sched.queues[0].events
        assert len(events) >= 8  # upload + 6 ops + download, all on lane 0
        for prev, cur in zip(events, events[1:]):
            assert cur.device_start >= prev.device_end - 1e-12

    def test_device_busy_matches_scheduler(self):
        sched, pipe = self.build()
        res = pipe.run()
        assert res.device_busy_s == pytest.approx(sched.total_busy)

    def test_sync_mode_counts_per_submission(self):
        _, pipe = self.build(lanes=2, ops_per_lane=3)
        res = pipe.run("synchronous")
        # 2 uploads + 6 ops + the final drain.
        assert res.sync_count == 2 + 6 + 1

    def test_payload_executes(self):
        sched = MultiTileScheduler(device=DEVICE1, use_tiles=2)
        pipe = AsyncPipeline(DEVICE1, scheduler=sched)
        ran = []
        pipe.add_op(profile(), payload=lambda: ran.append(1), lane=0)
        pipe.run()
        assert ran == [1]

    def test_lane_none_uses_least_loaded(self):
        sched = MultiTileScheduler(device=DEVICE1, use_tiles=2)
        pipe = AsyncPipeline(DEVICE1, scheduler=sched)
        for _ in range(4):
            pipe.add_op(profile(cycles=500.0))
        pipe.run()
        assert all(len(q.events) == 2 for q in sched.queues)

    def test_wrong_device_rejected(self):
        sched = MultiTileScheduler(device=DEVICE2, use_tiles=1)
        with pytest.raises(ValueError):
            AsyncPipeline(DEVICE1, scheduler=sched)
