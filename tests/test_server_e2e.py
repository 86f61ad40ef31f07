"""End-to-end acceptance tests for the batched HE serving subsystem.

The headline scenario (ISSUE acceptance): encrypt N requests, serve them
through ``repro.server`` across >= 2 simulated devices with batching
enabled, decrypt every result correctly, and show batched-async
throughput beats the synchronous one-at-a-time baseline on the simulated
clock.  Plus a 100+-request concurrency/integrity stress.
"""

import numpy as np
import pytest

from repro.server import (
    BatchPolicy,
    HEServer,
    ServerClient,
    mixed_square_multiply_traffic,
    serve_traffic,
)
from repro.xesim import DEVICE1, DEVICE2


def make_pair(ckks, *, devices, policy):
    server = HEServer(
        ServerClient.params_wire(ckks["params"]),
        devices=devices,
        policy=policy,
    )
    client = ServerClient(
        server,
        encoder=ckks["encoder"],
        encryptor=ckks["encryptor"],
        decryptor=ckks["decryptor"],
        relin_key=ckks["relin"],
        galois_keys=ckks["galois"],
    )
    return server, client


class TestEndToEndServing:
    N = 24

    def test_batched_multi_device_beats_serial_sync(self, ckks, rng):
        """The acceptance scenario, on a homogeneous dual-GPU pool so
        both devices demonstrably carry traffic."""
        server, client = make_pair(
            ckks,
            devices=[(DEVICE2, 1), (DEVICE2, 1)],
            policy=BatchPolicy(max_batch=8, window_us=50.0),
        )
        enc = ckks["encoder"]
        values = [rng.normal(size=enc.slots) for _ in range(self.N)]
        # A tight arrival burst: the server is throughput-bound, not
        # arrival-bound, so span measures serving speed.
        ids = [client.submit_square(v, arrival_us=float(i))
               for i, v in enumerate(values)]
        replay = server.request_log
        client.serve()

        # 1. every result decrypts correctly
        for v, rid in zip(values, ids):
            assert np.abs(client.result(rid).real - v * v).max() < 1e-3

        # 2. both simulated devices served traffic
        per_device = server.metrics.per_device_counts()
        assert len(per_device) >= 2
        assert all(n > 0 for n in per_device.values())

        # 3. batching actually happened
        assert server.metrics.mean_batch_size > 1.0

        # 4. batched-async beats the synchronous one-at-a-time baseline
        baseline_s = server.serial_baseline_time_s(replay)
        batched_s = server.metrics.span_us * 1e-6
        assert batched_s > 0
        assert baseline_s / batched_s > 1.5

    def test_heterogeneous_pool_offloads_to_both(self, ckks, rng):
        """With a big enough batch the slow device earns a share too
        (throughput-proportional sharding)."""
        server, client = make_pair(
            ckks,
            devices=[(DEVICE1, 2), (DEVICE2, 1)],
            policy=BatchPolicy(max_batch=16, window_us=100.0),
        )
        enc = ckks["encoder"]
        values = [rng.normal(size=enc.slots) for _ in range(16)]
        ids = [client.submit_square(v, arrival_us=float(i))
               for i, v in enumerate(values)]
        client.serve()
        for v, rid in zip(values, ids):
            assert np.abs(client.result(rid).real - v * v).max() < 1e-3
        per_device = server.metrics.per_device_counts()
        assert per_device.get("Device1", 0) > per_device.get("Device2", 0) > 0

    def test_hundred_plus_concurrent_request_integrity(self, ckks, rng):
        """110 concurrent requests with distinct payloads: every response
        maps back to its own request (no cross-talk), out-of-order
        completions included."""
        server, client = make_pair(
            ckks,
            devices=[(DEVICE1, 2), (DEVICE2, 1)],
            policy=BatchPolicy(max_batch=16, window_us=100.0),
        )
        enc = ckks["encoder"]
        n = 110
        expected = {}
        for i in range(n):
            # Distinct, identifiable payloads: slot 0 carries the index.
            v = np.full(enc.slots, 0.001)
            v[0] = float(i)
            if i % 2:
                rid = client.submit_square(v, arrival_us=float(i))
                expected[rid] = v * v
            else:
                rid = client.submit(
                    "add", [client.encrypt(v), client.encrypt(v)],
                    arrival_us=float(i))
                expected[rid] = v + v
        client.serve()

        assert server.metrics.count == n
        completions = set()
        for rid, want in expected.items():
            resp = client.response(rid)
            assert resp.ok
            got = client.result(rid).real
            assert np.abs(got - want).max() < 1e-2, rid
            completions.add(resp.complete_us)
        # Completions spread across many distinct instants (tiles/devices
        # finish at different times), not one synchronized barrier.
        assert len(completions) > n // 2
        # Out-of-order: submission order != completion order somewhere.
        order = sorted(expected, key=lambda r: client.response(r).complete_us)
        assert order != list(expected)

    def test_streaming_first_response_beats_barrier(self, ckks):
        """Acceptance: streaming mode releases the first response of a
        32-request batch strictly earlier (simulated clock) than barrier
        mode, with bit-identical results in both modes."""
        from repro.core.serialize import save_relin_key, to_bytes

        relin_wire = to_bytes(save_relin_key, ckks["relin"])
        frames = mixed_square_multiply_traffic(
            ckks["encoder"], ckks["encryptor"], requests=32,
            rng=np.random.default_rng(20220808), mean_gap_us=1.0)
        common = dict(relin_wire=relin_wire,
                      devices=[(DEVICE1, 2), (DEVICE2, 1)],
                      max_batch=32, window_us=500.0)
        barrier = serve_traffic(ckks["params"], frames, stream=False,
                                **common)
        streaming = serve_traffic(ckks["params"], frames, stream=True,
                                  **common)

        b_resps = [barrier.response(rid) for rid, _, _, _ in frames]
        s_resps = [streaming.response(rid) for rid, _, _, _ in frames]
        assert all(r.ok for r in b_resps + s_resps)

        # Barrier mode releases everything at the drain instant;
        # streaming releases each response at its own completion.
        barrier_release = {r.yielded_at_us for r in b_resps}
        assert len(barrier_release) == 1
        first_stream = min(r.yielded_at_us for r in s_resps)
        assert first_stream < barrier_release.pop()
        for r in s_resps:
            assert r.yielded_at_us == pytest.approx(r.complete_us)

        # Bit-identical ciphertext results, identical timelines.
        for rb, rs in zip(b_resps, s_resps):
            assert np.array_equal(rb.result.data, rs.result.data)
            assert rb.complete_us == pytest.approx(rs.complete_us)

    def test_stream_yields_in_release_order_across_batches(self, ckks, rng):
        """Streamed responses arrive in nondecreasing yielded_at order,
        merged across batches and devices, and cover every request."""
        server, client = make_pair(
            ckks,
            devices=[(DEVICE2, 1), (DEVICE2, 1)],
            policy=BatchPolicy(max_batch=4, window_us=50.0),
        )
        enc = ckks["encoder"]
        values = [rng.normal(size=enc.slots) for _ in range(12)]
        ids = [client.submit_square(v, arrival_us=float(i * 30))
               for i, v in enumerate(values)]
        order = []
        last = -1.0
        for resp in client.stream():
            assert resp.yielded_at_us >= last
            last = resp.yielded_at_us
            order.append(resp.request_id)
        assert sorted(order) == sorted(ids)
        for v, rid in zip(values, ids):
            assert np.abs(client.result(rid).real - v * v).max() < 1e-3

    def test_abandoned_stream_requeues_undispatched_requests(self, ckks,
                                                             rng):
        """Walking away from a stream mid-iteration must not lose the
        not-yet-dispatched requests: a later serve() still delivers
        exactly one terminal response for every submitted id."""
        server, client = make_pair(
            ckks,
            devices=[(DEVICE2, 1)],
            policy=BatchPolicy(max_batch=2, window_us=10.0),
        )
        enc = ckks["encoder"]
        values = [rng.normal(size=enc.slots) for _ in range(6)]
        ids = [client.submit_square(v, arrival_us=float(i * 1000))
               for i, v in enumerate(values)]
        stream = client.stream()
        first = next(stream)
        stream.close()  # consumer abandons after one response
        assert server.batcher.depth > 0  # undispatched work went back
        client.serve()
        for v, rid in zip(values, ids):
            resp = client.response(rid)
            assert resp.ok, rid
            assert np.abs(client.result(rid).real - v * v).max() < 1e-3
        assert first.request_id in ids

    def test_metrics_are_consistent(self, ckks, rng):
        server, client = make_pair(
            ckks,
            devices=[(DEVICE2, 1), (DEVICE2, 1)],
            policy=BatchPolicy(max_batch=4, window_us=50.0),
        )
        enc = ckks["encoder"]
        ids = [client.submit_square(rng.normal(size=enc.slots),
                                    arrival_us=float(i * 10))
               for i in range(8)]
        client.serve()
        m = server.metrics
        assert m.count == 8
        assert sum(m.batch_sizes) == 8
        assert m.throughput_rps > 0
        assert m.latency_percentile_us(50) <= m.latency_percentile_us(95)
        for rid in ids:
            r = client.response(rid)
            assert r.complete_us >= r.dispatch_us >= r.arrival_us
        rendered = m.render()
        assert "throughput" in rendered and "requests served" in rendered
