"""Unit tests for the batched HE serving subsystem (repro.server)."""

import numpy as np
import pytest

from repro.core.serialize import save_relin_key, to_bytes
from repro.server import (
    Batch,
    BatchPolicy,
    HEServer,
    RequestBatcher,
    ServeRequest,
    ServerClient,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    ServeResponse,
)
from repro.xesim import DEVICE1, DEVICE2


@pytest.fixture()
def server_pair(ckks):
    """An HEServer + ServerClient bound to the shared CKKS deployment."""
    server = HEServer(
        ServerClient.params_wire(ckks["params"]),
        devices=[(DEVICE1, 2), (DEVICE2, 1)],
        policy=BatchPolicy(max_batch=4, window_us=100.0),
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


class TestWireFormat:
    def test_request_roundtrip(self, ckks, rng):
        enc = ckks["encoder"]
        ct = ckks["encryptor"].encrypt(enc.encode(rng.normal(size=enc.slots)))
        req = ServeRequest("r1", "rotate", [ct], meta={"steps": 2})
        back = decode_request(encode_request(req))
        assert back.request_id == "r1"
        assert back.op == "rotate"
        assert back.meta == {"steps": 2}
        assert np.array_equal(back.cts[0].data, ct.data)
        assert back.cts[0].scale == ct.scale

    def test_two_ct_request_roundtrip(self, ckks, rng):
        enc = ckks["encoder"]
        cts = [ckks["encryptor"].encrypt(enc.encode(rng.normal(size=enc.slots)))
               for _ in range(2)]
        back = decode_request(encode_request(ServeRequest("r2", "multiply", cts)))
        assert len(back.cts) == 2
        assert np.array_equal(back.cts[1].data, cts[1].data)

    def test_response_roundtrip(self, ckks, rng):
        enc = ckks["encoder"]
        ct = ckks["encryptor"].encrypt(enc.encode(rng.normal(size=enc.slots)))
        resp = ServeResponse("r3", True, result=ct, arrival_us=1.0,
                             dispatch_us=2.0, complete_us=9.0,
                             device="Device1", batch_size=4)
        back = decode_response(encode_response(resp))
        assert back.request_id == "r3"
        assert back.ok and back.device == "Device1"
        assert back.latency_us == pytest.approx(8.0)
        assert np.array_equal(back.result.data, ct.data)

    def test_error_response_has_no_blob(self):
        resp = ServeResponse("r4", False, error="no weights")
        back = decode_response(encode_response(resp))
        assert not back.ok and back.result is None
        assert back.error == "no weights"

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            decode_request(b"JUNKxxxx")

    def test_unknown_op_rejected(self, ckks, rng):
        enc = ckks["encoder"]
        ct = ckks["encryptor"].encrypt(enc.encode(rng.normal(size=enc.slots)))
        with pytest.raises(ValueError):
            ServeRequest("r5", "decrypt", [ct])

    def test_arity_checked(self, ckks, rng):
        enc = ckks["encoder"]
        ct = ckks["encryptor"].encrypt(enc.encode(rng.normal(size=enc.slots)))
        with pytest.raises(ValueError):
            ServeRequest("r6", "multiply", [ct])  # needs two


def _req(rid, arrival, ct):
    r = ServeRequest(rid, "square", [ct])
    r.arrival_us = arrival
    return r


@pytest.fixture(scope="module")
def any_ct(ckks):
    enc = ckks["encoder"]
    return ckks["encryptor"].encrypt(enc.encode(np.ones(enc.slots)))


class TestBatchingWindow:
    def test_requests_within_window_coalesce(self, any_ct):
        b = RequestBatcher(BatchPolicy(max_batch=8, window_us=100.0))
        for i, t in enumerate([0.0, 30.0, 99.0]):
            b.add(_req(f"r{i}", t, any_ct))
        batches = b.form_batches(now_us=100.0)
        assert len(batches) == 1
        assert batches[0].size == 3
        assert batches[0].closed_by == "window"

    def test_window_close_time(self, any_ct):
        """A batch closed by a later arrival dispatches at open + window."""
        b = RequestBatcher(BatchPolicy(max_batch=8, window_us=100.0))
        b.add(_req("r0", 0.0, any_ct))
        b.add(_req("r1", 40.0, any_ct))
        b.add(_req("r2", 150.0, any_ct))  # outside r0's window
        batches = b.form_batches(now_us=250.0)
        assert [bt.size for bt in batches] == [2, 1]
        first = batches[0]
        assert first.closed_by == "window"
        assert first.dispatch_us == pytest.approx(100.0)
        assert batches[1].open_us == pytest.approx(150.0)

    def test_size_cap_closes_early(self, any_ct):
        b = RequestBatcher(BatchPolicy(max_batch=2, window_us=1000.0))
        for i, t in enumerate([0.0, 10.0, 20.0, 30.0]):
            b.add(_req(f"r{i}", t, any_ct))
        batches = b.form_batches(now_us=1030.0)
        assert [bt.size for bt in batches] == [2, 2]
        assert batches[0].closed_by == "size"
        assert batches[0].dispatch_us == pytest.approx(10.0)  # 2nd arrival
        assert batches[1].dispatch_us == pytest.approx(30.0)

    def test_partial_batch_waits_without_drain(self, any_ct):
        b = RequestBatcher(BatchPolicy(max_batch=4, window_us=100.0))
        b.add(_req("r0", 0.0, any_ct))
        assert b.form_batches() == []
        assert b.depth == 1  # still pending
        assert len(b.form_batches(now_us=100.0)) == 1
        assert b.depth == 0

    def test_window_zero_dispatches_per_request(self, any_ct):
        b = RequestBatcher(BatchPolicy(max_batch=8, window_us=0.0))
        b.add(_req("r0", 0.0, any_ct))
        b.add(_req("r1", 5.0, any_ct))
        batches = b.form_batches(now_us=5.0)
        assert [bt.size for bt in batches] == [1, 1]

    def test_simultaneous_arrivals_share_a_batch(self, any_ct):
        b = RequestBatcher(BatchPolicy(max_batch=8, window_us=0.0))
        b.add(_req("r0", 7.0, any_ct))
        b.add(_req("r1", 7.0, any_ct))
        batches = b.form_batches(now_us=7.0)
        assert [bt.size for bt in batches] == [2]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(window_us=-1.0)


class TestServerDispatch:
    def test_out_of_order_completion(self, ckks, rng):
        """A light request submitted after a heavy one finishes first on
        another tile lane; both results stay correctly keyed."""
        server = HEServer(
            ServerClient.params_wire(ckks["params"]),
            devices=[(DEVICE1, 2)],  # two lanes, one device
            policy=BatchPolicy(max_batch=4, window_us=50.0),
        )
        client = ServerClient(
            server, encoder=ckks["encoder"], encryptor=ckks["encryptor"],
            decryptor=ckks["decryptor"], relin_key=ckks["relin"],
        )
        enc = ckks["encoder"]
        a = rng.normal(size=enc.slots)
        b = rng.normal(size=enc.slots)
        heavy = client.submit_multiply(a, b, arrival_us=0.0)
        light = client.submit("add", [client.encrypt(a), client.encrypt(b)],
                              arrival_us=1.0)
        client.serve()
        rh, rl = client.response(heavy), client.response(light)
        assert rl.complete_us < rh.complete_us  # finished out of order
        assert np.abs(client.result(heavy).real - a * b).max() < 1e-3
        assert np.abs(client.result(light).real - (a + b)).max() < 1e-3

    def test_failed_request_reports_error(self, server_pair, rng, ckks):
        server, client = server_pair
        enc = ckks["encoder"]
        v = rng.normal(size=enc.slots)
        bad = client.submit_dot(v, "never-installed", arrival_us=0.0)
        good = client.submit_square(v, arrival_us=1.0)
        client.serve()
        assert not client.response(bad).ok
        assert "never-installed" in client.response(bad).error
        with pytest.raises(RuntimeError):
            client.result(bad)
        assert np.abs(client.result(good).real - v * v).max() < 1e-3

    def test_duplicate_request_id_absorbed(self, server_pair, any_ct):
        """Resubmission is idempotent: one execution, one terminal status."""
        server, _client = server_pair
        rid = server.submit(ServeRequest("dup", "square", [any_ct]))
        assert server.submit(ServeRequest("dup", "square", [any_ct])) == rid
        assert server.metrics.deduped_total == 1
        responses = server.drain()
        assert list(responses) == ["dup"]
        assert responses["dup"].ok
        # A retry after the response exists is still absorbed silently.
        assert server.submit(ServeRequest("dup", "square", [any_ct])) == rid
        assert server.metrics.deduped_total == 2
        assert server.drain() == {}
        # The clock sits at the latest completion, so a request
        # submitted "now" is stamped there.
        late = ServeRequest("late", "square", [any_ct])
        server.submit(late)
        assert late.arrival_us == responses["dup"].complete_us > 0

    def test_duplicate_submits_across_stream(self, server_pair, any_ct):
        """Duplicates interleaved with stream() still yield exactly one
        terminal response per request id."""
        server, _client = server_pair
        server.submit(ServeRequest("s0", "square", [any_ct]), arrival_us=0.0)
        server.submit(ServeRequest("s0", "square", [any_ct]), arrival_us=1.0)
        server.submit(ServeRequest("s1", "square", [any_ct]), arrival_us=2.0)
        server.submit(ServeRequest("s1", "square", [any_ct]), arrival_us=3.0)
        seen = [resp.request_id for resp in server.stream()]
        assert sorted(seen) == ["s0", "s1"]
        assert server.metrics.deduped_total == 2

    def test_queueing_across_batches(self, ckks, rng):
        """A second batch dispatched while the device is busy starts
        after the first drains (free_at bookkeeping)."""
        server = HEServer(
            ServerClient.params_wire(ckks["params"]),
            devices=[(DEVICE2, 1)],
            policy=BatchPolicy(max_batch=1, window_us=0.0),
        )
        client = ServerClient(
            server, encoder=ckks["encoder"], encryptor=ckks["encryptor"],
            decryptor=ckks["decryptor"], relin_key=ckks["relin"],
        )
        enc = ckks["encoder"]
        v = rng.normal(size=enc.slots)
        r0 = client.submit_square(v, arrival_us=0.0)
        r1 = client.submit_square(v, arrival_us=1.0)  # device still busy
        client.serve()
        resp0, resp1 = client.response(r0), client.response(r1)
        assert resp1.complete_us > resp0.complete_us
        # r1 could not start before r0 finished on the single device.
        assert resp1.complete_us - resp1.dispatch_us > resp0.complete_us - 1.0


class TestCacheAccounting:
    def test_artifact_hits_grow_across_batches(self, ckks, rng):
        server = HEServer(
            ServerClient.params_wire(ckks["params"]),
            devices=[(DEVICE1, 2)],
            policy=BatchPolicy(max_batch=2, window_us=10.0),
        )
        client = ServerClient(
            server, encoder=ckks["encoder"], encryptor=ckks["encryptor"],
            decryptor=ckks["decryptor"], relin_key=ckks["relin"],
        )
        server.install_weights("w", np.arange(1, 5, dtype=float))
        enc = ckks["encoder"]
        v = rng.normal(size=enc.slots)
        for i in range(4):
            client.submit("multiply_plain", [client.encrypt(v)],
                          arrival_us=float(i * 1000), weights="w")
        client.serve()
        m = server.metrics
        # Weight encoding + NTT tables + relin built once; reused after.
        assert m.artifact_misses >= 2
        assert m.artifact_hits >= 3
        assert m.artifact_hit_rate > 0.5

    def test_memcache_scratch_reused_across_batches(self, ckks, rng):
        server = HEServer(
            ServerClient.params_wire(ckks["params"]),
            devices=[(DEVICE1, 2)],
            policy=BatchPolicy(max_batch=2, window_us=10.0),
        )
        client = ServerClient(
            server, encoder=ckks["encoder"], encryptor=ckks["encryptor"],
            decryptor=ckks["decryptor"], relin_key=ckks["relin"],
        )
        enc = ckks["encoder"]
        v = rng.normal(size=enc.slots)
        # Two well-separated batches: the second reuses freed scratch.
        client.submit_square(v, arrival_us=0.0)
        client.submit_square(v, arrival_us=1.0)
        client.submit_square(v, arrival_us=10_000.0)
        client.submit_square(v, arrival_us=10_001.0)
        client.serve()
        stats = server.session.memcache.stats
        assert stats.hits >= 2  # second batch's scratch came from the pool
        assert server.metrics.memcache_hits == stats.hits

    def test_cache_disabled_never_hits(self, ckks, rng):
        server = HEServer(
            ServerClient.params_wire(ckks["params"]),
            devices=[(DEVICE1, 2)],
            policy=BatchPolicy(max_batch=2, window_us=10.0),
            cache_enabled=False,
        )
        client = ServerClient(
            server, encoder=ckks["encoder"], encryptor=ckks["encryptor"],
            decryptor=ckks["decryptor"], relin_key=ckks["relin"],
        )
        enc = ckks["encoder"]
        v = rng.normal(size=enc.slots)
        client.submit_square(v, arrival_us=0.0)
        client.submit_square(v, arrival_us=10_000.0)
        client.serve()
        assert server.session.memcache.stats.hits == 0


class TestArtifactInvalidation:
    def _pair(self, ckks):
        server = HEServer(
            ServerClient.params_wire(ckks["params"]),
            devices=[(DEVICE1, 2)],
            policy=BatchPolicy(max_batch=4, window_us=10.0),
        )
        client = ServerClient(
            server, encoder=ckks["encoder"], encryptor=ckks["encryptor"],
            decryptor=ckks["decryptor"], relin_key=ckks["relin"],
            galois_keys=ckks["galois"],
        )
        return server, client

    def test_reinstalled_weights_take_effect(self, ckks):
        """Regression: re-installing a weight vector must invalidate its
        cached encodings, not silently serve the stale ones."""
        server, client = self._pair(ckks)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        server.install_weights("w", np.array([1.0, 1.0, 1.0, 1.0]))
        r1 = client.submit_dot(x, "w", arrival_us=0.0)
        client.serve()
        assert abs(client.result(r1)[0].real - 10.0) < 1e-2

        server.install_weights("w", np.array([2.0, 2.0, 2.0, 2.0]))
        r2 = client.submit_dot(x, "w")
        client.serve()
        assert abs(client.result(r2)[0].real - 20.0) < 1e-2

    def test_reinstalled_keys_invalidate_artifacts(self, ckks):
        server, client = self._pair(ckks)
        from repro.core.serialize import (
            save_galois_keys,
            save_relin_key,
            to_bytes,
        )

        v = np.ones(ckks["encoder"].slots)
        r1 = client.submit_square(v, arrival_us=0.0)
        client.serve()
        assert "key:relin" in server.session.artifacts
        server.install_relin_key(to_bytes(save_relin_key, ckks["relin"]))
        assert "key:relin" not in server.session.artifacts
        r2 = client.submit_square(v)
        client.serve()
        assert np.abs(client.result(r2).real - 1.0).max() < 1e-3

        client.submit("rotate", [client.encrypt(v)], steps=1,
                      arrival_us=server.metrics.span_us + 1)
        client.serve()
        assert "key:galois" in server.session.artifacts
        server.install_galois_keys(to_bytes(save_galois_keys, ckks["galois"]))
        assert "key:galois" not in server.session.artifacts


class TestTimingModel:
    def test_alloc_costs_charged_to_batched_path(self, ckks, rng):
        """Regression: disabling the memory cache must slow the batched
        path (fresh driver allocations), not only the baseline."""
        def span(cache_enabled):
            server = HEServer(
                ServerClient.params_wire(ckks["params"]),
                devices=[(DEVICE1, 2)],
                policy=BatchPolicy(max_batch=2, window_us=10.0),
                cache_enabled=cache_enabled,
            )
            client = ServerClient(
                server, encoder=ckks["encoder"], encryptor=ckks["encryptor"],
                decryptor=ckks["decryptor"], relin_key=ckks["relin"],
            )
            v = rng.normal(size=ckks["encoder"].slots)
            for i in range(6):
                client.submit_square(v, arrival_us=float(i * 5000))
            client.serve()
            return server.metrics.span_us

        assert span(cache_enabled=False) > span(cache_enabled=True)

    def test_baseline_respects_arrival_process(self, ckks, rng):
        """Regression: the serial baseline may not start a request before
        it arrives, so sparse arrivals stretch both sides equally."""
        server = HEServer(
            ServerClient.params_wire(ckks["params"]),
            devices=[(DEVICE1, 2)],
            policy=BatchPolicy(max_batch=4, window_us=10.0),
        )
        client = ServerClient(
            server, encoder=ckks["encoder"], encryptor=ckks["encryptor"],
            decryptor=ckks["decryptor"], relin_key=ckks["relin"],
        )
        v = rng.normal(size=ckks["encoder"].slots)
        gap_us = 50_000.0  # far larger than one request's service time
        for i in range(3):
            client.submit_square(v, arrival_us=i * gap_us)
        replay = server.request_log
        client.serve()
        baseline_s = server.serial_baseline_time_s(replay)
        # The arrival span alone is 100 ms; the baseline must include it.
        assert baseline_s > 2 * gap_us * 1e-6
        # And stays within arrival span + a few service times.
        assert baseline_s < 3 * gap_us * 1e-6


class TestServeOps:
    def test_all_ops_decrypt_correctly(self, server_pair, ckks, rng):
        server, client = server_pair
        enc = ckks["encoder"]
        a = rng.normal(size=enc.slots)
        b = rng.normal(size=enc.slots)
        w = rng.normal(size=4)
        server.install_weights("w4", w)

        ids = {
            "square": client.submit_square(a, arrival_us=0.0),
            "multiply": client.submit_multiply(a, b, arrival_us=1.0),
            "add": client.submit("add", [client.encrypt(a), client.encrypt(b)],
                                 arrival_us=2.0),
            "rotate": client.submit("rotate", [client.encrypt(a)], steps=2,
                                    arrival_us=3.0),
            "dot": client.submit_dot(a[:4], "w4", arrival_us=4.0),
        }
        client.serve()
        assert np.abs(client.result(ids["square"]).real - a * a).max() < 1e-3
        assert np.abs(client.result(ids["multiply"]).real - a * b).max() < 1e-3
        assert np.abs(client.result(ids["add"]).real - (a + b)).max() < 1e-3
        assert np.abs(client.result(ids["rotate"]).real
                      - np.roll(a, -2)).max() < 1e-3
        assert abs(client.result(ids["dot"])[0].real
                   - float(a[:4] @ w)) < 1e-2

    def test_wire_mode_drain(self, ckks, rng):
        """Drained responses encode to decodable response frames."""
        server = HEServer(
            ServerClient.params_wire(ckks["params"]),
            devices=[(DEVICE1, 2)],
            policy=BatchPolicy(max_batch=4, window_us=10.0),
        )
        server.install_relin_key(to_bytes(save_relin_key, ckks["relin"]))
        enc = ckks["encoder"]
        v = rng.normal(size=enc.slots)
        ct = ckks["encryptor"].encrypt(enc.encode(v))
        rid = server.submit(encode_request(ServeRequest("wire-1", "square", [ct])))
        frames = {rid: encode_response(resp)
                  for rid, resp in server.drain().items()}
        resp = decode_response(frames[rid])
        got = enc.decode(ckks["decryptor"].decrypt(resp.result)).real
        assert np.abs(got - v * v).max() < 1e-3
