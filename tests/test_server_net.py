"""Online socket front end: soak, disconnect/resume, and wire faults.

End-to-end over real TCP: the pump-driven :class:`SocketServer` must
serve ≥50 concurrent clients with exactly one terminal status per
request (none lost, none duplicated), produce results bit-identical to
the in-process drain path fed the same frames, survive a mid-stream
disconnect with ticket-resume collecting every parked response, and
turn injected ``net.frame`` faults (corrupt/truncated frames, dropped
connections) into typed errors + clean resumes — never a hung client.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.faults import FaultPlan, FaultRule
from repro.server import (
    AdmissionPolicy,
    BatchPolicy,
    HEServer,
    NetClient,
    ServeRequest,
    ServerClient,
    encode_request,
    serve_in_background,
)
from repro.xesim import DEVICE1

N_CLIENTS = 50
PER_CLIENT = 2


def _server(ckks, *, policy=BatchPolicy(max_batch=8, window_us=200.0),
            **kwargs):
    return HEServer(
        ServerClient.params_wire(ckks["params"]),
        devices=[(DEVICE1, 2)],
        policy=policy,
        **kwargs,
    )


def _frames(ckks, n_clients, per_client):
    """Per-client lists of (rid, RPRQ frame) add requests."""
    enc = ckks["encoder"]
    rng = np.random.default_rng(99)
    out = {}
    expected = {}
    for ci in range(n_clients):
        a = rng.normal(size=enc.slots)
        b = rng.normal(size=enc.slots)
        ca = ckks["encryptor"].encrypt(enc.encode(a))
        cb = ckks["encryptor"].encrypt(enc.encode(b))
        rows = []
        for j in range(per_client):
            rid = f"c{ci:02d}-{j}"
            rows.append((rid, encode_request(
                ServeRequest(rid, "add", [ca, cb]))))
            expected[rid] = a + b
        out[ci] = rows
    return out, expected


class TestSocketSoak:
    def test_soak_50_clients_exactly_one_terminal_each(self, ckks):
        """≥50 concurrent TCP clients, every request exactly one typed
        terminal status, every response routed to its submitting
        connection, all results decrypt-correct and bit-identical to
        the in-process drain path on the same frames."""
        frames, expected = _frames(ckks, N_CLIENTS, PER_CLIENT)
        server = _server(ckks)
        bg = serve_in_background(server, pump_ms=2.0)
        results, errors = {}, []

        def run_client(ci):
            try:
                with NetClient(bg.host, bg.port) as cli:
                    for _rid, frame in frames[ci]:
                        cli.submit_frame(frame)
                    results[ci] = cli.collect(PER_CLIENT, timeout_s=90.0)
            except Exception as exc:  # surfaced after the join
                errors.append((ci, repr(exc)))

        threads = [threading.Thread(target=run_client, args=(ci,))
                   for ci in frames]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            assert not any(t.is_alive() for t in threads), "hung client"
        finally:
            stats = bg.stats()
            bg.stop()
        assert errors == []

        # Routing: each client got exactly its own requests' terminals.
        for ci, resps in results.items():
            assert sorted(r.request_id for r in resps) == \
                sorted(rid for rid, _ in frames[ci])
            for r in resps:
                assert r.ok, (r.request_id, r.status, r.error)
        # Global exactly-once: no response lost, none duplicated.
        all_ids = [r.request_id for rs in results.values() for r in rs]
        assert len(all_ids) == len(set(all_ids)) == N_CLIENTS * PER_CLIENT
        assert stats["frames_in"] == N_CLIENTS * PER_CLIENT
        assert stats["frames_out"] == N_CLIENTS * PER_CLIENT
        assert stats["undeliverable"] == 0
        assert stats["peak_connections"] > 1  # genuinely concurrent

        # Decrypt-correct against the plaintext reference.
        enc, dec = ckks["encoder"], ckks["decryptor"]
        for resps in results.values():
            for r in resps:
                got = enc.decode(dec.decrypt(r.result))
                assert np.allclose(got, expected[r.request_id], atol=1e-2)

        # Bit-identical to the in-process drain path on the same frames.
        ref = _server(ckks)
        t = 0.0
        for ci in sorted(frames):
            for _rid, frame in frames[ci]:
                ref.submit(frame, arrival_us=t)
                t += 10.0
        ref_responses = ref.drain()
        for resps in results.values():
            for r in resps:
                assert np.array_equal(
                    r.result.data, ref_responses[r.request_id].result.data)

    def test_latency_stats_exposed(self, ckks):
        """The socket layer exports its counters as metric series, and
        one registration in ``start()`` also reports label values first
        seen afterwards (a priority class, a shed tenant)."""
        from repro.obs.metrics import MetricsRegistry

        frames, _ = _frames(ckks, 1, 2)
        ct = ckks["encryptor"].encrypt(
            ckks["encoder"].encode(np.ones(ckks["encoder"].slots)))
        # The bucket admits three requests and refills one token per
        # 1000 s: the fourth submit is shed.
        frames[0] += [(rid, encode_request(
            ServeRequest(rid, "add", [ct, ct], priority=1)))
            for rid in ("prio1", "shed")]
        registry = MetricsRegistry()
        server = _server(ckks, admission=AdmissionPolicy(rate_rps=1e-3,
                                                         burst=3))
        bg = serve_in_background(server, pump_ms=2.0, registry=registry)
        try:
            # Live from start(): the series exist before any traffic.
            idle = registry.render_prometheus()
            with NetClient(bg.host, bg.port) as cli:
                for _rid, frame in frames[0]:
                    cli.submit_frame(frame)
                cli.collect(4, timeout_s=30.0)
            text = registry.render_prometheus()
        finally:
            bg.stop()
        assert 'repro_net_frames_total{direction="in"} 0' in idle
        assert 'repro_net_frames_total{direction="in"} 4' in text
        # The shed is answered on arrival, not by a pump tick.
        assert "repro_pump_responses_total 3" in text
        assert 'repro_server_requests_total{status="ok"} 3' in text
        assert 'repro_server_requests_total{status="overloaded"} 1' in text
        assert 'priority="1"' not in idle and "repro_tenant_shed_total{" not in idle
        assert 'repro_admission_shed_by_priority_total{priority="1"} 1' in text
        assert 'repro_tenant_shed_total{client="anonymous"} 1' in text
        assert 'repro_server_latency_us_count{priority="0"} 2' in text
        assert 'repro_server_latency_us_count{priority="1"} 1' in text


class TestEventDrivenPump:
    def test_service_does_not_wait_for_the_heartbeat(self, ckks):
        """With a 1 s idle heartbeat, a lone ``add`` is still answered
        within 100 ms: the pump wakes at the batch's 200 us cut."""
        frames, _ = _frames(ckks, 1, 2)
        (_, warm), (rid, frame) = frames[0]
        bg = serve_in_background(_server(ckks), pump_ms=1000.0)
        try:
            with NetClient(bg.host, bg.port) as cli:
                cli.submit_frame(warm)  # first-use set-up stays untimed
                cli.collect(1, timeout_s=30.0)
                t0 = time.monotonic()
                cli.submit_frame(frame)
                (resp,) = cli.collect(1, timeout_s=30.0)
                elapsed_s = time.monotonic() - t0
        finally:
            bg.stop()
        assert resp.request_id == rid and resp.ok
        assert elapsed_s < 0.1, f"answered after {elapsed_s * 1e3:.1f} ms"

    def test_idle_server_ticks_at_heartbeat_rate(self, ckks):
        """Nothing pending: the pump ticks at most once per heartbeat
        (plus slack for the window edges) and never spins."""
        pump_ms = 20.0
        bg = serve_in_background(_server(ckks), pump_ms=pump_ms)
        try:
            pump = bg.server.pump
            time.sleep(0.05)
            t0, ticks0 = time.monotonic(), pump.ticks
            time.sleep(0.5)
            rate = (pump.ticks - ticks0) / (time.monotonic() - t0)
        finally:
            bg.stop()
        assert rate <= 1000.0 / pump_ms + 2, f"{rate:.0f} ticks/s"


class TestDisconnectResume:
    def test_midstream_disconnect_parks_then_resume_collects(self, ckks):
        """Disconnect after submitting, reconnect with the session
        ticket: every response completed meanwhile was parked and is
        flushed after the resume hello — zero lost, zero duplicated."""
        enc = ckks["encoder"]
        # Wide window: the client can submit and vanish before the batch
        # closes, so the responses must park.  The pump serves a batch
        # at its cut, so only the window can hold it back.
        server = _server(ckks, policy=BatchPolicy(max_batch=8,
                                                  window_us=500_000.0))
        bg = serve_in_background(server, pump_ms=5.0)
        try:
            cli = NetClient(bg.host, bg.port, client_id="alice").connect()
            ack = cli.hello()
            assert ack.ok and ack.ticket_wire is not None
            rng = np.random.default_rng(3)
            vals = [rng.normal(size=enc.slots) for _ in range(4)]
            rids = []
            for i, v in enumerate(vals):
                req = ServeRequest(
                    f"alice-{i}", "add",
                    [ckks["encryptor"].encrypt(enc.encode(v))] * 2,
                    client_id="alice")
                cli.submit_frame(encode_request(req))
                rids.append(req.request_id)
            cli.close()  # mid-stream: nothing served yet
            deadline = time.monotonic() + 15.0
            while bg.stats()["parked"] < len(rids):
                assert time.monotonic() < deadline, bg.stats()
                time.sleep(0.02)
            cli.reconnect()
            ack = cli.hello(resume=True)
            assert ack.ok, ack.error
            resps = cli.collect(len(rids), timeout_s=30.0)
            cli.close()
        finally:
            stats = bg.stats()
            bg.stop()
        got = {r.request_id: r for r in resps}
        assert sorted(got) == sorted(rids)  # all parked frames flushed
        dec = ckks["decryptor"]
        for i, v in enumerate(vals):
            r = got[f"alice-{i}"]
            assert r.ok, (r.status, r.error)
            assert np.allclose(enc.decode(dec.decrypt(r.result)), v + v,
                               atol=1e-2)
        assert stats["undeliverable"] == 0

    def test_garbage_ticket_refused_cleanly(self, ckks):
        """A corrupt ticket yields a refused ack (typed, ok=False) and
        the connection keeps working — never a crash or a hang."""
        bg = serve_in_background(_server(ckks), pump_ms=5.0)
        try:
            cli = NetClient(bg.host, bg.port, client_id="mallory").connect()
            cli.ticket_wire = b"not a ticket"
            ack = cli.hello(resume=True)
            assert not ack.ok and ack.error
            # Same connection still serves a fresh (ticketless) hello.
            cli.ticket_wire = None
            assert cli.hello().ok
            cli.close()
        finally:
            bg.stop()

    def test_stale_ticket_for_other_client_refused(self, ckks):
        """A valid ticket presented by the wrong client id is refused."""
        bg = serve_in_background(_server(ckks), pump_ms=5.0)
        try:
            alice = NetClient(bg.host, bg.port, client_id="alice").connect()
            assert alice.hello().ok
            thief = NetClient(bg.host, bg.port, client_id="thief").connect()
            thief.ticket_wire = alice.ticket_wire
            ack = thief.hello(resume=True)
            assert not ack.ok and "does not match" in ack.error
            alice.close()
            thief.close()
        finally:
            bg.stop()


class TestNetFrameFaults:
    def test_corrupt_frame_yields_typed_error_then_recovers(self, ckks):
        frames, _ = _frames(ckks, 1, 2)
        (rid0, frame0), (rid1, frame1) = frames[0]
        plan = FaultPlan(
            [FaultRule(point="net.frame", mode="corrupt_frame", hits=(1,))],
            seed=0)
        bg = serve_in_background(_server(ckks), pump_ms=2.0)
        try:
            with faults.use_plan(plan):
                with NetClient(bg.host, bg.port) as cli:
                    cli.submit_frame(frame0)  # corrupted in transit
                    err = cli.recv_response()
                    assert err.status == "error"
                    assert err.result is None
                    cli.submit_frame(frame1)  # clean: same connection
                    (ok,) = cli.collect(1, timeout_s=30.0)
            assert ok.request_id == rid1 and ok.ok
            assert plan.fired("net.frame") == 1
        finally:
            stats = bg.stats()
            bg.stop()
        assert stats["frame_errors"] >= 1

    def test_truncated_frame_yields_typed_error(self, ckks):
        frames, _ = _frames(ckks, 1, 1)
        ((_rid, frame),) = frames[0]
        plan = FaultPlan(
            [FaultRule(point="net.frame", mode="truncate_frame", hits=(1,))],
            seed=0)
        bg = serve_in_background(_server(ckks), pump_ms=2.0)
        try:
            with faults.use_plan(plan):
                with NetClient(bg.host, bg.port) as cli:
                    cli.submit_frame(frame)
                    err = cli.recv_response()
            assert err.status == "error" and not err.ok
        finally:
            bg.stop()

    def test_dropped_connection_then_ticket_resume(self, ckks):
        """drop_connection closes the socket mid-stream; the client
        reconnects with its ticket, resubmits, and collects — exactly
        one terminal for the request, never a hang."""
        enc = ckks["encoder"]
        v = np.ones(enc.slots)
        ct = ckks["encryptor"].encrypt(enc.encode(v))
        req = ServeRequest("drop-0", "add", [ct, ct], client_id="alice")
        frame = encode_request(req)
        # Hit 2 = the first message after the hello.
        plan = FaultPlan(
            [FaultRule(point="net.frame", mode="drop_connection", hits=(2,))],
            seed=0)
        bg = serve_in_background(_server(ckks), pump_ms=2.0)
        try:
            with faults.use_plan(plan):
                cli = NetClient(bg.host, bg.port, client_id="alice").connect()
                assert cli.hello().ok
                cli.submit_frame(frame)  # server drops the connection
                with pytest.raises((ConnectionError, socket.timeout)):
                    cli.collect(1, timeout_s=5.0)
                cli.reconnect()
                assert cli.hello(resume=True).ok
                cli.submit_frame(frame)  # idempotent resubmission
                (resp,) = cli.collect(1, timeout_s=30.0)
                cli.close()
            assert resp.request_id == "drop-0" and resp.ok
            assert plan.fired("net.frame") == 1
        finally:
            stats = bg.stats()
            bg.stop()
        assert stats["dropped_connections"] == 1


class TestClientSend:
    def test_large_frame_arrives_byte_exact(self):
        """A frame far larger than the (shrunk) socket buffers leaves the
        first ``sendmsg`` partial; the peer still reads the length
        prefix and every payload byte in order."""
        payload = np.random.default_rng(5).integers(
            0, 256, size=3 * 1024 * 1024, dtype=np.uint8).tobytes()
        got = bytearray()

        def read_all(conn):
            want = 4 + len(payload)
            while len(got) < want:
                chunk = conn.recv(want - len(got))
                if not chunk:
                    break
                got.extend(chunk)

        with socket.socket() as listener:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            cli = NetClient("127.0.0.1", listener.getsockname()[1],
                            timeout_s=10.0).connect()
            cli.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 16)
            conn, _ = listener.accept()
            with conn, cli:
                conn.settimeout(10.0)
                reader = threading.Thread(target=read_all, args=(conn,))
                reader.start()
                cli.submit_frame(payload)
                reader.join(timeout=10.0)
                assert not reader.is_alive()
        assert bytes(got[:4]) == len(payload).to_bytes(4, "little")
        assert bytes(got[4:]) == payload
