"""Session handshake + serving wire-format property tests.

Hypothesis round-trips for the new serving wire pieces (priority /
deadline / client fields, typed ``overloaded`` responses, session
hello/ack frames, session tickets), the FORMAT_VERSION fail-closed
contract for every new frame kind, and end-to-end multi-client session
isolation (per-client evaluation keys and weights).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import serialize
from repro.core.ciphertext import Ciphertext
from repro.core.serialize import (
    FORMAT_VERSION,
    SessionTicket,
    from_bytes,
    load_session_ticket,
    roundtrip_bytes,
    save_session_ticket,
    to_bytes,
)
from repro.server import (
    BatchPolicy,
    HEServer,
    ServeRequest,
    ServeResponse,
    ServerClient,
    SessionHello,
    SessionAck,
    decode_request,
    decode_response,
    decode_session_ack,
    decode_session_hello,
    encode_request,
    encode_response,
    encode_session_ack,
    encode_session_hello,
    overloaded_response,
)
from repro.server import request as request_mod
from repro.xesim import DEVICE1

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

U64 = st.integers(min_value=0, max_value=2**64 - 1)
CT_ARRAYS = st.tuples(st.just(2), st.integers(1, 3),
                      st.sampled_from([8, 16])).flatmap(
    lambda shape: arrays(np.uint64, shape, elements=U64)
)
IDS = st.text(alphabet="abcdefghij0123456789-", min_size=1, max_size=12)
PRIORITIES = st.integers(min_value=-3, max_value=9)
DEADLINES = st.one_of(st.none(),
                      st.floats(min_value=0.001, max_value=1e6,
                                allow_nan=False, allow_infinity=False))
TIMES = st.floats(min_value=0.0, max_value=1e9,
                  allow_nan=False, allow_infinity=False)


class TestRequestQoSRoundtrip:
    @settings(max_examples=30, **COMMON)
    @given(data=CT_ARRAYS, rid=IDS, priority=PRIORITIES,
           deadline_ms=DEADLINES, client=st.one_of(st.just(""), IDS))
    def test_priority_deadline_client_roundtrip(self, data, rid, priority,
                                                deadline_ms, client):
        req = ServeRequest(rid, "square", [Ciphertext(data, 2.0**20)],
                           priority=priority, deadline_ms=deadline_ms,
                           client_id=client)
        back = decode_request(encode_request(req))
        assert back.request_id == rid
        assert back.priority == priority
        assert back.deadline_ms == deadline_ms
        assert back.client_id == client
        assert np.array_equal(back.cts[0].data, data)

    def test_deadline_is_relative_to_arrival(self):
        data = np.ones((2, 1, 8), dtype=np.uint64)
        req = ServeRequest("r", "square", [Ciphertext(data, 2.0**20)],
                           deadline_ms=2.0)
        req.arrival_us = 1000.0
        assert req.deadline_us == pytest.approx(3000.0)
        assert ServeRequest("r2", "square",
                            [Ciphertext(data, 2.0**20)]).deadline_us is None

    def test_nonpositive_deadline_rejected(self):
        data = np.ones((2, 1, 8), dtype=np.uint64)
        with pytest.raises(ValueError):
            ServeRequest("r", "square", [Ciphertext(data, 2.0**20)],
                         deadline_ms=0.0)


class TestTypedResponseRoundtrip:
    @settings(max_examples=30, **COMMON)
    @given(rid=IDS, priority=PRIORITIES, arrival=TIMES, yielded=TIMES,
           status=st.sampled_from(["error", "overloaded", "expired",
                                   "device_failed"]))
    def test_failure_statuses_roundtrip(self, rid, priority, arrival,
                                        yielded, status):
        resp = ServeResponse(rid, False, status=status, error="boom",
                             arrival_us=arrival, priority=priority,
                             yielded_at_us=yielded)
        back = decode_response(encode_response(resp))
        assert back.status == status
        assert not back.ok
        assert back.result is None
        assert back.priority == priority
        assert back.yielded_at_us == yielded

    @settings(max_examples=20, **COMMON)
    @given(rid=IDS, arrival=TIMES, priority=PRIORITIES)
    def test_overloaded_helper_roundtrip(self, rid, arrival, priority):
        resp = overloaded_response(rid, arrival_us=arrival,
                                   priority=priority)
        back = decode_response(encode_response(resp))
        assert back.status == "overloaded"
        assert back.request_id == rid
        assert back.arrival_us == arrival
        assert back.complete_us == arrival  # terminal at submission

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            ServeResponse("r", False, status="exploded")


class TestSessionHandshakeRoundtrip:
    @settings(max_examples=25, **COMMON)
    @given(client=IDS,
           relin=st.one_of(st.none(), st.binary(min_size=1, max_size=64)),
           galois=st.one_of(st.none(), st.binary(min_size=1, max_size=64)))
    def test_hello_roundtrip(self, client, relin, galois):
        hello = SessionHello(client_id=client, relin_wire=relin,
                             galois_wire=galois)
        back = decode_session_hello(encode_session_hello(hello))
        assert back.client_id == client
        assert back.relin_wire == relin
        assert back.galois_wire == galois

    @settings(max_examples=25, **COMMON)
    @given(client=IDS, ok=st.booleans(), sid=st.one_of(st.just(""), IDS),
           ticket=st.one_of(st.none(), st.binary(min_size=1, max_size=64)))
    def test_ack_roundtrip(self, client, ok, sid, ticket):
        ack = SessionAck(client_id=client, ok=ok, session_id=sid,
                         ticket_wire=ticket)
        back = decode_session_ack(encode_session_ack(ack))
        assert back.client_id == client
        assert back.ok == ok
        assert back.session_id == sid
        assert back.ticket_wire == ticket

    def test_empty_client_id_rejected(self):
        with pytest.raises(ValueError):
            SessionHello(client_id="")

    @settings(max_examples=25, **COMMON)
    @given(client=IDS, sid=IDS, issued=TIMES)
    def test_session_ticket_roundtrip(self, client, sid, issued):
        t = SessionTicket(client_id=client, session_id=sid, issued_us=issued)
        back = roundtrip_bytes(t, save_session_ticket, load_session_ticket)
        assert back == t


class TestServingFrameVersion:
    """Every serving frame kind fails closed on a foreign version."""

    def _samples(self):
        data = np.ones((2, 1, 8), dtype=np.uint64)
        ct = Ciphertext(data, 2.0**20)
        return [
            (encode_request,
             ServeRequest("r", "square", [ct], priority=1)),
            (encode_response, ServeResponse("r", True, result=ct)),
            (encode_response, overloaded_response("r")),
            (encode_session_hello, SessionHello(client_id="c")),
            (encode_session_ack, SessionAck(client_id="c", ok=True)),
        ]

    @pytest.mark.parametrize("idx", range(5))
    def test_future_version_rejected(self, idx, monkeypatch):
        encoder_fn, obj = self._samples()[idx]
        decoder_fn = {
            encode_request: decode_request,
            encode_response: decode_response,
            encode_session_hello: decode_session_hello,
            encode_session_ack: decode_session_ack,
        }[encoder_fn]
        monkeypatch.setattr(request_mod, "FORMAT_VERSION",
                            FORMAT_VERSION + 1)
        wire = encoder_fn(obj)
        monkeypatch.undo()
        with pytest.raises(ValueError, match="version"):
            decoder_fn(wire)
        # And the current version decodes.
        decoder_fn(encoder_fn(obj))

    def test_session_ticket_version_rejected(self, monkeypatch):
        monkeypatch.setattr(serialize, "FORMAT_VERSION", FORMAT_VERSION + 1)
        wire = to_bytes(save_session_ticket,
                        SessionTicket(client_id="c", session_id="s"))
        monkeypatch.undo()
        with pytest.raises(ValueError, match="version"):
            from_bytes(load_session_ticket, wire)


@pytest.fixture()
def session_server(ckks):
    return HEServer(
        ServerClient.params_wire(ckks["params"]),
        devices=[(DEVICE1, 2)],
        policy=BatchPolicy(max_batch=4, window_us=50.0),
    )


def _tenant(server, ckks, seed, client_id):
    """A session client with its *own* secret material."""
    from repro.core import (
        CkksContext,
        CkksEncoder,
        Decryptor,
        Encryptor,
        KeyGenerator,
    )

    context = CkksContext(ckks["params"])
    keygen = KeyGenerator(context, seed=seed)
    client = ServerClient(
        server,
        encoder=CkksEncoder(context),
        encryptor=Encryptor(context, keygen.public_key(), seed=seed + 1),
        decryptor=Decryptor(context, keygen.secret_key()),
        client_id=client_id,
    )
    ack = client.open_session(
        relin_key=keygen.relin_key(),
        galois_keys=keygen.galois_keys([1, 2], include_conjugate=False),
    )
    return client, ack


class TestMultiClientSessions:
    def test_two_tenants_use_their_own_keys(self, session_server, ckks, rng):
        """Two clients with different secret keys served side by side:
        each decrypts its own results; per-client artifacts namespaced."""
        server = session_server
        alice, ack_a = _tenant(server, ckks, 101, "alice")
        bob, ack_b = _tenant(server, ckks, 202, "bob")
        assert ack_a.session_id != ack_b.session_id
        assert len(server.sessions) == 2

        slots = alice.encoder.slots
        va = rng.normal(size=slots)
        vb = rng.normal(size=slots)
        ra = alice.submit_square(va, arrival_us=0.0)
        rb = bob.submit_square(vb, arrival_us=1.0)
        ra2 = alice.submit("rotate", [alice.encrypt(va)], steps=2,
                           arrival_us=2.0)
        server.drain()

        assert np.abs(alice.result(ra).real - va * va).max() < 1e-3
        assert np.abs(bob.result(rb).real - vb * vb).max() < 1e-3
        assert np.abs(alice.result(ra2).real - np.roll(va, -2)).max() < 1e-3
        # Each client's relin key cached under its own namespace.
        assert "client:alice:key:relin" in server.session.artifacts
        assert "client:bob:key:relin" in server.session.artifacts
        assert server.sessions.get("alice").requests == 2
        assert server.sessions.get("bob").requests == 1

    def test_cross_tenant_decrypt_is_garbage(self, session_server, ckks, rng):
        """Bob cannot decrypt Alice's result (different secret keys)."""
        server = session_server
        alice, _ = _tenant(server, ckks, 101, "alice")
        bob, _ = _tenant(server, ckks, 202, "bob")
        v = rng.normal(size=alice.encoder.slots)
        ra = alice.submit_square(v, arrival_us=0.0)
        server.drain()
        resp = server.response(ra)
        stolen = bob.encoder.decode(bob.decryptor.decrypt(resp.result)).real
        assert np.abs(stolen - v * v).max() > 1.0

    def test_session_weights_are_namespaced(self, session_server, ckks, rng):
        server = session_server
        alice, _ = _tenant(server, ckks, 101, "alice")
        bob, _ = _tenant(server, ckks, 202, "bob")
        x = np.array([1.0, 2.0, 3.0, 4.0])
        server.install_weights("w", np.ones(4), client_id="alice")
        server.install_weights("w", 2 * np.ones(4), client_id="bob")
        ra = alice.submit_dot(x, "w", arrival_us=0.0)
        rb = bob.submit_dot(x, "w", arrival_us=1.0)
        server.drain()
        assert abs(alice.result(ra)[0].real - 10.0) < 1e-2
        assert abs(bob.result(rb)[0].real - 20.0) < 1e-2

    def test_unknown_session_client_rejected(self, session_server, ckks,
                                             rng):
        server = session_server
        enc = ckks["encoder"]
        ct = ckks["encryptor"].encrypt(enc.encode(rng.normal(size=enc.slots)))
        req = ServeRequest("ghost-1", "square", [ct], client_id="ghost")
        with pytest.raises(ValueError, match="handshake"):
            server.submit(req)

    def test_handshake_refresh_rotates_keys(self, session_server, ckks):
        """A second handshake for the same client reuses the session and
        invalidates the stale cached key artifact."""
        server = session_server
        alice, ack1 = _tenant(server, ckks, 101, "alice")
        v = np.ones(alice.encoder.slots)
        alice.submit_square(v, arrival_us=0.0)
        server.drain()
        assert "client:alice:key:relin" in server.session.artifacts
        ack2 = alice.open_session(relin_key=ckks["relin"])
        assert ack2.session_id == ack1.session_id
        assert "client:alice:key:relin" not in server.session.artifacts
        assert server.sessions.get("alice").handshakes == 2

    def test_ticket_resume_and_staleness(self, session_server, ckks):
        server = session_server
        alice, ack = _tenant(server, ckks, 101, "alice")
        sess = server.sessions.resume(ack.ticket_wire)
        assert sess.client_id == "alice"
        stale = SessionTicket(client_id="alice", session_id="sess-999-alice")
        with pytest.raises(ValueError, match="stale"):
            server.sessions.resume(to_bytes(save_session_ticket, stale))

    def test_corrupt_key_blob_refused_atomically(self, session_server, ckks):
        """A handshake with a bad key blob returns a failed ack (never an
        exception) and leaves no state behind: no session registered, no
        key of the rotation pair half-installed."""
        from repro.core.serialize import save_relin_key
        from repro.server import (
            SessionHello,
            decode_session_ack,
            encode_session_hello,
        )

        server = session_server
        good_relin = to_bytes(save_relin_key, ckks["relin"])
        for bad in (b"\x00garbage", b"PK\x03\x04notazip"):
            hello = SessionHello(client_id="mallory",
                                 relin_wire=good_relin, galois_wire=bad)
            ack = decode_session_ack(
                server.handshake(encode_session_hello(hello)))
            assert not ack.ok and ack.error
            assert "mallory" not in server.sessions
            assert "client:mallory:key:relin" not in server.session.artifacts

    def test_handshake_decodes_each_key_blob_once(self, session_server, ckks,
                                                  monkeypatch):
        """The handshake decodes each key blob once, validating and
        installing the same objects."""
        from repro.server import dispatcher as dispatcher_mod
        from repro.server import sessions as sessions_mod

        calls = {"relin": 0, "galois": 0}

        def counted(kind, loader):
            def load(stream):
                calls[kind] += 1
                return loader(stream)
            return load

        for mod in (sessions_mod, dispatcher_mod):
            monkeypatch.setattr(mod, "load_relin_key", counted(
                "relin", serialize.load_relin_key))
            monkeypatch.setattr(mod, "load_galois_keys", counted(
                "galois", serialize.load_galois_keys))
        _tenant(session_server, ckks, 101, "alice")
        assert calls == {"relin": 1, "galois": 1}
        space = session_server.session._space("alice")
        assert space.relin is not None and space.galois is not None

    def test_colon_client_id_rejected(self, session_server):
        """':' is the keyspace separator — crafted ids must not be able
        to collide with another tenant's cached artifacts."""
        from repro.server import (
            SessionHello,
            decode_session_ack,
            encode_session_hello,
        )

        with pytest.raises(ValueError, match="':'"):
            SessionHello(client_id="a:weights:b")
        # Direct install API is guarded too.
        with pytest.raises(ValueError, match="':'"):
            session_server.install_weights("w", np.ones(4),
                                           client_id="a:weights:b")
        # A hand-crafted frame (bypassing the dataclass check) gets a
        # failed ack — wire-boundary errors travel as frames — and no
        # keyspace is created.
        hello = SessionHello(client_id="placeholder")
        hello.client_id = "a:weights:b"
        ack = decode_session_ack(
            session_server.handshake(encode_session_hello(hello)))
        assert not ack.ok and ":" in ack.error
        assert "a:weights:b" not in session_server.sessions

    def test_session_client_falls_back_to_shared_keys(self, session_server,
                                                      ckks, rng):
        """A session that shipped no galois keys still rotates via the
        server's shared keyspace (fallback resolution)."""
        from repro.core.serialize import save_galois_keys

        server = session_server
        server.install_galois_keys(to_bytes(save_galois_keys, ckks["galois"]))
        client = ServerClient(
            server, encoder=ckks["encoder"], encryptor=ckks["encryptor"],
            decryptor=ckks["decryptor"], client_id="carol",
        )
        client.open_session(relin_key=ckks["relin"])  # no galois
        v = rng.normal(size=ckks["encoder"].slots)
        rid = client.submit("rotate", [client.encrypt(v)], steps=2,
                            arrival_us=0.0)
        server.drain()
        assert np.abs(client.result(rid).real - np.roll(v, -2)).max() < 1e-3
