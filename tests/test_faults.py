"""Unit tests for :mod:`repro.faults`: plans, schedules, faultpoints,
the retry policy, ticket validation and the wire-frame fuzz sweep."""

import io
import json
import struct

import numpy as np
import pytest

from repro import faults
from repro.core.serialize import (
    SessionTicket,
    StaleTicketError,
    TicketError,
    from_bytes,
    load_session_ticket,
    save_session_ticket,
    to_bytes,
)
from repro.faults import FaultPlan, FaultRule, InjectedFault
from repro.obs.metrics import MetricsRegistry
from repro.server.client import RetryPolicy, submit_with_retry
from repro.server.request import (
    FrameError,
    ServeRequest,
    ServeResponse,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)

#: Bytes of the raw ciphertext blob's fixed header (CRC included).
CT_HEADER = 32


class TestFaultPlan:
    def test_hits_schedule_is_exact(self):
        plan = FaultPlan([FaultRule("p", "slow_execution", hits=(2, 4))])
        fired = [plan.check("p") is not None for _ in range(6)]
        assert fired == [False, True, False, True, False, False]
        assert plan.checks("p") == 6
        assert plan.fired("p", "slow_execution") == 2

    def test_max_fires_caps_a_probability_rule(self):
        plan = FaultPlan(
            [FaultRule("p", "slow_execution", probability=1.0, max_fires=3)])
        fired = sum(plan.check("p") is not None for _ in range(10))
        assert fired == 3

    def test_probability_draws_are_seeded(self):
        def run(seed):
            plan = FaultPlan(
                [FaultRule("p", "slow_execution", probability=0.5)],
                seed=seed)
            return [plan.check("p") is not None for _ in range(64)]

        assert run(1) == run(1)
        assert run(1) != run(2)

    def test_first_matching_rule_wins(self):
        plan = FaultPlan([
            FaultRule("p", "worker_crash", hits=(1,)),
            FaultRule("p", "worker_hang", probability=1.0),
        ])
        assert plan.check("p").mode == "worker_crash"
        assert plan.check("p").mode == "worker_hang"

    def test_unknown_mode_and_bad_probability_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            FaultRule("p", "segfault")
        with pytest.raises(ValueError, match="probability"):
            FaultRule("p", "worker_hang", probability=1.5)
        with pytest.raises(ValueError, match="1-based"):
            FaultRule("p", "worker_hang", hits=(0,))

    def test_use_plan_scopes_the_installation(self):
        assert not faults.active()
        plan = FaultPlan([FaultRule("p", "slow_execution", hits=(1,))])
        with faults.use_plan(plan):
            assert faults.active()
            assert faults.check("p") is not None
            assert faults.check("p") is None
        assert not faults.active()
        assert faults.check("p") is None

    def test_summary_and_injected_counter(self):
        def injected():
            reg = faults.register_metrics(MetricsRegistry())
            return reg.counter("repro_faults_injected_total", labels={
                "point": "p", "mode": "slow_execution"}).value()

        before = injected()
        plan = FaultPlan([FaultRule("p", "slow_execution", hits=(1, 2))])
        with faults.use_plan(plan):
            faults.check("p")
            faults.check("p")
        assert plan.summary() == {"p/slow_execution": 2}
        assert injected() == before + 2

    def test_registered_faultpoints_cover_the_serving_stack(self):
        import repro.native.build  # noqa: F401 - registers native.build
        import repro.native.glue  # noqa: F401 - registers native.kernel
        import repro.server.dispatcher  # noqa: F401
        import repro.server.request  # noqa: F401
        import repro.server.workers  # noqa: F401

        points = faults.faultpoints()
        for name in ("wire.decode", "worker.execute", "dispatcher.execute",
                     "dispatcher.device", "native.kernel", "native.build"):
            assert name in points, name


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        p = RetryPolicy(base_backoff_us=100.0, multiplier=2.0,
                        cap_backoff_us=350.0, jitter=0.0)
        assert p.backoff_us(0) == 100.0
        assert p.backoff_us(1) == 200.0
        assert p.backoff_us(2) == 350.0  # capped, not 400
        assert p.backoff_us(5) == 350.0

    def test_jitter_is_deterministic_and_bounded(self):
        p = RetryPolicy(base_backoff_us=100.0, jitter=0.25, seed=3)
        vals = [p.backoff_us(0) for _ in range(3)]
        assert len(set(vals)) == 1  # same (seed, attempt) -> same jitter
        assert 75.0 <= vals[0] <= 125.0
        assert p.backoff_us(0) != RetryPolicy(
            base_backoff_us=100.0, jitter=0.25, seed=4).backoff_us(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)

    def test_submit_with_retry_survives_transient_corruption(self):
        class FlakyServer:
            def __init__(self, failures):
                self.failures = failures
                self.submits = []

            def submit(self, wire, *, arrival_us=None):
                self.submits.append(arrival_us)
                if len(self.submits) <= self.failures:
                    raise FrameError("injected")
                return "rid"

        srv = FlakyServer(failures=2)
        rid = submit_with_retry(srv, b"x", arrival_us=10.0,
                                policy=RetryPolicy(jitter=0.0))
        assert rid == "rid"
        # Each retry pushed the simulated arrival forward by the backoff.
        assert srv.submits == [10.0, 210.0, 610.0]

        srv = FlakyServer(failures=99)
        with pytest.raises(FrameError):
            submit_with_retry(srv, b"x", policy=RetryPolicy(max_attempts=3))
        assert len(srv.submits) == 3


class TestFrameHardening:
    @pytest.fixture(scope="class")
    def ct(self, ckks):
        enc = ckks["encoder"]
        rng = np.random.default_rng(0)
        return ckks["encryptor"].encrypt(
            enc.encode(rng.normal(size=enc.slots)))

    @pytest.fixture(scope="class")
    def request_wire(self, ct):
        return encode_request(ServeRequest("r0", "square", [ct]))

    def test_roundtrip_still_works(self, request_wire):
        req = decode_request(request_wire)
        assert req.request_id == "r0" and req.op == "square"

    @pytest.mark.parametrize("mutant", [
        b"", b"RPRQ", b"XXXX" + b"\0" * 16, b"RPRQ" + b"\xff" * 8,
    ])
    def test_structurally_broken_frames_are_typed(self, mutant):
        with pytest.raises(FrameError):
            decode_request(mutant)

    def test_fuzz_random_mutations_never_leak_raw_errors(self, request_wire):
        """Hundreds of random byte flips/truncations: decode either
        succeeds or raises FrameError (a ValueError) — never struct.error,
        IndexError, KeyError or UnicodeDecodeError."""
        rng = np.random.default_rng(2022)
        data = bytearray(request_wire)
        for trial in range(300):
            mutated = bytearray(data)
            if trial % 3 == 0:  # truncate
                mutated = mutated[: int(rng.integers(0, len(mutated)))]
            else:  # flip 1-8 random bytes
                for _ in range(int(rng.integers(1, 9))):
                    i = int(rng.integers(0, len(mutated)))
                    mutated[i] ^= int(rng.integers(1, 256))
            try:
                decode_request(bytes(mutated))
            except FrameError:
                pass
            except Exception as exc:  # pragma: no cover - the failure case
                pytest.fail(
                    f"trial {trial}: decode leaked "
                    f"{type(exc).__name__}: {exc}")

    @pytest.mark.parametrize("kind", ["request", "response"])
    def test_every_ciphertext_byte_flip_is_refused(self, ct, kind):
        """The blob is the frame's last bytes; a single flipped byte in
        its header, its CRC field or its limbs must fail the decode,
        never yield a different ciphertext."""
        if kind == "request":
            wire, decode = (encode_request(ServeRequest("r0", "square", [ct])),
                            decode_request)
        else:
            wire, decode = (encode_response(ServeResponse("r0", True,
                                                          result=ct)),
                            decode_response)
        start = len(wire) - (CT_HEADER + ct.data.nbytes)
        assert wire[start:start + 4] == b"RPCT"
        rng = np.random.default_rng(35)
        limb_offsets = CT_HEADER + rng.choice(ct.data.nbytes, 64,
                                              replace=False)
        flips = [(off, mask) for off in range(CT_HEADER)
                 for mask in (0x01, 0x80, 0xFF)]
        flips += [(int(off), 0x01) for off in limb_offsets]
        flips += [(CT_HEADER, 0x01), (CT_HEADER + ct.data.nbytes - 1, 0x80)]
        for off, mask in flips:
            mutated = bytearray(wire)
            mutated[start + off] ^= mask
            with pytest.raises(FrameError, match="corrupt ciphertext blob"):
                decode(bytes(mutated))

    def test_version_1_npz_ciphertext_is_refused(self, ct, request_wire):
        """A frame whose blob is a format-1 npz ciphertext fails closed."""
        buf = io.BytesIO()
        meta = {"version": 1, "kind": "ciphertext", "scale": ct.scale,
                "is_ntt": ct.is_ntt}
        np.savez(buf, __meta__=np.frombuffer(json.dumps(meta).encode(),
                                             dtype=np.uint8), data=ct.data)
        npz = buf.getvalue()
        start = len(request_wire) - (CT_HEADER + ct.data.nbytes)
        wire = (request_wire[:start - 8] + struct.pack("<Q", len(npz))
                + npz)
        with pytest.raises(FrameError, match="version"):
            decode_request(wire)

    def test_decoded_limbs_are_owned(self, request_wire):
        """Decode copies the limbs out of the frame.  Views into it would
        pin every receive frame: a served add-4k process retained
        ~883 kB/request with views against ~786 kB with the copy."""
        data = decode_request(request_wire).cts[0].data
        assert data.flags.writeable
        assert data.flags.c_contiguous and data.flags.aligned
        assert not np.shares_memory(
            data, np.frombuffer(request_wire, dtype=np.uint8))

    def test_injected_corruption_fires_through_the_faultpoint(
            self, request_wire):
        plan = FaultPlan([
            FaultRule("wire.decode", "corrupt_frame", hits=(1,)),
            FaultRule("wire.decode", "truncate_frame", hits=(2,)),
        ])
        with faults.use_plan(plan):
            with pytest.raises(FrameError):
                decode_request(request_wire)
            with pytest.raises(FrameError):
                decode_request(request_wire)
            decode_request(request_wire)  # 3rd check: no rule fires
        assert plan.summary() == {
            "wire.decode/corrupt_frame": 1,
            "wire.decode/truncate_frame": 1,
        }


class TestTicketValidation:
    def test_roundtrip(self):
        t = SessionTicket(client_id="alice", session_id="sess-1-alice",
                          issued_us=42.0)
        assert from_bytes(
            load_session_ticket,
            to_bytes(save_session_ticket, t)) == t

    def test_corrupt_bytes_raise_ticket_error(self):
        wire = to_bytes(
            save_session_ticket,
            SessionTicket(client_id="a", session_id="s"))
        for mutant in (b"", b"garbage", wire[: len(wire) // 2],
                       bytes(b ^ 0x5A for b in wire)):
            with pytest.raises(TicketError):
                from_bytes(load_session_ticket, mutant)

    def test_wrong_kind_raises_ticket_error(self):
        from repro.core.params import CkksParameters
        from repro.core.serialize import save_params

        wire = to_bytes(save_params, CkksParameters.default(degree=1024))
        with pytest.raises(TicketError):
            from_bytes(load_session_ticket, wire)

    def test_stale_ticket_error_is_a_ticket_error(self):
        assert issubclass(StaleTicketError, TicketError)
        assert issubclass(TicketError, ValueError)


class TestInjectedFaultTypes:
    def test_injected_fault_hierarchy(self):
        assert issubclass(InjectedFault, faults.FaultError)
        assert issubclass(faults.FaultError, RuntimeError)

    def test_build_failure_injection(self):
        from repro.native.build import NativeBuildError, build

        plan = FaultPlan(
            [FaultRule("native.build", "build_failure", hits=(1,))])
        with faults.use_plan(plan):
            with pytest.raises(NativeBuildError, match="injected"):
                build()
