"""Failure-injection tests: the library must fail loudly, not silently.

Covers tampering, cross-context key misuse, domain confusion and other
misuse paths a downstream user could hit — plus mid-stream device
failure in the serving layer: streamed responses already yielded stay
valid, in-flight requests are requeued onto surviving devices or
typed-failed, never silently lost.
"""

import numpy as np
import pytest

from repro.core import (
    Ciphertext,
    CkksContext,
    CkksParameters,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
    Plaintext,
)


class TestTampering:
    def test_tampered_ciphertext_decrypts_to_garbage(self, ckks, rng):
        """Flipping device data must destroy the plaintext (no silent
        partial corruption masking)."""
        enc = ckks["encoder"]
        z = rng.normal(size=enc.slots)
        ct = ckks["encryptor"].encrypt(enc.encode(z))
        ct.data[0, 0, :128] ^= np.uint64(1 << 20)
        got = enc.decode(ckks["decryptor"].decrypt(ct)).real
        assert np.abs(got - z).max() > 1.0

    def test_swapped_components_garbage(self, ckks, rng):
        enc = ckks["encoder"]
        z = rng.normal(size=enc.slots)
        ct = ckks["encryptor"].encrypt(enc.encode(z))
        swapped = Ciphertext(ct.data[::-1].copy(), ct.scale)
        got = enc.decode(ckks["decryptor"].decrypt(swapped)).real
        assert np.abs(got - z).max() > 1.0


class TestCrossContext:
    @pytest.fixture(scope="class")
    def other(self):
        params = CkksParameters.default(degree=1024, levels=3, scale_bits=30,
                                        first_bits=50, special_bits=50)
        ctx = CkksContext(params)
        kg = KeyGenerator(ctx, seed=31337)
        return {"context": ctx, "keygen": kg}

    def test_foreign_relin_key_breaks_result(self, ckks, other, rng):
        """A relin key from different secret material must not work."""
        enc = ckks["encoder"]
        z1 = rng.normal(size=enc.slots)
        z2 = rng.normal(size=enc.slots)
        ev = ckks["evaluator"]
        c1 = ckks["encryptor"].encrypt(enc.encode(z1))
        c2 = ckks["encryptor"].encrypt(enc.encode(z2))
        prod = ev.multiply(c1, c2)
        foreign = other["keygen"].relin_key()
        out = ev.relinearize(prod, foreign)
        got = enc.decode(ckks["decryptor"].decrypt(out)).real
        assert np.abs(got - z1 * z2).max() > 1.0

    def test_foreign_decryptor_fails(self, ckks, other, rng):
        enc = ckks["encoder"]
        z = rng.normal(size=enc.slots)
        ct = ckks["encryptor"].encrypt(enc.encode(z))
        d = Decryptor(other["context"], other["keygen"].secret_key())
        got = enc.decode(d.decrypt(ct)).real
        assert np.abs(got - z).max() > 1.0


class TestDomainAndShapeErrors:
    def test_coeff_form_plaintext_rejected_by_encryptor(self, ckks, rng):
        enc = ckks["encoder"]
        pt = enc.encode(rng.normal(size=enc.slots))
        pt_coeff = Plaintext(pt.data, pt.scale, is_ntt=False)
        with pytest.raises(ValueError):
            ckks["encryptor"].encrypt(pt_coeff)

    def test_coeff_form_ciphertext_rejected_by_evaluator(self, ckks, rng):
        enc = ckks["encoder"]
        z = rng.normal(size=enc.slots)
        ct = ckks["encryptor"].encrypt(enc.encode(z))
        coeff_ct = Ciphertext(ct.data, ct.scale, is_ntt=False)
        with pytest.raises(ValueError):
            ckks["evaluator"].add(coeff_ct, ct)
        with pytest.raises(ValueError):
            ckks["decryptor"].decrypt(coeff_ct)

    def test_bad_ciphertext_shapes(self):
        with pytest.raises(ValueError):
            Ciphertext(np.zeros((2, 8), dtype=np.uint64), 1.0)  # 2-D
        with pytest.raises(ValueError):
            Ciphertext(np.zeros((1, 2, 8), dtype=np.uint64), 1.0)  # size 1
        with pytest.raises(ValueError):
            Ciphertext(np.zeros((2, 2, 8), dtype=np.uint64), -1.0)  # scale

    def test_bad_plaintext_shapes(self):
        with pytest.raises(ValueError):
            Plaintext(np.zeros(8, dtype=np.uint64), 1.0)
        with pytest.raises(ValueError):
            Plaintext(np.zeros((2, 8), dtype=np.uint64), 0.0)

    def test_plain_ops_level_mismatch(self, ckks, rng):
        enc = ckks["encoder"]
        z = rng.normal(size=enc.slots)
        ct = ckks["encryptor"].encrypt(enc.encode(z))
        low = ckks["evaluator"].mod_switch_to_next(ct)
        pt = enc.encode(z)  # full level
        with pytest.raises(ValueError):
            ckks["evaluator"].add_plain(low, pt)
        with pytest.raises(ValueError):
            ckks["evaluator"].multiply_plain(low, pt)


class TestMidStreamDeviceFailure:
    """A device dying mid-stream must not lose or corrupt anything."""

    N = 12

    def _serve(self, ckks, rng, *, devices, fail=None):
        from repro.server import BatchPolicy, HEServer, ServerClient

        server = HEServer(
            ServerClient.params_wire(ckks["params"]),
            devices=devices,
            policy=BatchPolicy(max_batch=4, window_us=50.0),
        )
        client = ServerClient(
            server, encoder=ckks["encoder"], encryptor=ckks["encryptor"],
            decryptor=ckks["decryptor"], relin_key=ckks["relin"],
        )
        enc = ckks["encoder"]
        values = [rng.normal(size=enc.slots) for _ in range(self.N)]
        ids = [client.submit_square(v, arrival_us=float(i * 100))
               for i, v in enumerate(values)]
        if fail is not None:
            server.dispatcher.fail_device(*fail)
        streamed = list(client.stream())
        return server, client, values, ids, streamed

    def test_requeued_to_surviving_device(self, ckks, rng):
        """Two-device pool: the failed device's in-flight requests land
        on the survivor; already-yielded responses stay valid."""
        from repro.xesim import DEVICE1, DEVICE2

        pool = [(DEVICE1, 2), (DEVICE2, 1)]
        # Dry run to learn the failure-free timeline, then inject the
        # failure halfway through Device1's completions.
        dry_server, _, _, ids, _ = self._serve(ckks, rng, devices=pool)
        d1_completes = sorted(
            r.complete_us for r in (dry_server.response(i) for i in ids)
            if r.device == "Device1"
        )
        assert len(d1_completes) >= 4  # the fast device carries traffic
        fail_us = (d1_completes[len(d1_completes) // 2 - 1]
                   + d1_completes[len(d1_completes) // 2]) / 2

        server, client, values, ids, streamed = self._serve(
            ckks, rng, devices=pool, fail=("Device1", fail_us))

        # Every request gets exactly one terminal response; all served.
        assert sorted(r.request_id for r in streamed) == sorted(ids)
        assert all(r.ok for r in streamed)
        for v, rid in zip(values, ids):
            assert np.abs(client.result(rid).real - v * v).max() < 1e-3

        # Responses yielded before the failure instant are genuine
        # Device1 completions; afterwards nothing completes on Device1.
        pre = [r for r in streamed if r.yielded_at_us <= fail_us]
        post = [r for r in streamed if r.yielded_at_us > fail_us]
        assert any(r.device == "Device1" for r in pre)
        assert all(r.device != "Device1" for r in post)
        assert post  # some requests really were in flight

        # The requeues are visible in the dispatcher accounting and the
        # rescued requests completed after the failure, on the survivor.
        assert server.dispatcher.requeued > 0
        assert server.metrics.requeued_total == server.dispatcher.requeued
        assert all(r.device == "Device2" and r.complete_us > fail_us
                   for r in post)

    def test_single_device_pool_types_the_loss(self, ckks, rng):
        """No survivor: in-flight requests get a typed 'device_failed'
        terminal response — never a silent drop, never a stale result."""
        from repro.xesim import DEVICE2

        pool = [(DEVICE2, 1)]
        dry_server, _, _, ids, _ = self._serve(ckks, rng, devices=pool)
        completes = sorted(
            dry_server.response(i).complete_us for i in ids)
        fail_us = (completes[self.N // 2 - 1] + completes[self.N // 2]) / 2

        server, client, values, ids, streamed = self._serve(
            ckks, rng, devices=pool, fail=("Device2", fail_us))

        assert sorted(r.request_id for r in streamed) == sorted(ids)
        served = [r for r in streamed if r.ok]
        lost = [r for r in streamed if not r.ok]
        assert served and lost
        assert all(r.status == "device_failed" for r in lost)
        assert all(r.result is None for r in lost)
        assert all(r.complete_us <= fail_us for r in served)
        # Already-yielded results remain decryptable and correct.
        by_id = {rid: v for rid, v in zip(ids, values)}
        for r in served:
            got = client.result(r.request_id).real
            assert np.abs(got - by_id[r.request_id] ** 2).max() < 1e-3
        with pytest.raises(RuntimeError, match="device_failed"):
            client.result(lost[0].request_id)


class TestNoiseOverflowBehaviour:
    def test_deep_circuit_without_rescale_loses_precision(self, ckks, rng):
        """Multiplying without rescaling squares the scale; by depth 2
        the scale exceeds q and decryption must be garbage — the failure
        mode rescaling exists to prevent."""
        enc = ckks["encoder"]
        z = rng.normal(size=enc.slots) * 0.5 + 1.0
        ev = ckks["evaluator"]
        ct = ckks["encryptor"].encrypt(enc.encode(z))
        cur = ct
        for _ in range(2):
            cur = ev.relinearize(ev.square(cur), ckks["relin"])
        # scale is now 2^120 vs q ~ 2^140: decode noise overwhelms.
        got = enc.decode(ckks["decryptor"].decrypt(cur)).real
        expect = z**4
        # Depth 2 without rescale: precision collapses vs the rescaled path.
        rescaled = ct
        for _ in range(2):
            rescaled = ev.rescale(ev.relinearize(ev.square(rescaled),
                                                 ckks["relin"]))
        got_rs = enc.decode(ckks["decryptor"].decrypt(rescaled)).real
        err_rs = np.abs(got_rs - expect).max()
        assert err_rs < 0.05  # the supported path stays accurate
