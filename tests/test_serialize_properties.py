"""Property-based round-trip tests for every core.serialize pair.

Hypothesis generates structurally-arbitrary (not semantically meaningful)
payloads: round-tripping must be byte-exact for *any* well-formed object,
not just the ones our fixtures produce.  Also pins the FORMAT_VERSION
contract: any version other than the current one is rejected by every
loader.
"""

import io
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import CkksParameters
from repro.core.ciphertext import Ciphertext
from repro.core.keys import GaloisKeys, KSwitchKey, PublicKey, RelinKey, SecretKey
from repro.core.plaintext import Plaintext
from repro.core import serialize
from repro.core.serialize import (
    FORMAT_VERSION,
    ciphertext_from_buffer,
    ciphertext_parts,
    from_bytes,
    load_ciphertext,
    load_galois_keys,
    load_params,
    load_plaintext,
    load_public_key,
    load_relin_key,
    load_secret_key,
    roundtrip_bytes,
    save_ciphertext,
    save_galois_keys,
    save_params,
    save_plaintext,
    save_public_key,
    save_relin_key,
    save_secret_key_insecure,
    to_bytes,
)

# Shared strategy pieces: small shapes keep runtime sane; the formats do
# not care about cryptographic validity, only about structure.
DEGREES = st.sampled_from([8, 16, 32])
LEVELS = st.integers(min_value=1, max_value=4)
U64 = st.integers(min_value=0, max_value=2**64 - 1)
SCALES = st.floats(min_value=1e-3, max_value=1e30,
                   allow_nan=False, allow_infinity=False)

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


def u64_array(shape_strategy):
    return shape_strategy.flatmap(
        lambda shape: arrays(np.uint64, shape, elements=U64)
    )


ct_arrays = u64_array(st.tuples(st.integers(2, 3), LEVELS, DEGREES))
pt_arrays = u64_array(st.tuples(LEVELS, DEGREES))
pk_arrays = u64_array(st.tuples(st.just(2), LEVELS, DEGREES))
ksk_arrays = st.integers(1, 3).flatmap(
    lambda count: st.tuples(LEVELS, DEGREES).flatmap(
        lambda shape: st.lists(
            arrays(np.uint64, (2,) + shape, elements=U64),
            min_size=count, max_size=count,
        )
    )
)


class TestCiphertextPlaintextProperties:
    @settings(max_examples=40, **COMMON)
    @given(data=ct_arrays, scale=SCALES, is_ntt=st.booleans())
    def test_ciphertext_roundtrip(self, data, scale, is_ntt):
        ct = Ciphertext(data, scale, is_ntt)
        back = roundtrip_bytes(ct, save_ciphertext, load_ciphertext)
        assert np.array_equal(back.data, ct.data)
        assert back.scale == ct.scale
        assert back.is_ntt == ct.is_ntt

    @settings(max_examples=40, **COMMON)
    @given(data=pt_arrays, scale=SCALES, is_ntt=st.booleans())
    def test_plaintext_roundtrip(self, data, scale, is_ntt):
        pt = Plaintext(data, scale, is_ntt)
        back = roundtrip_bytes(pt, save_plaintext, load_plaintext)
        assert np.array_equal(back.data, pt.data)
        assert back.scale == pt.scale
        assert back.is_ntt == pt.is_ntt


def raw_blob(size=2, level=2, degree=8, *, flags=1, scale=2.0**40,
             body=None, version=None):
    """A raw ciphertext blob written from the documented layout, with a
    valid CRC over whatever fields it is given."""
    if body is None:
        body = bytes(size * level * degree * 8)
    head = struct.pack("<4sHHIIId", b"RPCT",
                       FORMAT_VERSION if version is None else version,
                       flags, size, level, degree, scale)
    return head + struct.pack("<I", zlib.crc32(body, zlib.crc32(head))) + body


class TestRawCiphertextBlob:
    @settings(max_examples=40, **COMMON)
    @given(
        size=st.integers(2, 3),
        level=st.integers(1, 8),
        log_degree=st.integers(1, 14),
        seed=st.integers(0, 2**32 - 1),
        scale=st.one_of(
            st.sampled_from([2.0**30, 2.0**60]),
            st.floats(min_value=0.0, exclude_min=True,
                      allow_nan=False, allow_infinity=False)),
        is_ntt=st.booleans(),
    )
    def test_roundtrip(self, size, level, log_degree, seed, scale, is_ntt):
        shape = (size, level, 1 << log_degree)
        data = np.random.default_rng(seed).integers(
            0, 2**64, size=shape, dtype=np.uint64, endpoint=False)
        data.flat[0], data.flat[-1] = 0, 2**64 - 1
        ct = Ciphertext(data, scale, is_ntt)
        head, limbs = ciphertext_parts(ct)
        assert len(head) == 32 and head[:4] == b"RPCT"
        for back in (ciphertext_from_buffer(head + limbs),
                     roundtrip_bytes(ct, save_ciphertext, load_ciphertext)):
            assert back.data.shape == shape
            assert np.array_equal(back.data, data)
            assert back.scale == scale and back.is_ntt == is_ntt

    def test_layout_matches_the_documented_header(self):
        body = np.arange(2 * 3 * 16, dtype="<u8").tobytes()
        ct = ciphertext_from_buffer(raw_blob(2, 3, 16, flags=0, scale=0.5,
                                             body=body))
        assert ct.data.shape == (2, 3, 16) and ct.data[1, 2, 15] == 95
        assert ct.scale == 0.5 and ct.is_ntt is False

    @pytest.mark.parametrize("blob,match", [
        (raw_blob(size=1), "size"),
        (raw_blob(size=9), "size"),
        (raw_blob(level=0), "level"),
        (raw_blob(degree=12), "degree"),
        (raw_blob(degree=0), "degree"),
        (raw_blob(degree=1 << 18, body=b""), "degree"),
        (raw_blob(body=bytes(2 * 2 * 8 * 8 - 8)), "body"),
        (raw_blob(body=bytes(2 * 2 * 8 * 8 + 8)), "body"),
        (raw_blob(scale=float("nan")), "scale"),
        (raw_blob(scale=float("inf")), "scale"),
        (raw_blob(scale=0.0), "scale"),
        (raw_blob(scale=-2.0**40), "scale"),
        (raw_blob(flags=2), "flags"),
        (raw_blob(version=1), "version"),
        (raw_blob()[:31], "truncated"),
        (b"PK\x03\x04" + raw_blob()[4:], "magic"),
    ], ids=["size1", "size9", "level0", "degree12", "degree0", "degree2^18",
            "len-8", "len+8", "nan", "inf", "scale0", "scale<0", "flags2",
            "v1", "short", "magic"])
    def test_header_bounds_rejected(self, blob, match):
        with pytest.raises(ValueError, match=match):
            ciphertext_from_buffer(blob)

    def test_crc_mismatch_rejected(self):
        blob = bytearray(raw_blob())
        blob[-1] ^= 1
        with pytest.raises(ValueError, match="CRC"):
            ciphertext_from_buffer(bytes(blob))


class TestParamsProperties:
    @settings(max_examples=15, **COMMON)
    @given(
        degree=st.sampled_from([8, 32, 128]),
        bits=st.lists(st.sampled_from([25, 30, 35, 40, 50]),
                      min_size=2, max_size=5),
        scale_bits=st.integers(min_value=10, max_value=40),
    )
    def test_params_roundtrip(self, degree, bits, scale_bits):
        params = CkksParameters(
            poly_modulus_degree=degree,
            coeff_modulus_bits=bits,
            scale=float(2**scale_bits),
        )
        back = roundtrip_bytes(params, save_params, load_params)
        assert back.poly_modulus_degree == params.poly_modulus_degree
        assert back.coeff_modulus_bits == params.coeff_modulus_bits
        assert back.scale == params.scale
        # Derived primes are regenerated deterministically.
        assert back.moduli == params.moduli


class TestKeyProperties:
    @settings(max_examples=30, **COMMON)
    @given(data=pk_arrays)
    def test_public_key_roundtrip(self, data):
        back = roundtrip_bytes(PublicKey(data=data), save_public_key,
                               load_public_key)
        assert np.array_equal(back.data, data)

    @settings(max_examples=30, **COMMON)
    @given(
        rows=u64_array(st.tuples(LEVELS, DEGREES)),
        signs=st.tuples(st.integers(1, 4), DEGREES).flatmap(
            lambda s: arrays(np.int64, (s[1],),
                             elements=st.sampled_from([-1, 0, 1]))
        ),
    )
    def test_secret_key_roundtrip(self, rows, signs):
        sk = SecretKey(ntt_rows=rows, signed_coeffs=signs)
        back = roundtrip_bytes(sk, save_secret_key_insecure, load_secret_key)
        assert np.array_equal(back.ntt_rows, sk.ntt_rows)
        assert np.array_equal(back.signed_coeffs, sk.signed_coeffs)

    @settings(max_examples=25, **COMMON)
    @given(data=ksk_arrays)
    def test_relin_key_roundtrip(self, data):
        rlk = RelinKey(key=KSwitchKey(data=data))
        back = roundtrip_bytes(rlk, save_relin_key, load_relin_key)
        assert back.key.decomp_count == rlk.key.decomp_count
        for a, b in zip(back.key.data, rlk.key.data):
            assert np.array_equal(a, b)

    @settings(max_examples=20, **COMMON)
    @given(
        elts=st.lists(st.integers(min_value=3, max_value=2**14 - 1)
                      .map(lambda x: x | 1),  # Galois elements are odd
                      min_size=1, max_size=4, unique=True),
        data=st.data(),
    )
    def test_galois_keys_roundtrip(self, elts, data):
        gk = GaloisKeys()
        for elt in elts:
            gk.keys[elt] = KSwitchKey(data=data.draw(ksk_arrays))
        back = roundtrip_bytes(gk, save_galois_keys, load_galois_keys)
        assert set(back.keys) == set(gk.keys)
        for elt in elts:
            assert back.keys[elt].decomp_count == gk.keys[elt].decomp_count
            for a, b in zip(back.keys[elt].data, gk.keys[elt].data):
                assert np.array_equal(a, b)


# -- FORMAT_VERSION contract -------------------------------------------------

PAIRS = [
    ("params", save_params, load_params, "params"),
    ("plaintext", save_plaintext, load_plaintext, "pt"),
    ("ciphertext", save_ciphertext, load_ciphertext, "ct"),
    ("public_key", save_public_key, load_public_key, "public"),
    ("secret_key", save_secret_key_insecure, load_secret_key, "secret"),
    ("relin_key", save_relin_key, load_relin_key, "relin"),
    ("galois_keys", save_galois_keys, load_galois_keys, "galois"),
]


@pytest.fixture()
def sample_objects(ckks, rng):
    enc = ckks["encoder"]
    pt = enc.encode(rng.normal(size=enc.slots))
    return {
        "params": ckks["params"],
        "pt": pt,
        "ct": ckks["encryptor"].encrypt(pt),
        "public": ckks["public"],
        "secret": ckks["secret"],
        "relin": ckks["relin"],
        "galois": ckks["galois"],
    }


class TestFormatVersion:
    @pytest.mark.parametrize("kind,saver,loader,obj_key",
                             PAIRS, ids=[p[0] for p in PAIRS])
    def test_version_mismatch_rejected(self, kind, saver, loader, obj_key,
                                       sample_objects, monkeypatch):
        """Bytes written by a future format version must be refused."""
        monkeypatch.setattr(serialize, "FORMAT_VERSION", FORMAT_VERSION + 1)
        wire = to_bytes(saver, sample_objects[obj_key])
        monkeypatch.undo()
        with pytest.raises(ValueError, match="version"):
            from_bytes(loader, wire)

    @pytest.mark.parametrize("kind,saver,loader,obj_key",
                             PAIRS, ids=[p[0] for p in PAIRS])
    def test_current_version_accepted(self, kind, saver, loader, obj_key,
                                      sample_objects):
        from_bytes(loader, to_bytes(saver, sample_objects[obj_key]))

    @settings(max_examples=30, **COMMON)
    @given(version=st.one_of(
        st.integers(min_value=-10**6, max_value=10**6)
        .filter(lambda v: v != FORMAT_VERSION),
        st.none(),
    ))
    def test_any_foreign_version_rejected(self, version):
        """Crafted frames with any other (or missing) version fail closed."""
        payload = {"kind": "params", "degree": 8, "bits": [30, 30],
                   "scale": 2.0**10}
        if version is not None:
            payload["version"] = version
        buf = io.BytesIO()
        np.savez(buf, __meta__=np.frombuffer(
            json.dumps(payload).encode(), dtype=np.uint8))
        buf.seek(0)
        with pytest.raises(ValueError, match="version"):
            load_params(buf)

    def test_wrong_kind_still_rejected(self, sample_objects):
        wire = to_bytes(save_public_key, sample_objects["public"])
        with pytest.raises(ValueError, match="expected"):
            from_bytes(load_relin_key, wire)
