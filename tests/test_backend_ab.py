"""A/B property suite: both execution backends are bit-identical.

Every layer (stacked modmath kernels, stacked NTT, evaluator /
encryptor / decryptor, rns converters) is written once against the
stacked kernel entry points; the backend's kernel table decides what
runs.  One object is driven under ``use_backend("native")`` — the
compiled kernels of :mod:`repro.native` — and ``use_backend("serial")``
— the per-limb oracle — and must produce the exact same uint64 outputs:
same values, same lazy-reduction windows.  Hypothesis drives random
moduli (20-60 bits), levels 1-8, degrees {16, 64, 4096}, and both
laziness modes through every layer; deterministic heavyweight cases pin
the paper-shaped N=4096, level-8 stack, and the threaded cases pin
1-thread vs N-thread native runs.  The native NTT rows come in two sets,
AVX-512 (chosen at load where the CPU has it) and scalar; each is held
to serial on full-range and edge inputs, N = 2...32768.

Every case needs the native leg, so without a usable C toolchain the
whole module *skips* visibly (it must not silently pass as a serial
self-comparison).
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native as repro_native
from repro.native import use_backend, use_threads

pytestmark = pytest.mark.skipif(
    not repro_native.available(),
    reason="no usable C toolchain: native backend leg skipped "
           f"({repro_native.availability_error()})",
)

from repro.core import (
    CkksContext,
    CkksEncoder,
    CkksParameters,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
)
from repro.core.ciphertext import Ciphertext
from repro.modmath import (
    Modulus,
    StackedModulus,
    add_mod,
    dot_mod,
    mad_mod,
    mul_mod,
    neg_mod,
    sub_mod,
)
from repro.modmath.barrett import (
    barrett_reduce_64,
    barrett_reduce_128,
    conditional_sub,
)
from repro.ntt import (
    get_stacked_tables,
    ntt_forward_stacked,
    ntt_inverse_stacked,
)
from repro.rns import BaseConverter, LastModulusScaler, RNSBase

DEGREES = [16, 64, 4096]


def _under(name, fn):
    """Run ``fn()`` with backend ``name`` selected (and in effect)."""
    with use_backend(name):
        assert repro_native.get_backend() == name
        return fn()


def _distinct_ntt_base(rng: np.random.Generator, k: int, degree: int) -> RNSBase:
    """k distinct NTT-friendly primes of random widths for ``degree``."""
    from repro.modmath import gen_ntt_primes

    bit_sizes = [int(b) for b in rng.integers(21, 61, size=k)]
    return RNSBase.from_values(gen_ntt_primes(bit_sizes, degree))


def _rand_rows(rng, base, shape_tail):
    out = np.empty((len(base),) + shape_tail, dtype=np.uint64)
    for i, m in enumerate(base):
        out[i] = rng.integers(0, m.value, shape_tail, dtype=np.uint64)
    return out


# -- stacked modmath vs per-limb ---------------------------------------------


def _modmath_case(seed, k, n):
    """Random operands for every elementwise kernel-table entry.

    Returns ``(run_all, per_limb)``: ``run_all()`` evaluates each stacked
    entry point under the backend in effect; ``per_limb`` holds the
    scalar-``Modulus`` reference rows for the entries that have one.
    """
    from repro.native.backend import kernels

    rng = np.random.default_rng(seed)
    mods = [
        Modulus(int(p))
        for p in _distinct_ntt_base(rng, k, 16).values
    ]
    stacked = StackedModulus(mods)

    def rows(bound_of):
        return np.stack(
            [rng.integers(0, bound_of(m), n, dtype=np.uint64) for m in mods]
        )

    a, b, c, m_in = (rows(lambda m: m.value) for _ in range(4))
    lazy = rows(lambda m: 2 * m.value)
    r_lazy = rows(lambda m: 4 * m.value)
    hi = rng.integers(0, 1 << 64, (k, n), dtype=np.uint64)
    lo = rng.integers(0, 1 << 64, (k, n), dtype=np.uint64)
    w = np.stack([rng.integers(1, m.value, 1, dtype=np.uint64) for m in mods])
    wq = [(int(w[i, 0]) << 64) // mods[i].value for i in range(k)]
    wq_hi = np.array([q >> 32 for q in wq], dtype=np.uint64)[:, None]
    wq_lo = np.array([q & 0xFFFFFFFF for q in wq], dtype=np.uint64)[:, None]

    def run_all():
        return {
            "add_mod": add_mod(a, b, stacked),
            "sub_mod": sub_mod(a, b, stacked),
            "neg_mod": neg_mod(a, stacked),
            "mul_mod": mul_mod(a, b, stacked),
            "mad_mod": mad_mod(a, b, c, stacked),
            "conditional_sub": conditional_sub(lazy, stacked),
            "barrett_reduce_64": barrett_reduce_64(lo, stacked),
            "barrett_reduce_128": barrett_reduce_128(hi, lo, stacked),
            "dot_mod": dot_mod(a, b, stacked),
            "dyadic_product": kernels().dyadic_product(a, b, c, lazy, stacked),
            "dyadic_square": kernels().dyadic_square(a, b, stacked),
            "mul_operand": kernels().mul_operand(a, w, wq_hi, wq_lo, stacked),
            "lazy_diff_mul_operand": kernels().lazy_diff_mul_operand(
                m_in, r_lazy, w, wq_hi, wq_lo, stacked
            ),
        }

    per_limb = {
        "add_mod": [add_mod(a[i], b[i], mods[i]) for i in range(k)],
        "sub_mod": [sub_mod(a[i], b[i], mods[i]) for i in range(k)],
        "neg_mod": [neg_mod(a[i], mods[i]) for i in range(k)],
        "mul_mod": [mul_mod(a[i], b[i], mods[i]) for i in range(k)],
        "mad_mod": [mad_mod(a[i], b[i], c[i], mods[i]) for i in range(k)],
        "conditional_sub": [conditional_sub(lazy[i], mods[i]) for i in range(k)],
        "barrett_reduce_64": [barrett_reduce_64(lo[i], mods[i]) for i in range(k)],
        "barrett_reduce_128": [
            barrett_reduce_128(hi[i], lo[i], mods[i]) for i in range(k)
        ],
        "dot_mod": [dot_mod(a[i], b[i], mods[i]) for i in range(k)],
        "mul_operand": [mul_mod(a[i], w[i], mods[i]) for i in range(k)],
    }
    return run_all, per_limb


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 8),
    n=st.sampled_from([1, 7, 64, 300]),
)
def test_stacked_modmath_matches_per_limb(seed, k, n):
    """Each backend's stacked entries == the scalar-``Modulus`` rows."""
    run_all, per_limb = _modmath_case(seed, k, n)
    for backend in ("native", "serial"):
        got = _under(backend, run_all)
        for name, rows in per_limb.items():
            assert np.array_equal(got[name], np.stack(rows)), (backend, name)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 8),
    n=st.sampled_from([1, 7, 64, 300]),
)
def test_native_modmath_matches_serial(seed, k, n):
    """Native == serial for every elementwise table entry, fused ones too."""
    run_all, _ = _modmath_case(seed, k, n)
    got_native = _under("native", run_all)
    got_serial = _under("serial", run_all)
    assert got_native.keys() == got_serial.keys()
    for name, want in got_serial.items():
        assert np.array_equal(got_native[name], want), name


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8))
def test_stacked_modmath_broadcast_shapes(seed, k):
    """Leading component axes and (k, 1) scalar columns broadcast right."""
    rng = np.random.default_rng(seed)
    mods = [Modulus(int(p)) for p in _distinct_ntt_base(rng, k, 16).values]
    stacked = StackedModulus(mods)
    n = 33
    a = np.stack(
        [np.stack([rng.integers(0, m.value, n, dtype=np.uint64) for m in mods])
         for _ in range(3)]
    )
    col = np.array(
        [rng.integers(0, m.value) for m in mods], dtype=np.uint64
    )[:, None]
    for backend in ("native", "serial"):
        got = _under(backend, lambda: mul_mod(a, col, stacked))
        for comp in range(3):
            for i in range(k):
                want = mul_mod(a[comp, i], col[i, 0], mods[i])
                assert np.array_equal(got[comp, i], want), backend


# -- stacked NTT vs per-row ---------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 8),
    degree=st.sampled_from(DEGREES),
    lazy=st.booleans(),
    lead=st.sampled_from([(), (2,)]),
)
def test_stacked_ntt_matches_per_row(seed, k, degree, lazy, lead):
    """A stacked transform == each limb row under its own one-limb tables."""
    rng = np.random.default_rng(seed)
    base = _distinct_ntt_base(rng, k, degree)
    tables = get_stacked_tables(degree, base)
    x = np.empty(lead + (k, degree), dtype=np.uint64)
    for i, m in enumerate(base):
        x[..., i, :] = rng.integers(0, m.value, lead + (degree,), dtype=np.uint64)

    fwd_s = _under("serial", lambda: ntt_forward_stacked(x, tables, lazy=lazy))
    with use_backend("native"):
        fwd = ntt_forward_stacked(x, tables, lazy=lazy)
        inv = ntt_inverse_stacked(fwd_s, tables, lazy=lazy)
        for i, m in enumerate(base):
            row = get_stacked_tables(degree, [m])
            assert np.array_equal(
                fwd[..., i : i + 1, :],
                ntt_forward_stacked(x[..., i : i + 1, :], row, lazy=lazy),
            ), i
            assert np.array_equal(
                inv[..., i : i + 1, :],
                ntt_inverse_stacked(fwd_s[..., i : i + 1, :], row, lazy=lazy),
            ), i


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 8),
    degree=st.sampled_from(DEGREES),
    lazy=st.booleans(),
    lead=st.sampled_from([(), (2,)]),
)
def test_native_ntt_matches_serial(seed, k, degree, lazy, lead):
    rng = np.random.default_rng(seed)
    base = _distinct_ntt_base(rng, k, degree)
    tables = get_stacked_tables(degree, base)
    x = np.empty(lead + (k, degree), dtype=np.uint64)
    for i, m in enumerate(base):
        x[..., i, :] = rng.integers(0, m.value, lead + (degree,), dtype=np.uint64)

    fwd_n = _under("native", lambda: ntt_forward_stacked(x, tables, lazy=lazy))
    fwd_s = _under("serial", lambda: ntt_forward_stacked(x, tables, lazy=lazy))
    assert np.array_equal(fwd_n, fwd_s)
    # Inverse consumes the serial forward output (the hot pipeline shape).
    inv_n = _under("native", lambda: ntt_inverse_stacked(fwd_s, tables, lazy=lazy))
    inv_s = _under("serial", lambda: ntt_inverse_stacked(fwd_s, tables, lazy=lazy))
    assert np.array_equal(inv_n, inv_s)
    assert np.array_equal(
        _under("native", lambda: mul_mod(fwd_s, fwd_s, tables.modulus)),
        _under("serial", lambda: mul_mod(fwd_s, fwd_s, tables.modulus)),
    )


def test_stacked_ntt_paper_shape_both_laziness_modes():
    """Deterministic N=4096, level-8 pin (the acceptance-criteria shape)."""
    rng = np.random.default_rng(7)
    base = _distinct_ntt_base(rng, 8, 4096)
    tables = get_stacked_tables(4096, base)
    x = _rand_rows(rng, base, (4096,))
    f = _under("serial", lambda: ntt_forward_stacked(x, tables, lazy=True))
    for lazy in (False, True):
        assert np.array_equal(
            _under("native", lambda: ntt_forward_stacked(x, tables, lazy=lazy)),
            _under("serial", lambda: ntt_forward_stacked(x, tables, lazy=lazy)),
        )
        assert np.array_equal(
            _under("native", lambda: ntt_inverse_stacked(f, tables, lazy=lazy)),
            _under("serial", lambda: ntt_inverse_stacked(f, tables, lazy=lazy)),
        )
    with use_backend("native"):
        fwd = ntt_forward_stacked(x, tables)
        assert np.array_equal(ntt_inverse_stacked(fwd, tables), x)


# -- rns converters -----------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kin=st.integers(1, 5),
    kout=st.integers(1, 4),
    n=st.sampled_from([4, 64, 256]),
)
def test_base_converter_native_matches_reference(seed, kin, kout, n):
    rng = np.random.default_rng(seed)
    base = _distinct_ntt_base(rng, kin + kout, 16)
    ibase = RNSBase(base.moduli[:kin])
    obase = RNSBase(base.moduli[kin:])
    conv = BaseConverter(ibase, obase)
    x = _rand_rows(rng, ibase, (n,))
    want = conv.convert_reference(x)
    for backend in ("native", "serial"):
        assert np.array_equal(_under(backend, lambda: conv.convert(x)), want)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 8),
    n=st.sampled_from([4, 64, 256]),
)
def test_scaler_native_matches_reference(seed, k, n):
    """Native fused divide-round tail == serial == per-limb reference."""
    rng = np.random.default_rng(seed)
    base = _distinct_ntt_base(rng, k, 16)
    scaler = LastModulusScaler(base)
    x = _rand_rows(rng, base, (n,))
    want = scaler.divide_round_reference(x)
    for backend in ("native", "serial"):
        assert np.array_equal(
            _under(backend, lambda: scaler.divide_round(x)), want
        )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 8))
def test_native_scaler_matches_serial(seed, k):
    """Native == serial where the centered-residue correction flips.

    The dropped row takes the values around ``d/2`` (where the centered
    representative changes sign) and the ends of its range; the kept
    rows take ``0`` and ``q - 1`` as well as random residues.
    """
    rng = np.random.default_rng(seed)
    base = _distinct_ntt_base(rng, k, 16)
    scaler = LastModulusScaler(base)
    d = base[k - 1].value
    edges = np.array(
        [0, 1, d // 2 - 1, d // 2, d // 2 + 1, d - 2, d - 1], dtype=np.uint64
    )
    n = 3 * len(edges)
    x = _rand_rows(rng, base, (n,))
    x[k - 1] = np.tile(edges, 3)
    for i in range(k - 1):
        q = base[i].value
        x[i, : len(edges)] = 0
        x[i, len(edges) : 2 * len(edges)] = q - 1
    got_native = _under("native", lambda: scaler.divide_round(x))
    got_serial = _under("serial", lambda: scaler.divide_round(x))
    assert np.array_equal(got_native, got_serial)


# -- evaluator / encryptor / decryptor ---------------------------------------


@pytest.fixture(scope="module")
def ab_scheme():
    """One small deployment; its evaluator runs under each backend."""
    params = CkksParameters.default(
        degree=64, levels=3, scale_bits=23, first_bits=30, special_bits=30
    )
    context = CkksContext(params)
    keygen = KeyGenerator(context, seed=77)
    return {
        "context": context,
        "encoder": CkksEncoder(context),
        "public": keygen.public_key(),
        "secret": keygen.secret_key(),
        "relin": keygen.relin_key(),
        "galois": keygen.galois_keys([1, 3], include_conjugate=True),
        "evaluator": Evaluator(context),
    }


def _random_ct(rng, context, size, level, scale):
    data = np.empty((size, level, context.degree), dtype=np.uint64)
    for i in range(level):
        data[:, i] = rng.integers(
            0, context.modulus(i).value, (size, context.degree), dtype=np.uint64
        )
    return Ciphertext(data, scale)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), level=st.integers(1, 4))
def test_evaluator_dyadic_ops_native_matches_serial(ab_scheme, seed, level):
    ctx = ab_scheme["context"]
    ev = ab_scheme["evaluator"]
    rng = np.random.default_rng(seed)
    scale = float(ctx.params.scale)
    a = _random_ct(rng, ctx, 2, level, scale)
    b = _random_ct(rng, ctx, 2, level, scale)
    t3 = _random_ct(rng, ctx, 3, level, scale)
    a3 = Ciphertext(a.data, scale)
    pt = ab_scheme["encoder"].encode(
        rng.normal(size=4), level=level
    ) if level <= ctx.max_level else None

    def run_all():
        out = {
            "add": ev.add(a, b),
            "add3": ev.add(t3, a3),
            "sub": ev.sub(a, b),
            "sub3a": ev.sub(t3, a3),
            "sub3b": ev.sub(a3, t3),
            "negate": ev.negate(a),
            "multiply": ev.multiply(a, b),
            "square": ev.square(a),
            "add_scalar": ev.add_scalar(a, 2.25),
            "multiply_scalar": ev.multiply_scalar(a, -1.5),
        }
        if pt is not None:
            out["add_plain"] = ev.add_plain(a, pt)
            out["multiply_plain"] = ev.multiply_plain(a, pt)
        if level >= 2:
            out["rescale"] = ev.rescale(Ciphertext(a.data, scale * scale))
            out["mod_switch"] = ev.mod_switch_to_next(a)
        return out

    got_n = _under("native", run_all)
    got_s = _under("serial", run_all)
    assert got_n.keys() == got_s.keys()
    for name, x in got_n.items():
        y = got_s[name]
        assert np.array_equal(x.data, y.data), name
        assert x.scale == y.scale, name


def test_evaluator_keyed_ops_native_matches_serial(ab_scheme):
    ctx = ab_scheme["context"]
    ev = ab_scheme["evaluator"]
    rng = np.random.default_rng(5)
    scale = float(ctx.params.scale)
    level = ctx.max_level
    a = _random_ct(rng, ctx, 2, level, scale)
    t3 = _random_ct(rng, ctx, 3, level, scale)
    rlk, gk = ab_scheme["relin"], ab_scheme["galois"]

    def run_all():
        return [
            ev.relinearize(t3, rlk), ev.rotate(a, 1, gk), ev.conjugate(a, gk),
            *ev.rotate_hoisted(a, [1, 3], gk),
        ]

    for x, y in zip(_under("native", run_all), _under("serial", run_all)):
        assert np.array_equal(x.data, y.data)


def test_encryptor_decryptor_native_matches_serial(ab_scheme):
    ctx = ab_scheme["context"]
    enc = ab_scheme["encoder"]
    pk, sk = ab_scheme["public"], ab_scheme["secret"]
    rng = np.random.default_rng(11)
    z = rng.normal(size=enc.slots)
    pt = enc.encode(z)
    ct_n = _under("native", lambda: Encryptor(ctx, pk, seed=42).encrypt(pt))
    ct_s = _under("serial", lambda: Encryptor(ctx, pk, seed=42).encrypt(pt))
    # Same seed, same sampling order: bit-identical under both backends.
    assert np.array_equal(ct_n.data, ct_s.data)
    dec = Decryptor(ctx, sk)
    pt_n = _under("native", lambda: dec.decrypt(ct_n))
    pt_s = _under("serial", lambda: dec.decrypt(ct_n))
    assert np.array_equal(pt_n.data, pt_s.data)
    # And the full roundtrip still decodes the message.
    vals = enc.decode(pt_n)
    assert np.allclose(vals.real, z, atol=1e-2)


def test_paper_shape_evaluator_pin():
    """N=4096, level-8 multiply/rescale/relinearize pin (acceptance shape)."""
    params = CkksParameters.default(
        degree=4096, levels=7, scale_bits=23, first_bits=30, special_bits=30
    )
    ctx = CkksContext(params)
    assert ctx.max_level == 8
    rlk = KeyGenerator(ctx, seed=123).relin_key()
    ev = Evaluator(ctx)
    rng = np.random.default_rng(3)
    scale = float(params.scale)
    a = _random_ct(rng, ctx, 2, 8, scale)
    b = _random_ct(rng, ctx, 2, 8, scale)
    t3 = _random_ct(rng, ctx, 3, 8, scale)
    rs = Ciphertext(a.data, scale * scale)

    def run():
        return (
            ev.multiply(a, b).data,
            ev.rescale(rs).data,
            ev.relinearize(t3, rlk).data,
        )

    for x, y in zip(_under("native", run), _under("serial", run)):
        assert np.array_equal(x, y)


def test_native_evaluator_paper_shape_matches_serial():
    """N=4096, level-8 unkeyed ops beyond the pin: native == serial."""
    params = CkksParameters.default(
        degree=4096, levels=7, scale_bits=23, first_bits=30, special_bits=30
    )
    ctx = CkksContext(params)
    ev = Evaluator(ctx)
    rng = np.random.default_rng(13)
    scale = float(params.scale)
    a = _random_ct(rng, ctx, 2, 8, scale)
    b = _random_ct(rng, ctx, 2, 8, scale)
    pt = CkksEncoder(ctx).encode(rng.normal(size=8), level=8)

    def run():
        return {
            "square": ev.square(a),
            "sub": ev.sub(a, b),
            "negate": ev.negate(a),
            "add_plain": ev.add_plain(a, pt),
            "multiply_plain": ev.multiply_plain(a, pt),
            "multiply_scalar": ev.multiply_scalar(a, -1.5),
            "mod_switch": ev.mod_switch_to_next(a),
        }

    got_n = _under("native", run)
    got_s = _under("serial", run)
    for name, x in got_n.items():
        assert np.array_equal(x.data, got_s[name].data), name
        assert x.scale == got_s[name].scale, name


# -- keys and threads ---------------------------------------------------------


@pytest.mark.parametrize("degree", DEGREES)
def test_native_keygen_matches_serial(degree):
    """Every key for a fixed seed is identical under both backends."""
    params = CkksParameters.default(
        degree=degree, levels=3, scale_bits=23, first_bits=30, special_bits=30
    )

    def keys():
        keygen = KeyGenerator(CkksContext(params), seed=31)
        gk = keygen.galois_keys([1, 2, 3], include_conjugate=True)
        return [
            keygen.secret_key().ntt_rows,
            keygen.public_key().data,
            *keygen.relin_key().key.data,
            *(part for elt in sorted(gk.keys) for part in gk.keys[elt].data),
        ]

    got_native = _under("native", keys)
    got_serial = _under("serial", keys)
    assert len(got_native) == len(got_serial)
    for x, y in zip(got_native, got_serial):
        assert np.array_equal(x, y)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 8),
    degree=st.sampled_from(DEGREES),
    lazy=st.booleans(),
)
def test_native_ntt_threaded_bit_identical(seed, k, degree, lazy):
    """Kernel thread count never changes a native transform's output.

    The row-parallel worker pool splits ``(batch, limb)`` rows across
    threads; since rows are independent the 1-thread and N-thread runs
    must agree bit for bit (and with the serial oracle).
    """
    rng = np.random.default_rng(seed)
    base = _distinct_ntt_base(rng, k, degree)
    tables = get_stacked_tables(degree, base)
    x = np.empty((2, k, degree), dtype=np.uint64)
    for i, m in enumerate(base):
        x[:, i, :] = rng.integers(0, m.value, (2, degree), dtype=np.uint64)

    with use_backend("serial"):
        fwd_s = ntt_forward_stacked(x, tables, lazy=lazy)
        inv_s = ntt_inverse_stacked(fwd_s, tables, lazy=lazy)
    with use_backend("native"):
        with use_threads(1):
            fwd_1 = ntt_forward_stacked(x, tables, lazy=lazy)
            inv_1 = ntt_inverse_stacked(fwd_s, tables, lazy=lazy)
        with use_threads(4):
            fwd_4 = ntt_forward_stacked(x, tables, lazy=lazy)
            inv_4 = ntt_inverse_stacked(fwd_s, tables, lazy=lazy)
    assert np.array_equal(fwd_1, fwd_4)
    assert np.array_equal(fwd_1, fwd_s)
    assert np.array_equal(inv_1, inv_4)
    assert np.array_equal(inv_1, inv_s)


def test_native_evaluator_threaded_bit_identical():
    """N=4096 level-8 multiply/rescale/relinearize: threads 1 == 4."""
    params = CkksParameters.default(
        degree=4096, levels=7, scale_bits=23, first_bits=30, special_bits=30
    )
    ctx = CkksContext(params)
    keygen = KeyGenerator(ctx, seed=123)
    rlk = keygen.relin_key()
    ev = Evaluator(ctx)
    rng = np.random.default_rng(3)
    scale = float(params.scale)
    a = _random_ct(rng, ctx, 2, 8, scale)
    b = _random_ct(rng, ctx, 2, 8, scale)
    t3 = _random_ct(rng, ctx, 3, 8, scale)
    rs = Ciphertext(a.data, scale * scale)

    def run():
        return (
            ev.multiply(a, b).data,
            ev.rescale(rs).data,
            ev.relinearize(t3, rlk).data,
        )

    with use_backend("native"):
        with use_threads(1):
            got_1 = run()
        with use_threads(4):
            got_4 = run()
    got_serial = _under("serial", run)
    for x, y, z in zip(got_1, got_4, got_serial):
        assert np.array_equal(x, y)
        assert np.array_equal(x, z)


def test_native_thread_knobs():
    """set_threads/get_threads/use_threads agree and validate input."""
    import os

    from repro import native

    baseline = native.get_threads()
    assert baseline >= 1
    with use_threads(3):
        assert native.get_threads() == 3
        with use_threads(1):
            assert native.get_threads() == 1
        assert native.get_threads() == 3
    assert native.get_threads() == baseline
    with pytest.raises(ValueError):
        native.set_threads(0)
    # None restores the default (env override or cpu count).
    native.set_threads(7)
    native.set_threads(None)
    assert native.get_threads() == baseline


# -- AVX-512 NTT rows vs scalar rows vs serial ---------------------------------


def _missing_simd_flags():
    """The CPU flags the AVX-512 rows need that ``/proc/cpuinfo`` lacks."""
    import re
    from pathlib import Path

    try:
        found = re.search(r"^flags\s*:(.*)$",
                          Path("/proc/cpuinfo").read_text(), re.M)
    except OSError:
        found = None
    flags = set(found.group(1).split()) if found else set()
    return [f for f in ("avx512f", "avx512dq") if f not in flags]


#: Row sets under test: the scalar rows always, the AVX-512 rows where the
#: library chose them at load (a visible skip naming the flag otherwise).
NTT_ROWS = [
    "scalar",
    pytest.param("avx512", marks=pytest.mark.skipif(
        repro_native.ntt_isa() != "avx512",
        reason="AVX-512 NTT rows not selected on this host (missing: "
               f"{', '.join(_missing_simd_flags()) or 'OS or x86-64 support'})",
    )),
]


def _under_rows(rows, fn):
    """Run ``fn()`` on the native backend with the named NTT row set."""
    from repro.native import glue

    with use_backend("native"):
        if rows == "scalar":
            with glue._scalar_ntt_rows():
                assert repro_native.ntt_isa() == "scalar"
                return fn()
        assert repro_native.ntt_isa() == rows
        return fn()


def _edge_filled(rng, base, lead, n):
    """Full-range uint64 rows with 0, p-1, p, 2p-1, 2p, 4p-1 mixed in."""
    x = rng.integers(0, 1 << 64, lead + (len(base), n), dtype=np.uint64)
    flat = x.reshape(-1, len(base), n)
    for r in range(flat.shape[0]):
        for i, m in enumerate(base):
            p = m.value
            edges = [0, p - 1, p, 2 * p - 1, 2 * p, 4 * p - 1]
            spots = rng.choice(n, size=min(n, len(edges)), replace=False)
            for slot, pos in enumerate(spots):
                flat[r, i, pos] = edges[(r + i + slot) % len(edges)]
    return x


@functools.lru_cache(maxsize=None)
def _ntt_rows_case(logn):
    """``(run, serial outputs)`` for N = 2**logn, k = 1 + logn % 9."""
    n = 1 << logn
    k = 1 + logn % 9
    rng = np.random.default_rng(1000 + logn)
    base = _distinct_ntt_base(rng, k, n)
    tables = get_stacked_tables(n, base)
    x = _edge_filled(rng, base, (2,), n)

    def run():
        return [f(x, tables, lazy=lazy)
                for lazy in (False, True)
                for f in (ntt_forward_stacked, ntt_inverse_stacked)]

    return run, _under("serial", run)


@pytest.mark.parametrize("logn", range(1, 16))
@pytest.mark.parametrize("rows", NTT_ROWS)
def test_native_ntt_rows_match_serial(rows, logn):
    """Each NTT row set == serial for N = 2...32768 (the scalar/SIMD edge
    at 8/16 included), both lazy modes, batch 2, full-range inputs."""
    run, want = _ntt_rows_case(logn)
    got = _under_rows(rows, run)
    for i, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g, w), i


@functools.lru_cache(maxsize=None)
def _ks_case(degree, levels):
    """``(run, serial output)`` of one key-switch decompose at a CKKS shape."""
    from repro.native.backend import kernels

    ctx = CkksContext(CkksParameters.default(degree=degree, levels=levels))
    level = ctx.max_level
    inv = ctx.stacked_tables.prefix(level)
    fwd = ctx.stacked_tables_rows(
        tuple(range(level)) + (len(ctx.key_base) - 1,))
    rng = np.random.default_rng(degree + levels)
    poly = _edge_filled(rng, list(ctx.ct_base)[:level], (), degree)

    def run():
        return kernels().ks_decompose(poly, inv, fwd)

    return run, _under("serial", run)


@pytest.mark.parametrize("degree,levels", [(4096, 3), (8192, 8), (16384, 4)])
@pytest.mark.parametrize("rows", NTT_ROWS)
def test_native_ks_decompose_rows_match_serial(rows, degree, levels):
    """The fused decompose (iNTT, Barrett pass, NTTs) == the serial steps."""
    run, want = _ks_case(degree, levels)
    assert np.array_equal(_under_rows(rows, run), want)


def test_native_ntt_isa_is_chosen_at_load():
    """The library runs the AVX-512 rows exactly when the CPU has both
    flags (Linux x86-64), and the scalar-rows hook restores that choice."""
    import platform

    from repro.native import glue

    isa = repro_native.ntt_isa()
    if platform.machine() in ("x86_64", "AMD64") and \
            not _missing_simd_flags():
        assert isa == "avx512"
    with glue._scalar_ntt_rows():
        assert repro_native.ntt_isa() == "scalar"
    assert repro_native.ntt_isa() == isa


# -- the key switch's accumulate and the NTT-form mod-down ----------------------


def _divide_round_cols(primes, kept):
    """``divide_round_drop``'s columns for dropping ``primes[kept]``."""
    d = primes[kept]
    inv = [pow(d % q, -1, q) for q in primes[:kept]]
    quot = [(w << 64) // q for w, q in zip(inv, primes)]
    col = functools.partial(np.array, dtype=np.uint64)
    return (col(inv)[:, None], col([x >> 32 for x in quot])[:, None],
            col([x & 0xFFFFFFFF for x in quot])[:, None],
            col([d % q for q in primes[:kept]])[:, None])


def test_native_ks_accumulate_reduces_early_without_overflow():
    """65 source rows of 61-bit primes with every ``D`` and key value at
    ``p - 1``: each term is ~2^122, so the 128-bit sum must be reduced
    after every 64 terms.  The native call equals the serial composite."""
    from repro.modmath import gen_ntt_primes
    from repro.native import glue
    from repro.native.tables import SERIAL

    level, n = 65, 16
    primes = gen_ntt_primes([61] * (level + 1), n)
    assert all(p.bit_length() == 61 for p in primes)
    tables = get_stacked_tables(n, primes)
    top = np.array(primes, dtype=np.uint64)[:, None] - np.uint64(1)
    D = np.broadcast_to(top, (level, level + 1, n)).copy()
    keys = [np.broadcast_to(top, (2, level + 1, n)).copy()
            for _ in range(level)]
    rows = tuple(range(level + 1))
    cols = _divide_round_cols(primes, level)
    got = _under("native", lambda: glue.ks_accumulate(
        D, keys, rows, tables, *cols))
    assert got is not None
    want = _under("serial", lambda: SERIAL.ks_accumulate(
        D, keys, rows, tables, *cols))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("rows", NTT_ROWS)
def test_native_ks_decompose_diagonal_matches_serial(rows):
    """The diagonal row is a copy of the source row only when that row is
    canonical: a residue ``p_i + 1`` makes it transform, as serial does."""
    from repro.native.backend import kernels

    ctx = CkksContext(CkksParameters.default(degree=64, levels=3))
    level = ctx.max_level
    inv = ctx.stacked_tables.prefix(level)
    fwd = ctx.stacked_tables_rows(
        tuple(range(level)) + (len(ctx.key_base) - 1,))
    rng = np.random.default_rng(17)
    poly = _rand_rows(rng, list(ctx.ct_base)[:level], (64,))
    bumped = poly.copy()
    bumped[1, 5] = ctx.modulus(1).value + 1

    def run():
        return [kernels().ks_decompose(x, inv, fwd) for x in (poly, bumped)]

    got, want = _under_rows(rows, run), _under("serial", run)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert not np.array_equal(got[1][1, 1], bumped[1])


@functools.lru_cache(maxsize=None)
def _switch_case(degree):
    """``(run, serial outputs)`` of every key-switching op and rescale."""
    params = CkksParameters.default(
        degree=degree, levels=2, scale_bits=25, first_bits=40,
        special_bits=40)
    ctx = CkksContext(params)
    keygen = KeyGenerator(ctx, seed=degree)
    rlk = keygen.relin_key()
    gk = keygen.galois_keys([1, 2], include_conjugate=True)
    ev = Evaluator(ctx)
    rng = np.random.default_rng(degree + 1)
    scale = float(params.scale)
    level = ctx.max_level
    a = _random_ct(rng, ctx, 2, level, scale)
    t3 = _random_ct(rng, ctx, 3, level, scale)
    low = _random_ct(rng, ctx, 2, level - 1, scale)

    def run():
        return [
            ev.relinearize(t3, rlk), ev.rotate(a, 1, gk),
            ev.conjugate(a, gk), *ev.rotate_hoisted(a, [1, 2], gk),
            ev.rotate(low, 2, gk), ev.rescale(a), ev.rescale(t3),
        ]

    return run, [ct.data for ct in _under("serial", run)]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("rows", NTT_ROWS)
@pytest.mark.parametrize("degree", [16, 1024, 16384])
def test_native_key_switch_ops_match_serial(degree, rows, threads):
    """relinearize, rotate, conjugate, rotate_hoisted and rescale: native
    == serial on both NTT row sets at 1 and 2 kernel threads."""
    run, want = _switch_case(degree)
    with use_threads(threads):
        got = _under_rows(rows, run)
    for i, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g.data, w), i
