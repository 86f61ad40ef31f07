"""A/B property suite: all execution backends are bit-identical.

Every layer (stacked modmath kernels, stacked NTT, evaluator /
encryptor / decryptor, rns converters) is written once against the
stacked kernel entry points; the backend's kernel table decides what
runs.  One object is driven under ``use_backend("packed")`` and
``use_backend("serial")`` and must produce the exact same uint64
outputs — same values, same lazy-reduction windows.  Hypothesis drives
random moduli (20-60 bits), levels 1-8, degrees {16, 64, 4096}, and
both laziness modes through every layer; a deterministic heavyweight
case pins the paper-shaped N=4096, level-8 stack.

The ``test_native_*`` cases extend the suite to a **three-way** check:
the compiled kernel backend (:mod:`repro.native`) against both the
packed-NumPy path and the per-limb serial oracle, over the same random
moduli / level / degree / laziness space.  When no C toolchain is
usable, the native legs *skip* visibly (they must not silently pass as
two-way checks).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native as repro_native
from repro.native import use_backend, use_threads

NATIVE_AVAILABLE = repro_native.available()

needs_native = pytest.mark.skipif(
    not NATIVE_AVAILABLE,
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
from repro.ntt import NTTEngine
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


def _assert_modmath_identical(seed, k, n, backends):
    run_all, per_limb = _modmath_case(seed, k, n)
    results = {name: _under(name, run_all) for name in backends}
    first = results[backends[0]]
    for backend in backends[1:]:
        for name, want in first.items():
            assert np.array_equal(results[backend][name], want), (backend, name)
    for name, rows in per_limb.items():
        assert np.array_equal(first[name], np.stack(rows)), name


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 8),
    n=st.sampled_from([1, 7, 64, 300]),
)
def test_stacked_modmath_matches_per_limb(seed, k, n):
    _assert_modmath_identical(seed, k, n, ("packed", "serial"))


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
    for backend in ("packed", "serial"):
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
    rng = np.random.default_rng(seed)
    base = _distinct_ntt_base(rng, k, degree)
    engine = NTTEngine(degree, base)
    x = np.empty(lead + (k, degree), dtype=np.uint64)
    for i, m in enumerate(base):
        x[..., i, :] = rng.integers(0, m.value, lead + (degree,), dtype=np.uint64)

    fwd_p = _under("packed", lambda: engine.forward(x, lazy=lazy))
    fwd_s = _under("serial", lambda: engine.forward(x, lazy=lazy))
    assert np.array_equal(fwd_p, fwd_s)
    # Inverse consumes the lazy forward output (the hot pipeline shape).
    inv_p = _under("packed", lambda: engine.inverse(fwd_s, lazy=lazy))
    inv_s = _under("serial", lambda: engine.inverse(fwd_s, lazy=lazy))
    assert np.array_equal(inv_p, inv_s)
    assert np.array_equal(
        _under("packed", lambda: engine.dyadic_multiply(fwd_s, fwd_s)),
        _under("serial", lambda: engine.dyadic_multiply(fwd_s, fwd_s)),
    )


def test_stacked_ntt_paper_shape_both_laziness_modes():
    """Deterministic N=4096, level-8 pin (the acceptance-criteria shape)."""
    rng = np.random.default_rng(7)
    base = _distinct_ntt_base(rng, 8, 4096)
    engine = NTTEngine(4096, base)
    x = _rand_rows(rng, base, (4096,))
    f = _under("serial", lambda: engine.forward(x, lazy=True))
    for lazy in (False, True):
        assert np.array_equal(
            _under("packed", lambda: engine.forward(x, lazy=lazy)),
            _under("serial", lambda: engine.forward(x, lazy=lazy)),
        )
        assert np.array_equal(
            _under("packed", lambda: engine.inverse(f, lazy=lazy)),
            _under("serial", lambda: engine.inverse(f, lazy=lazy)),
        )
    with use_backend("packed"):
        assert np.array_equal(engine.inverse(engine.forward(x)), x)


# -- rns converters -----------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kin=st.integers(1, 5),
    kout=st.integers(1, 4),
    n=st.sampled_from([4, 64, 256]),
)
def test_base_converter_packed_matches_reference(seed, kin, kout, n):
    rng = np.random.default_rng(seed)
    base = _distinct_ntt_base(rng, kin + kout, 16)
    ibase = RNSBase(base.moduli[:kin])
    obase = RNSBase(base.moduli[kin:])
    conv = BaseConverter(ibase, obase)
    x = _rand_rows(rng, ibase, (n,))
    want = conv.convert_reference(x)
    for backend in ("packed", "serial"):
        assert np.array_equal(_under(backend, lambda: conv.convert(x)), want)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 8),
    n=st.sampled_from([4, 64, 256]),
)
def test_scaler_packed_matches_reference(seed, k, n):
    rng = np.random.default_rng(seed)
    base = _distinct_ntt_base(rng, k, 16)
    scaler = LastModulusScaler(base)
    x = _rand_rows(rng, base, (n,))
    want = scaler.divide_round_reference(x)
    for backend in ("packed", "serial"):
        assert np.array_equal(
            _under(backend, lambda: scaler.divide_round(x)), want
        )


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
def test_evaluator_dyadic_ops_packed_matches_serial(ab_scheme, seed, level):
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

    got_p = _under("packed", run_all)
    got_s = _under("serial", run_all)
    assert got_p.keys() == got_s.keys()
    for name, x in got_p.items():
        y = got_s[name]
        assert np.array_equal(x.data, y.data), name
        assert x.scale == y.scale, name


def test_evaluator_keyed_ops_packed_matches_serial(ab_scheme):
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

    for x, y in zip(_under("packed", run_all), _under("serial", run_all)):
        assert np.array_equal(x.data, y.data)


def test_encryptor_decryptor_packed_matches_serial(ab_scheme):
    ctx = ab_scheme["context"]
    enc = ab_scheme["encoder"]
    pk, sk = ab_scheme["public"], ab_scheme["secret"]
    rng = np.random.default_rng(11)
    z = rng.normal(size=enc.slots)
    pt = enc.encode(z)
    ct_p = _under("packed", lambda: Encryptor(ctx, pk, seed=42).encrypt(pt))
    ct_s = _under("serial", lambda: Encryptor(ctx, pk, seed=42).encrypt(pt))
    # Same seed, same sampling order: bit-identical under every backend.
    assert np.array_equal(ct_p.data, ct_s.data)
    dec = Decryptor(ctx, sk)
    pt_p = _under("packed", lambda: dec.decrypt(ct_p))
    pt_s = _under("serial", lambda: dec.decrypt(ct_p))
    assert np.array_equal(pt_p.data, pt_s.data)
    # And the full roundtrip still decodes the message.
    vals = enc.decode(pt_p)
    assert np.allclose(vals.real, z, atol=1e-2)


def test_paper_shape_evaluator_pin():
    """N=4096, level-8 multiply/rescale bit-equality (acceptance shape)."""
    params = CkksParameters.default(
        degree=4096, levels=7, scale_bits=23, first_bits=30, special_bits=30
    )
    ctx = CkksContext(params)
    assert ctx.max_level == 8
    ev = Evaluator(ctx)
    rng = np.random.default_rng(3)
    scale = float(params.scale)
    a = _random_ct(rng, ctx, 2, 8, scale)
    b = _random_ct(rng, ctx, 2, 8, scale)
    rs = Ciphertext(a.data, scale * scale)

    def run():
        return ev.multiply(a, b).data, ev.rescale(rs).data

    for x, y in zip(_under("packed", run), _under("serial", run)):
        assert np.array_equal(x, y)


# -- three-way native / packed / serial ---------------------------------------


@needs_native
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 8),
    n=st.sampled_from([1, 7, 64, 300]),
)
def test_native_modmath_three_way(seed, k, n):
    """Native == packed == serial == per-limb for every table entry."""
    _assert_modmath_identical(seed, k, n, ("native", "packed", "serial"))


@needs_native
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 8),
    degree=st.sampled_from(DEGREES),
    lazy=st.booleans(),
    lead=st.sampled_from([(), (2,)]),
)
def test_native_ntt_three_way(seed, k, degree, lazy, lead):
    """Native stacked NTT == packed stacked NTT == per-row serial NTT."""
    rng = np.random.default_rng(seed)
    base = _distinct_ntt_base(rng, k, degree)
    engine = NTTEngine(degree, base)
    x = np.empty(lead + (k, degree), dtype=np.uint64)
    for i, m in enumerate(base):
        x[..., i, :] = rng.integers(0, m.value, lead + (degree,), dtype=np.uint64)

    fwd_s = _under("serial", lambda: engine.forward(x, lazy=lazy))
    with use_backend("native"):
        fwd_n = engine.forward(x, lazy=lazy)
        inv_n = engine.inverse(fwd_s, lazy=lazy)
    with use_backend("packed"):
        fwd_p = engine.forward(x, lazy=lazy)
        inv_p = engine.inverse(fwd_s, lazy=lazy)
    inv_s = _under("serial", lambda: engine.inverse(fwd_s, lazy=lazy))
    assert np.array_equal(fwd_n, fwd_p)
    assert np.array_equal(fwd_n, fwd_s)
    assert np.array_equal(inv_n, inv_p)
    assert np.array_equal(inv_n, inv_s)


@needs_native
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 8),
    n=st.sampled_from([4, 64, 256]),
)
def test_native_scaler_three_way(seed, k, n):
    """Native fused divide-round tail == packed == per-limb reference."""
    rng = np.random.default_rng(seed)
    base = _distinct_ntt_base(rng, k, 16)
    scaler = LastModulusScaler(base)
    x = _rand_rows(rng, base, (n,))
    ref = scaler.divide_round_reference(x)
    with use_backend("native"):
        got_native = scaler.divide_round(x)
    with use_backend("packed"):
        got_packed = scaler.divide_round(x)
    with use_backend("serial"):
        got_serial = scaler.divide_round(x)
    assert np.array_equal(got_native, got_packed)
    assert np.array_equal(got_native, got_serial)
    assert np.array_equal(got_native, ref)


@needs_native
def test_native_evaluator_paper_shape_three_way():
    """N=4096, level-8 multiply/rescale/relinearize pin across backends."""
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

    got_native = _under("native", run)
    got_packed = _under("packed", run)
    got_serial = _under("serial", run)
    for x, y, z in zip(got_native, got_packed, got_serial):
        assert np.array_equal(x, y)
        assert np.array_equal(x, z)


@needs_native
@pytest.mark.parametrize("degree", DEGREES)
def test_native_keygen_three_way(degree):
    """Every key for a fixed seed is identical under all three backends."""
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
    got_packed = _under("packed", keys)
    got_serial = _under("serial", keys)
    assert len(got_native) == len(got_packed) == len(got_serial)
    for x, y, z in zip(got_native, got_packed, got_serial):
        assert np.array_equal(x, y)
        assert np.array_equal(x, z)


@needs_native
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
    engine = NTTEngine(degree, base)
    x = np.empty((2, k, degree), dtype=np.uint64)
    for i, m in enumerate(base):
        x[:, i, :] = rng.integers(0, m.value, (2, degree), dtype=np.uint64)

    with use_backend("serial"):
        fwd_s = engine.forward(x, lazy=lazy)
        inv_s = engine.inverse(fwd_s, lazy=lazy)
    with use_backend("native"):
        with use_threads(1):
            fwd_1 = engine.forward(x, lazy=lazy)
            inv_1 = engine.inverse(fwd_s, lazy=lazy)
        with use_threads(4):
            fwd_4 = engine.forward(x, lazy=lazy)
            inv_4 = engine.inverse(fwd_s, lazy=lazy)
    assert np.array_equal(fwd_1, fwd_4)
    assert np.array_equal(fwd_1, fwd_s)
    assert np.array_equal(inv_1, inv_4)
    assert np.array_equal(inv_1, inv_s)


@needs_native
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
    got_packed = _under("packed", run)
    for x, y, z in zip(got_1, got_4, got_packed):
        assert np.array_equal(x, y)
        assert np.array_equal(x, z)


@needs_native
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
