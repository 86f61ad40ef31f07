"""Backend-selection and build/caching semantics of ``repro.native``.

Covers the fallback contract: when the C toolchain (or the cached
library) is unavailable the package must fall back to the serial
oracle **exactly once** with a logged warning — not per call — while an
explicit ``set_backend("native")`` must raise the typed
:class:`~repro.native.BackendUnavailableError`.
"""

import logging
import os

import numpy as np
import pytest

from repro import native
from repro.modmath import StackedModulus, gen_ntt_primes, mul_mod
from repro.native import (
    BackendUnavailableError,
    get_backend,
    set_backend,
    use_backend,
)
from repro.native.build import NativeBuildError
from repro.native.tables import KernelTable

HAVE_TOOLCHAIN = native.available()


@pytest.fixture()
def restore_native():
    """Restore auto backend + library-load state after env tinkering."""
    yield
    set_backend(None)
    native.reset()


def _stacked(k=3, n=32, seed=0):
    rng = np.random.default_rng(seed)
    st = StackedModulus.from_values(gen_ntt_primes([30, 28, 26][:k], 16))
    a = np.stack(
        [rng.integers(0, m.value, n, dtype=np.uint64) for m in st]
    )
    b = np.stack(
        [rng.integers(0, m.value, n, dtype=np.uint64) for m in st]
    )
    return st, a, b


# -- selection ----------------------------------------------------------------


def test_backend_names_and_invalid(restore_native):
    with pytest.raises(ValueError):
        set_backend("vectorized")
    with pytest.raises(ValueError):
        set_backend("packed")
    set_backend("serial")
    assert get_backend() == "serial"
    set_backend("auto")
    assert get_backend() in native.BACKENDS


def test_env_var_selects_backend(restore_native, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "serial")
    native.reset()
    assert get_backend() == "serial"
    if HAVE_TOOLCHAIN:
        # An explicit set_backend overrides the env var.
        set_backend("native")
        assert get_backend() == "native"


def test_env_var_invalid_falls_back_to_auto(restore_native, monkeypatch,
                                            caplog):
    # "packed" named a NumPy backend that no longer exists.
    for value in ("warp-speed", "packed"):
        monkeypatch.setenv("REPRO_BACKEND", value)
        native.reset()
        with caplog.at_level(logging.WARNING, logger="repro.native"):
            assert get_backend() == ("native" if HAVE_TOOLCHAIN else "serial")
        assert f"ignoring invalid REPRO_BACKEND={value!r}" in caplog.text


def test_use_backend_restores(restore_native):
    before = get_backend()
    with use_backend("serial"):
        assert get_backend() == "serial"
    assert get_backend() == before


# -- fallback contract --------------------------------------------------------


def test_set_backend_native_raises_typed_when_unavailable(
    restore_native, monkeypatch
):
    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    native.reset()
    with pytest.raises(BackendUnavailableError):
        set_backend("native")
    # The typed error leaves the selection untouched and usable.
    assert get_backend() == "serial"


def test_fallback_warns_exactly_once_not_per_call(
    restore_native, monkeypatch, caplog
):
    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    native.reset()
    st, a, b = _stacked()
    with caplog.at_level(logging.WARNING, logger="repro.native"):
        for _ in range(5):
            mul_mod(a, b, st)  # auto-resolves, discovers unavailability
        assert get_backend() == "serial"
        for _ in range(5):
            mul_mod(a, b, st)
    warnings = [
        r for r in caplog.records
        if "native kernel backend unavailable" in r.getMessage()
    ]
    assert len(warnings) == 1


def test_unavailable_results_still_correct(restore_native, monkeypatch):
    st, a, b = _stacked(seed=7)
    want = mul_mod(a, b, st)
    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    native.reset()
    got = mul_mod(a, b, st)
    assert np.array_equal(got, want)


def test_env_native_request_degrades_with_warning(
    restore_native, monkeypatch, caplog
):
    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    monkeypatch.setenv("REPRO_BACKEND", "native")
    native.reset()
    with caplog.at_level(logging.WARNING, logger="repro.native"):
        assert get_backend() == "serial"
    assert any(
        "requested the native backend" in r.getMessage()
        for r in caplog.records
    )


# -- build + cache ------------------------------------------------------------


@pytest.mark.skipif(not HAVE_TOOLCHAIN, reason="no usable C toolchain")
def test_build_is_cached(restore_native):
    path1 = native.build()
    stat1 = os.stat(path1)
    path2 = native.build()
    stat2 = os.stat(path2)
    assert path1 == path2
    assert stat1.st_mtime_ns == stat2.st_mtime_ns  # no recompile


@pytest.mark.skipif(not HAVE_TOOLCHAIN, reason="no usable C toolchain")
def test_library_loads_and_reports_path(restore_native):
    assert native.available()
    assert native.availability_error() is None
    path = native.library_path()
    assert path is not None and os.path.exists(path)


def test_missing_compiler_is_typed(restore_native, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CC", "definitely-not-a-compiler")
    with pytest.raises(NativeBuildError):
        native.find_compiler()


@pytest.mark.skipif(not HAVE_TOOLCHAIN, reason="no usable C toolchain")
def test_native_backend_dispatches_bit_identically(restore_native):
    st, a, b = _stacked(seed=11)
    with use_backend("serial"):
        want = mul_mod(a, b, st)
    with use_backend("native"):
        assert np.array_equal(mul_mod(a, b, st), want)


# -- one selector, one seam ---------------------------------------------------


def test_backend_is_read_only_through_the_kernel_table():
    """No module outside ``repro/native`` branches on the backend, and no
    public callable of the scheme layers takes a ``packed`` selector."""
    import importlib
    import inspect
    import pkgutil
    import re
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    probe = re.compile(
        r"\b(is_native|is_serial|packed_default)\s*\(|backend\.resolve\s*\("
    )
    offenders = [
        f"{path.relative_to(root)}:{lineno}"
        for path in sorted(root.rglob("*.py"))
        if path.relative_to(root).parts[0] != "native"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if probe.search(line)
    ]
    assert not offenders, offenders

    def callables(obj):
        yield obj
        if inspect.isclass(obj):
            for name, member in vars(obj).items():
                if not name.startswith("_") or name == "__init__":
                    if inspect.isfunction(member):
                        yield member

    with_packed = []
    for pkg_name in ("repro.core", "repro.ntt", "repro.rns"):
        pkg = importlib.import_module(pkg_name)
        for info in pkgutil.iter_modules(pkg.__path__, pkg_name + "."):
            module = importlib.import_module(info.name)
            for name, obj in vars(module).items():
                if name.startswith("_") or \
                        getattr(obj, "__module__", None) != info.name:
                    continue
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                for fn in callables(obj):
                    try:
                        params = inspect.signature(fn).parameters
                    except (TypeError, ValueError):
                        continue
                    if "packed" in params:
                        with_packed.append(f"{info.name}.{fn.__qualname__}")
    assert not with_packed, with_packed


def test_row_kernels_are_declared_once():
    """glue exports one ``KernelTable``-keyed dict of callers, not one
    wrapper per kernel, and the package re-exports glue's load and
    thread functions instead of forwarding to them."""
    from repro.native import glue

    fields = set(KernelTable._fields[1:])
    assert set(glue.KERNELS) == fields
    bespoke = {"ntt_forward", "ntt_inverse", "ks_decompose", "ks_accumulate",
               "divide_round_drop", "scaler_tail"}
    for name in sorted(fields - bespoke):
        assert not hasattr(glue, name), name
    for name in ("available", "availability_error", "library_path",
                 "set_threads", "get_threads", "use_threads"):
        assert getattr(native, name) is getattr(glue, name), name


def test_ctypes_signatures_match_the_c_prototypes():
    """Every ``EXPORT`` prototype in ``csrc/kernels.c`` has a glue row equal
    to its parameter list: ``void`` kernels in ``glue._SIGS``, ``i64``
    controls in ``glue._CONTROLS`` (needs no toolchain)."""
    import ctypes
    import re
    from pathlib import Path

    from repro.native import glue

    source = (Path(glue.__file__).parent / "csrc" / "kernels.c").read_text()
    ctype = {"*": ctypes.c_void_p, "i64": ctypes.c_int64,
             "u64": ctypes.c_uint64}
    prototypes = {"void": {}, "i64": {}}
    for ret, symbol, params in re.findall(
        r"EXPORT (\w+) (repro_\w+)\(([^)]*)\)", source
    ):
        assert ret in prototypes, (symbol, ret)
        args = []
        for param in params.split(","):
            if param.strip() == "void":
                continue
            decl = re.fullmatch(
                r"\s*(?:const\s+)?(u64|i64)\s*(\*?)\s*\w+\s*", param
            )
            assert decl, (symbol, param)
            args.append(ctype[decl[2] or decl[1]])
        prototypes[ret][symbol] = args
    assert prototypes["void"] == glue._SIGS
    assert prototypes["i64"] == glue._CONTROLS


# -- ineligible inputs: the glue declines, the serial body answers ------------


def _harvey(w, p):
    """``w`` with its Harvey quotient ``w * 2**64 // p`` as hi/lo halves."""
    wq = [(int(a) << 64) // int(b)
          for a, b in zip(w.ravel(), np.broadcast_to(p, w.shape).ravel())]
    hi = np.array([q >> 32 for q in wq], dtype=np.uint64).reshape(w.shape)
    lo = np.array([q & 0xFFFFFFFF for q in wq], dtype=np.uint64)
    return w, hi, lo.reshape(w.shape)


def _ineligible_inputs(field):
    """``(label, args, kwargs)`` inputs ``glue.KERNELS[field]`` declines."""
    from repro.native import glue
    from repro.ntt import get_stacked_tables

    rng = np.random.default_rng(5)
    primes = gen_ntt_primes([30, 28, 26, 24], 16)

    def data(*shape):  # below every prime, so valid under each limb
        return rng.integers(0, min(primes), shape, dtype=np.uint64)

    if field in ("ntt_forward", "ntt_inverse"):
        tables = get_stacked_tables(16, primes[:3])
        return [("n' != degree", (data(3, 8), tables), {"lazy": False})]
    if field == "ks_decompose":
        inv = get_stacked_tables(16, primes[:2])
        fwd = get_stacked_tables(16, primes)  # 4 rows, not level + 1 = 3
        return [("len(fwd_tables) != level + 1", (data(2, 16), inv, fwd), {})]
    if field == "divide_round_drop":
        tables = get_stacked_tables(16, primes[:3])
        cols = (*_harvey(data(1, 1), tables.modulus.prefix(1).u64),
                data(1, 1))
        return [
            ("matrix rows != len(tables)", (data(2, 2, 16), tables, *cols),
             {}),
            ("one row: nothing to drop",
             (data(1, 16), get_stacked_tables(16, primes[:1]), *cols), {}),
        ]
    if field == "ks_accumulate":
        tables = get_stacked_tables(16, primes[:2] + primes[3:])
        cols = (*_harvey(data(2, 1), tables.modulus.prefix(2).u64),
                data(2, 1))
        blocks = [data(2, 4, 16) for _ in range(2)]
        return [
            ("key block not C-contiguous",
             (data(2, 3, 16), [np.asfortranarray(b) for b in blocks],
              (0, 1, 3), tables, *cols), {}),
            ("D of the wrong shape",
             (data(2, 4, 16), blocks, (0, 1, 3), tables, *cols), {}),
        ]
    spec = glue._ROW_KERNELS[field]
    st = StackedModulus.from_values(primes[:3])
    layouts = [
        ("trailing=2", st.with_trailing(2), (3, 2, 8), (3, 1, 1)),
        ("limb axis last", st.with_trailing(0), (8, 3), (3,)),
    ]
    if spec.operand:
        layouts.append(("w of wrong size", st, (3, 8), (3, 8)))
    cases = []
    for label, stack, shape, w_shape in layouts:
        arrays = [data(*shape) for _ in range(spec.inputs)]
        cols = _harvey(data(*w_shape), stack.u64) if spec.operand else ()
        cases.append((label, (*arrays, *cols, stack), {}))
    return cases


def _outcome(fn, args, kwargs):
    """``fn``'s output, or the type of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc)


@pytest.mark.skipif(not HAVE_TOOLCHAIN, reason="no usable C toolchain")
@pytest.mark.parametrize("field", [
    pytest.param(field, marks=pytest.mark.skip(
        reason="scaler_tail has no eligibility check: every call is native"))
    if field == "scaler_tail" else field
    for field in KernelTable._fields[1:]
])
def test_ineligible_inputs_fall_through_to_serial(field):
    """The glue declines what it cannot run (``None``), and the native
    table then answers exactly as the serial one: the same array, or the
    same error.  A ``StackedModulus`` whose limb axis is not
    second-to-last has ``trailing != 1``; that is the check it reaches."""
    from repro.native import glue
    from repro.native.tables import NATIVE, SERIAL

    for label, args, kwargs in _ineligible_inputs(field):
        assert glue.KERNELS[field](*args, **kwargs) is None, label
        want = _outcome(getattr(SERIAL, field), args, kwargs)
        got = _outcome(getattr(NATIVE, field), args, kwargs)
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray), label
            assert got.dtype == want.dtype, label
            assert np.array_equal(got, want), label
        else:
            assert got is want, label


@pytest.mark.skipif(not HAVE_TOOLCHAIN, reason="no usable C toolchain")
def test_same_evaluator_bit_identical_across_breaker_trips(restore_native):
    """One Evaluator, created under native, keeps its outputs as the
    circuit breaker swaps the kernel table native -> serial, and a
    second trip at serial is a no-op."""
    from repro.core import CkksContext, CkksParameters, Evaluator, KeyGenerator
    from repro.core.ciphertext import Ciphertext
    from repro.native import backend
    from repro.obs import metrics as obs_metrics

    params = CkksParameters.default(
        degree=64, levels=2, scale_bits=23, first_bits=30, special_bits=30
    )
    ctx = CkksContext(params)
    rlk = KeyGenerator(ctx, seed=9).relin_key()
    rng = np.random.default_rng(2)
    level = ctx.max_level

    def random_ct():
        data = np.empty((2, level, 64), dtype=np.uint64)
        for i in range(level):
            data[:, i] = rng.integers(0, ctx.modulus(i).value, (2, 64),
                                      dtype=np.uint64)
        return Ciphertext(data, float(params.scale))

    a, b = random_ct(), random_ct()
    with obs_metrics.use_registry() as registry:
        try:
            set_backend("native")
            ev = Evaluator(ctx)

            def run():
                prod = ev.relinearize(ev.multiply(a, b), rlk)
                return ev.rescale(prod).data

            want = run()
            for _ in range(2):
                assert backend.degrade(reason="test") == "serial"
                assert get_backend() == "serial"
                assert np.array_equal(run(), want)
        finally:
            backend.reset_breaker()
        degraded = {
            tuple(sorted(inst.labels)): inst.value()
            for inst in registry.instruments()
            if inst.name == "repro_backend_degraded_total"
        }
    assert degraded == {(("from", "native"), ("to", "serial")): 1.0}
