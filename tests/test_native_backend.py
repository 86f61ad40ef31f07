"""Backend-selection and build/caching semantics of ``repro.native``.

Covers the fallback contract: when the C toolchain (or the cached
library) is unavailable the package must fall back to the packed NumPy
path **exactly once** with a logged warning — not per call — while an
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
    for name in ("packed", "serial"):
        set_backend(name)
        assert get_backend() == name
    set_backend("auto")
    assert get_backend() in native.BACKENDS


def test_env_var_selects_backend(restore_native, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "serial")
    native.reset()
    assert get_backend() == "serial"
    # An explicit set_backend overrides the env var.
    set_backend("packed")
    assert get_backend() == "packed"


def test_env_var_invalid_falls_back_to_auto(restore_native, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "warp-speed")
    native.reset()
    assert get_backend() in ("native", "packed")


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
    assert get_backend() == "packed"


def test_fallback_warns_exactly_once_not_per_call(
    restore_native, monkeypatch, caplog
):
    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    native.reset()
    st, a, b = _stacked()
    with caplog.at_level(logging.WARNING, logger="repro.native"):
        for _ in range(5):
            mul_mod(a, b, st)  # auto-resolves, discovers unavailability
        assert get_backend() == "packed"
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
        assert get_backend() == "packed"
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
    with use_backend("packed"):
        want = mul_mod(a, b, st)
    for name in ("native", "serial"):
        with use_backend(name):
            assert np.array_equal(mul_mod(a, b, st), want), name


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


@pytest.mark.skipif(not HAVE_TOOLCHAIN, reason="no usable C toolchain")
def test_same_evaluator_bit_identical_across_breaker_trips(restore_native):
    """One Evaluator, created under native, keeps its outputs as the
    circuit breaker swaps the kernel table native -> packed -> serial."""
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
            for expect in ("packed", "serial"):
                assert backend.degrade(reason="test") == expect
                assert get_backend() == expect
                assert np.array_equal(run(), want), expect
        finally:
            backend.reset_breaker()
        degraded = {
            tuple(sorted(inst.labels)): inst.value()
            for inst in registry.instruments()
            if inst.name == "repro_backend_degraded_total"
        }
    assert degraded == {
        (("from", "native"), ("to", "packed")): 1.0,
        (("from", "packed"), ("to", "serial")): 1.0,
    }
