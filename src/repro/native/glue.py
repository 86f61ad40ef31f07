"""ctypes bridge between the stacked kernel entry points and the compiled library.

:data:`KERNELS` maps each ``KernelTable`` field to its native caller.
Twelve callers are generated, one per :class:`_RowKernel` declaration in
:data:`_ROW_KERNELS`, which also yields their ctypes argtypes; the two
NTTs, ``ks_decompose``, ``ks_accumulate``, ``divide_round_drop`` and
``scaler_tail`` are written out by hand.
Every caller takes the same operands as its serial counterpart (arrays
plus a ``StackedModulus`` / ``StackedNTTTables``-shaped object,
duck-typed so this module imports nothing from :mod:`repro.modmath`) and
returns either the finished uint64 array — bit-identical to the serial
oracle — or ``None`` when the call is ineligible (no library, limb axis
mismatch), in which case the caller falls through to the serial body.

Loading is memoized with *fall-back-once* semantics: the first failure
(no toolchain, compile error, disabled via ``REPRO_NATIVE_DISABLE``)
logs a single warning and pins the unavailable state, so later calls
cost one dict lookup, not a retried compile.
"""

from __future__ import annotations

import ctypes
import logging
import os
import threading
from contextlib import contextmanager
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .. import faults as _faults
from ..obs import metrics as obs_metrics
from ..obs import tracing
from .build import NativeBuildError, build

__all__ = [
    "available", "availability_error", "library_path", "load", "reset",
    "note_fallback", "fallback_count", "register_metrics",
    "set_threads", "get_threads", "use_threads", "ntt_isa", "KERNELS",
]

logger = logging.getLogger("repro.native")

_LOCK = threading.RLock()
_LIB: Optional[ctypes.CDLL] = None
_LIB_PATH = None
_FAILED = False
_FAIL_REASON: Optional[str] = None

#: Thread width requested before/after load; None means "use the
#: default" (REPRO_NATIVE_THREADS env, else os.cpu_count()).  Kept
#: Python-side so get_threads() never forces a compile.
_THREADS_REQUESTED: Optional[int] = None

#: Width currently in effect on the loaded library, mirrored Python-side
#: so per-kernel trace spans can annotate it without a lock or an FFI
#: round-trip on every call.  Maintained by load() and set_threads().
_THREADS_ACTIVE = 0

#: Process-lifetime count of backend downgrades (native requested or
#: expected but unavailable).  Monotone across reset() — it counts
#: events, not state — and exported as ``repro_native_fallback_total``.
_FALLBACKS = 0


def note_fallback() -> None:
    """Count one backend downgrade in the metrics registry.

    Called from the exactly-once warning paths (the load failure here,
    the auto-degrade in :mod:`.backend`) so silent fallbacks surface in
    serving snapshots.
    """
    global _FALLBACKS
    _FALLBACKS += 1
    obs_metrics.get_registry().counter(
        "repro_native_fallback_total",
        "Backend downgrades from native to the serial path.",
    ).inc()


def fallback_count() -> int:
    return _FALLBACKS


_FP_KERNEL = _faults.faultpoint(
    "native.kernel",
    "Entry of every fused native kernel glue call (setup eligibility "
    "checks); kernel_exception forces the per-call serial fallback and "
    "feeds the backend circuit breaker, slow_execution stalls the call.",
)


def _kernel_fault() -> bool:
    """Check the ``native.kernel`` faultpoint; True = fall back to serial.

    A ``kernel_exception`` injection never raises here: a real in-kernel
    failure would surface as a bad return, and the glue contract is
    "``None`` means take the serial body" — so the injected fault counts
    against the backend circuit breaker (possibly tripping the
    native -> serial downgrade) and the call degrades, bit-identically.
    ``slow_execution`` stalls the call on wall time and proceeds.
    """
    event = _faults.check(_FP_KERNEL)
    if event is None:
        return False
    if event.mode == "slow_execution":
        _faults.sleep_event(event)
        return False
    from . import backend

    backend.note_kernel_fault(reason=f"injected {event.mode}")
    return True


def register_metrics(registry: Optional[obs_metrics.MetricsRegistry] = None) -> None:
    """Register the native backend's pull series into ``registry``.

    Never forces a build: availability/threads report the *current*
    load state.
    """
    reg = registry or obs_metrics.get_registry()
    reg.counter(
        "repro_native_fallback_total",
        "Backend downgrades from native to the serial path.",
        fn=lambda: float(_FALLBACKS),
    )
    reg.gauge(
        "repro_native_available",
        "1 when the compiled kernel library is loaded.",
        fn=lambda: 1.0 if _LIB is not None else 0.0,
    )
    reg.gauge(
        "repro_native_threads",
        "Native kernel worker-pool width in effect (or pending).",
        fn=lambda: float(get_threads()),
    )


class _TracedKernel:
    """Callable wrapper around one ctypes kernel entry point.

    The indirection exists so every native call can be traced
    per-kernel (wall time + thread width) without touching the call
    sites; with tracing disabled it costs one global check.
    """

    __slots__ = ("_fn", "_label")

    def __init__(self, fn, name: str):
        self._fn = fn
        self._label = "kernel:" + name

    def __call__(self, *args):
        tracer = tracing.get_tracer()
        if tracer is None:
            return self._fn(*args)
        with tracer.span(self._label, cat="kernel",
                         threads=_THREADS_ACTIVE):
            return self._fn(*args)

_PTR = ctypes.c_void_p
_I64 = ctypes.c_int64
_U64 = ctypes.c_uint64


class _RowKernel(NamedTuple):
    """One ``(rows, k, n)`` row kernel: its C symbol and argument counts.

    Each such entry point takes ``inputs`` operand pointers, ``outputs``
    result pointers, ``rows, k, n``, then the per-limb Harvey operand
    columns ``w, wq`` when ``operand`` is set, then one pointer per
    :func:`_mod_consts` column named in ``consts``, in that order.
    """

    symbol: str
    inputs: int
    outputs: int
    consts: Tuple[str, ...]
    operand: bool = False

    def argtypes(self) -> list:
        return ([_PTR] * (self.inputs + self.outputs) + [_I64] * 3
                + [_PTR] * (2 * self.operand + len(self.consts)))


_BARRETT = ("p", "two_p", "rhi", "c64", "c64q")

#: One declaration per row kernel, keyed by its ``KernelTable`` field.
_ROW_KERNELS = {
    "add_mod": _RowKernel("repro_add_mod", 2, 1, ("p",)),
    "sub_mod": _RowKernel("repro_sub_mod", 2, 1, ("p",)),
    "neg_mod": _RowKernel("repro_neg_mod", 1, 1, ("p",)),
    "conditional_sub": _RowKernel("repro_conditional_sub", 1, 1, ("p",)),
    "barrett_reduce_64": _RowKernel("repro_barrett64", 1, 1, ("p", "rhi")),
    "barrett_reduce_128": _RowKernel("repro_barrett128", 2, 1, _BARRETT),
    "mul_mod": _RowKernel("repro_mul_mod", 2, 1, _BARRETT),
    "mad_mod": _RowKernel("repro_mad_mod", 3, 1, _BARRETT),
    "dyadic_product": _RowKernel("repro_dyadic_product", 4, 3, _BARRETT),
    "dyadic_square": _RowKernel("repro_dyadic_square", 2, 3, _BARRETT),
    "mul_operand": _RowKernel("repro_mul_operand", 1, 1, ("p",), True),
    "lazy_diff_mul_operand": _RowKernel(
        "repro_lazy_diff_mul_operand", 2, 1, ("p", "two_p"), True),
}

#: argtypes per exported symbol (all restype None): derived for the row
#: kernels, spelled out for the four bespoke entry points.
_SIGS = {spec.symbol: spec.argtypes() for spec in _ROW_KERNELS.values()}
_SIGS.update({
    "repro_ntt_forward": [_PTR, _I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR, _I64],
    "repro_ntt_inverse": [_PTR, _I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR,
                          _PTR, _PTR, _I64],
    "repro_scaler_tail": [_PTR, _PTR, _I64, _I64, _U64,
                          _PTR, _PTR, _PTR, _PTR, _PTR],
    "repro_ks_decompose": [_PTR, _PTR, _I64, _I64, _PTR, _PTR, _PTR, _PTR,
                           _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR],
    "repro_divide_round_drop": [_PTR] * 3 + [_I64] * 3 + [_PTR] * 12,
    "repro_ks_accumulate": [_PTR] * 5 + [_I64] * 3 + [_PTR] * 14,
})

#: argtypes per control export (restype int64; untraced, not kernels).
_CONTROLS = {
    "repro_native_abi_version": [],
    "repro_native_set_threads": [_I64],
    "repro_native_get_threads": [],
    "repro_native_ntt_isa": [],
    "repro_native_force_scalar_rows": [_I64],
}

_ABI_VERSION = 4

#: ``repro_native_ntt_isa`` codes, by value.
_NTT_ISAS = ("scalar", "avx512")


def _default_threads() -> int:
    """REPRO_NATIVE_THREADS when valid, else os.cpu_count()."""
    env = os.environ.get("REPRO_NATIVE_THREADS", "").strip()
    if env:
        try:
            value = int(env)
            if value >= 1:
                return value
        except ValueError:
            pass
        logger.warning(
            "ignoring invalid REPRO_NATIVE_THREADS=%r "
            "(want a positive integer); auto-sizing from cpu_count", env,
        )
    return max(1, os.cpu_count() or 1)


def load() -> Optional[ctypes.CDLL]:
    """The loaded kernel library, building it on first use; None if unavailable."""
    global _LIB, _LIB_PATH, _FAILED, _FAIL_REASON, _THREADS_ACTIVE
    if _LIB is not None or _FAILED:
        return _LIB
    with _LOCK:
        if _LIB is not None or _FAILED:
            return _LIB
        try:
            path = build()
            lib = ctypes.CDLL(str(path))
            for name, argtypes in _SIGS.items():
                fn = getattr(lib, name)
                fn.argtypes = argtypes
                fn.restype = None
                setattr(lib, name, _TracedKernel(fn, name[len("repro_"):]))
            for name, argtypes in _CONTROLS.items():
                fn = getattr(lib, name)
                fn.argtypes = argtypes
                fn.restype = _I64
            abi = lib.repro_native_abi_version()
            if abi != _ABI_VERSION:
                raise NativeBuildError(
                    f"cached library {path} has ABI {abi}, "
                    f"expected {_ABI_VERSION}"
                )
            _THREADS_ACTIVE = int(lib.repro_native_set_threads(
                _THREADS_REQUESTED or _default_threads()
            ))
        except (NativeBuildError, OSError, AttributeError) as exc:
            _FAILED = True
            _FAIL_REASON = str(exc)
            logger.warning(
                "native kernel backend unavailable (%s); "
                "falling back to the serial path", _FAIL_REASON,
            )
            note_fallback()
            return None
        _LIB = lib
        _LIB_PATH = path
        return _LIB


def available() -> bool:
    """Whether the native kernel library builds/loads on this machine."""
    return load() is not None


def availability_error() -> Optional[str]:
    """Why the native backend is unavailable (None when it is usable)."""
    load()
    return _FAIL_REASON


def library_path():
    """Filesystem path of the loaded kernel library (None if unavailable)."""
    load()
    return _LIB_PATH


def ntt_isa() -> Optional[str]:
    """The NTT rows in effect: ``"avx512"`` or ``"scalar"``; None if unavailable.

    The library picks the AVX-512F/DQ rows once, when it is loaded, if
    the CPU supports them; both row sets give bit-identical outputs.
    """
    lib = load()
    if lib is None:
        return None
    return _NTT_ISAS[lib.repro_native_ntt_isa()]


@contextmanager
def _scalar_ntt_rows():
    """Run the body on the scalar NTT rows, then restore the load-time choice.

    For tests and the self-test only: the switch is process-wide, so no
    kernel may run on another thread while it is taken.
    """
    lib = load()
    if lib is None:
        raise NativeBuildError(availability_error())
    lib.repro_native_force_scalar_rows(1)
    try:
        yield
    finally:
        lib.repro_native_force_scalar_rows(0)


def reset() -> None:
    """Forget the load state (tests; allows a retry after env changes).

    The thread-width *request* survives a reset (it is caller intent,
    not load state); a reload re-applies it to the library.
    """
    global _LIB, _LIB_PATH, _FAILED, _FAIL_REASON
    with _LOCK:
        _LIB = None
        _LIB_PATH = None
        _FAILED = False
        _FAIL_REASON = None


# -- thread-width control -----------------------------------------------------


def set_threads(n: Optional[int]) -> int:
    """Set the native worker-pool width; returns the width in effect.

    ``None`` restores the default (``REPRO_NATIVE_THREADS`` env, else
    ``os.cpu_count()``).  Applied immediately when the library is
    loaded, else remembered and applied at load time — so configuring
    threads never forces a compile.  The library clamps to its spawn
    capacity, so the return value is authoritative.  Thread count never
    changes kernel outputs.
    """
    global _THREADS_REQUESTED, _THREADS_ACTIVE
    if n is not None and int(n) < 1:
        raise ValueError(f"thread count must be >= 1, got {n}")
    with _LOCK:
        _THREADS_REQUESTED = None if n is None else int(n)
        want = _THREADS_REQUESTED or _default_threads()
        if _LIB is not None:
            _THREADS_ACTIVE = int(_LIB.repro_native_set_threads(want))
            return _THREADS_ACTIVE
        return want


def get_threads() -> int:
    """The native worker-pool width currently in effect (or pending)."""
    with _LOCK:
        if _LIB is not None:
            return int(_LIB.repro_native_get_threads())
        return _THREADS_REQUESTED or _default_threads()


@contextmanager
def use_threads(n: Optional[int]):
    """Scoped thread width: restores the previous request on exit."""
    with _LOCK:
        previous = _THREADS_REQUESTED
    set_threads(n)
    try:
        yield get_threads()
    finally:
        set_threads(previous)


# -- shape/constant helpers ---------------------------------------------------


def _ptr(a: np.ndarray) -> int:
    return a.ctypes.data


def _stack_dims(k: int, shape):
    """``(rows, k, n)`` decomposition of a broadcast shape, or None.

    A one-limb stack broadcasts its constants uniformly, so any shape
    flattens; otherwise the limb axis must be second-to-last.
    """
    if k == 1:
        total = 1
        for d in shape:
            total *= int(d)
        return 1, 1, total
    if len(shape) < 2 or shape[-2] != k:
        return None
    rows = 1
    for d in shape[:-2]:
        rows *= int(d)
    return rows, k, int(shape[-1])


def _full(a, shape) -> np.ndarray:
    """``a`` broadcast to ``shape`` as a C-contiguous uint64 array."""
    a = np.asarray(a, dtype=np.uint64)
    if a.shape != shape:
        a = np.broadcast_to(a, shape)
    return np.ascontiguousarray(a)


def _mod_consts(st):
    """Flat per-limb constant arrays for a StackedModulus (memoized on it)."""
    cached = getattr(st, "_native_consts", None)
    if cached is None:
        k = len(st)
        c64q = (st.c64q_hi.reshape(k) << np.uint64(32)) | st.c64q_lo.reshape(k)
        cached = {
            "p": np.ascontiguousarray(st.u64.reshape(k)),
            "two_p": np.ascontiguousarray(st.two_p.reshape(k)),
            "rhi": np.ascontiguousarray(st.ratio_hi.reshape(k)),
            "c64": np.ascontiguousarray(st.c64.reshape(k)),
            "c64q": np.ascontiguousarray(c64q),
        }
        try:
            st._native_consts = cached
        except AttributeError:
            pass  # duck-typed stand-in without the slot: rebuild per call
    return cached


def _operand_cols(w, wq_hi, wq_lo, k: int):
    """Per-limb Harvey operand ``(k,)`` arrays from column inputs, or None."""
    w = np.asarray(w, dtype=np.uint64)
    if w.size != k:
        return None
    wq = (np.asarray(wq_hi, dtype=np.uint64).reshape(k) << np.uint64(32)) | \
        np.asarray(wq_lo, dtype=np.uint64).reshape(k)
    return np.ascontiguousarray(w.reshape(k)), np.ascontiguousarray(wq)


def _lib() -> Optional[ctypes.CDLL]:
    """The library for one call, or None (injected fault, or unavailable)."""
    if _kernel_fault():
        return None
    return load()


def _setup(st, *operands):
    """(lib, arrays, shape, dims, consts) or None when ineligible."""
    if getattr(st, "trailing", 1) != 1:
        return None  # non-standard limb-axis placement: serial handles it
    lib = _lib()
    if lib is None:
        return None
    k = len(st)
    shapes = [np.asarray(a).shape for a in operands]
    shape = np.broadcast_shapes(*shapes, st.u64.shape)
    dims = _stack_dims(k, shape)
    if dims is None:
        return None
    arrs = [_full(a, shape) for a in operands]
    return lib, arrs, shape, dims, _mod_consts(st)


# -- elementwise kernels ------------------------------------------------------


def _row_caller(spec: _RowKernel):
    """The caller for one declared row kernel: the serial body's arguments
    (``spec.inputs`` arrays, ``w, wq_hi, wq_lo`` when ``spec.operand``,
    the stack) in; ``None`` or the ``(outputs,) + shape`` result out."""
    symbol, inputs, outputs, consts, operand = spec

    def call(*args):
        res = _setup(args[-1], *args[:inputs])
        if res is None:
            return None
        lib, arrs, shape, dims, K = res
        cols = ()
        if operand:
            cols = _operand_cols(*args[inputs:inputs + 3], dims[1])
            if cols is None:
                return None
        # Each .ctypes.data costs ~1 us; K's arrays live as long as K does.
        cptrs = K.get(consts)
        if cptrs is None:
            cptrs = K[consts] = [_ptr(K[c]) for c in consts]
        out = np.empty(shape if outputs == 1 else (outputs,) + shape,
                       dtype=np.uint64)
        outs = (out,) if outputs == 1 else out
        getattr(lib, symbol)(*map(_ptr, arrs), *map(_ptr, outs), *dims,
                             *map(_ptr, cols), *cptrs)
        return out

    return call


def scaler_tail(matrix, half_d, kept_st, inv_w, inv_wq, d_mod):
    """Fused LastModulusScaler.divide_round over a ``(k, n)`` matrix."""
    lib = _lib()
    if lib is None:
        return None
    matrix = np.ascontiguousarray(np.asarray(matrix, dtype=np.uint64))
    k, n = matrix.shape
    K = _mod_consts(kept_st)
    out = np.empty((k - 1, n), dtype=np.uint64)
    lib.repro_scaler_tail(
        _ptr(matrix), _ptr(out), k, n, int(half_d),
        _ptr(K["p"]), _ptr(K["rhi"]),
        _ptr(inv_w), _ptr(inv_wq), _ptr(d_mod))
    return out


# -- stacked NTT --------------------------------------------------------------


def _tables_consts(st_tables):
    """(p, two_p, ninv_q) flat arrays for a StackedNTTTables (memoized)."""
    cached = getattr(st_tables, "_native_consts", None)
    if cached is None:
        k = len(st_tables)
        mods = _mod_consts(st_tables.modulus)
        ninv_q = (st_tables.ninv_q_hi.reshape(k) << np.uint64(32)) | \
            st_tables.ninv_q_lo.reshape(k)
        cached = {
            "p": mods["p"],
            "two_p": mods["two_p"],
            "ninv_w": np.ascontiguousarray(st_tables.ninv_w.reshape(k)),
            "ninv_q": np.ascontiguousarray(ninv_q),
        }
        try:
            st_tables._native_consts = cached
        except AttributeError:
            pass
    return cached


def _ntt_setup(x, st_tables):
    lib = _lib()
    if lib is None:
        return None
    k = len(st_tables)
    n = st_tables.degree
    x = np.asarray(x)
    if x.ndim < 2 or x.shape[-1] != n or x.shape[-2] != k:
        return None
    out = np.array(x, dtype=np.uint64, order="C", copy=True)
    batch = 1
    for d in out.shape[:-2]:
        batch *= int(d)
    return lib, out, batch, k, n, _tables_consts(st_tables)


def ntt_forward(x, st_tables, *, lazy: bool = False):
    """Whole stacked forward NTT in one native call (all stages fused)."""
    res = _ntt_setup(x, st_tables)
    if res is None:
        return None
    lib, out, batch, k, n, K = res
    w = st_tables.w
    wq = st_tables.wq
    if not (w.flags.c_contiguous and wq.flags.c_contiguous):
        return None
    lib.repro_ntt_forward(_ptr(out), batch, k, n, _ptr(w), _ptr(wq),
                          _ptr(K["p"]), _ptr(K["two_p"]), int(lazy))
    return out


def ntt_inverse(x, st_tables, *, lazy: bool = False):
    """Whole stacked inverse NTT + fused n^{-1} scaling in one native call."""
    res = _ntt_setup(x, st_tables)
    if res is None:
        return None
    lib, out, batch, k, n, K = res
    iw = st_tables.iw
    iwq = st_tables.iwq
    if not (iw.flags.c_contiguous and iwq.flags.c_contiguous):
        return None
    lib.repro_ntt_inverse(_ptr(out), batch, k, n, _ptr(iw), _ptr(iwq),
                          _ptr(K["p"]), _ptr(K["two_p"]),
                          _ptr(K["ninv_w"]), _ptr(K["ninv_q"]), int(lazy))
    return out


def ks_decompose(poly_ntt, inv_tables, fwd_tables):
    """Fused key-switch decompose: iNTT -> Barrett -> NTT in one call.

    ``poly_ntt`` is the ``(level, n)`` NTT-form polynomial; ``inv_tables``
    the source-prime tables (``stacked_tables.prefix(level)``) and
    ``fwd_tables`` the target-row tables (current primes + special
    prime, ``level + 1`` rows).  Returns the ``(level, level + 1, n)``
    decomposition, bit-identical to the three-call serial sequence
    ``ntt_forward(barrett64(ntt_inverse(poly)))``, or None when
    ineligible.
    """
    lib = _lib()
    if lib is None:
        return None
    level = len(inv_tables)
    n = inv_tables.degree
    poly = np.asarray(poly_ntt)
    if poly.shape != (level, n):
        return None
    if len(fwd_tables) != level + 1 or fwd_tables.degree != n:
        return None
    iw, iwq = inv_tables.iw, inv_tables.iwq
    fw, fwq = fwd_tables.w, fwd_tables.wq
    for table in (iw, iwq, fw, fwq):
        if not table.flags.c_contiguous:
            return None
    iK = _tables_consts(inv_tables)
    fK = _tables_consts(fwd_tables)
    rhi = _mod_consts(fwd_tables.modulus)["rhi"]
    poly = np.ascontiguousarray(poly, dtype=np.uint64)
    out = np.empty((level, level + 1, n), dtype=np.uint64)
    lib.repro_ks_decompose(
        _ptr(poly), _ptr(out), level, n,
        _ptr(iw), _ptr(iwq), _ptr(iK["p"]), _ptr(iK["two_p"]),
        _ptr(iK["ninv_w"]), _ptr(iK["ninv_q"]),
        _ptr(fw), _ptr(fwq), _ptr(fK["p"]), _ptr(fK["two_p"]), _ptr(rhi))
    return out


def _stack_ptrs(st_tables):
    """Addresses of a stack's twiddles and per-row constants (memoized).

    ``(w, wq, iw, iwq, p, two_p, rhi, c64, c64q, ninv_w, ninv_q)``, the
    argument order of the mod-down exports; None when a twiddle matrix
    is not C-contiguous.
    """
    K = _tables_consts(st_tables)
    ptrs = K.get("ptrs")
    if ptrs is None:
        twiddles = (st_tables.w, st_tables.wq, st_tables.iw, st_tables.iwq)
        if not all(t.flags.c_contiguous for t in twiddles):
            return None
        mods = _mod_consts(st_tables.modulus)
        ptrs = K["ptrs"] = tuple(map(_ptr, (
            *twiddles, K["p"], K["two_p"], mods["rhi"], mods["c64"],
            mods["c64q"], K["ninv_w"], K["ninv_q"])))
    return ptrs


def _moddown_cols(inv_d, inv_d_q_hi, inv_d_q_lo, d_mod, kept: int):
    """The ``d^{-1}`` Harvey operand and ``d mod q_j`` as ``(kept,)``
    arrays, or None when the columns do not have ``kept`` rows."""
    cols = _operand_cols(inv_d, inv_d_q_hi, inv_d_q_lo, kept)
    d_mod = np.asarray(d_mod, dtype=np.uint64)
    if cols is None or d_mod.size != kept:
        return None
    return (*cols, np.ascontiguousarray(d_mod.reshape(kept)))


def divide_round_drop(matrix, tables, inv_d, inv_d_q_hi, inv_d_q_lo, d_mod):
    """NTT-form mod-down of a ``(..., k, n)`` stack in one call.

    ``tables`` covers the matrix's ``k`` rows, the dropped prime last.
    Bit-identical to the serial sequence (iNTT of the dropped row,
    Barrett, centering, lazy NTT, lazy difference times ``d^{-1}``), or
    None when ineligible.
    """
    lib = _lib()
    if lib is None:
        return None
    k, n = len(tables), tables.degree
    matrix = np.asarray(matrix)
    if k < 2 or matrix.ndim < 2 or matrix.shape[-2:] != (k, n):
        return None
    ptrs = _stack_ptrs(tables)
    cols = _moddown_cols(inv_d, inv_d_q_hi, inv_d_q_lo, d_mod, k - 1)
    if ptrs is None or cols is None:
        return None
    matrix = np.ascontiguousarray(matrix, dtype=np.uint64)
    lead = matrix.shape[:-2]
    batch = int(np.prod(lead, dtype=np.int64))
    last = np.empty((batch, n), dtype=np.uint64)
    out = np.empty(lead + (k - 1, n), dtype=np.uint64)
    w, wq, iw, iwq, p, two_p, rhi, _, _, ninv_w, ninv_q = ptrs
    lib.repro_divide_round_drop(
        _ptr(matrix), _ptr(last), _ptr(out), batch, k, n,
        w, wq, iw, iwq, p, two_p, rhi, ninv_w, ninv_q, *map(_ptr, cols))
    return out


def ks_accumulate(D, key_blocks, target_rows, tables,
                  inv_d, inv_d_q_hi, inv_d_q_lo, d_mod):
    """Key-switch dyadic half plus mod-down by the special prime, one call.

    ``D`` is the ``(level, T, n)`` decomposition over the ``T = level + 1``
    target rows, ``key_blocks`` the ``level`` ``(2, K, n)`` key blocks of
    the source primes, read in place at key-base rows ``target_rows``,
    and ``tables`` the target rows' stack (special prime last).  Returns
    the ``(2, level, n)`` switched pair, bit-identical to the serial
    ``mad_mod`` chain and mod-downs, or None when ineligible.  ``D`` and
    the keys must be canonical, as ``ks_decompose`` and key generation
    leave them.
    """
    lib = _lib()
    if lib is None:
        return None
    T, n = len(tables), tables.degree
    level = T - 1
    D = np.asarray(D)
    if level < 1 or D.shape != (level, T, n) or len(key_blocks) != level \
            or len(target_rows) != T:
        return None
    K = np.shape(key_blocks[0])[1] if np.ndim(key_blocks[0]) == 3 else 0
    for block in key_blocks:
        if not (isinstance(block, np.ndarray) and block.dtype == np.uint64
                and block.shape == (2, K, n) and block.flags.c_contiguous):
            return None
    rows = np.array(target_rows, dtype=np.int64)
    if rows.min() < 0 or rows.max() >= K:
        return None
    ptrs = _stack_ptrs(tables)
    cols = _moddown_cols(inv_d, inv_d_q_hi, inv_d_q_lo, d_mod, level)
    if ptrs is None or cols is None:
        return None
    D = np.ascontiguousarray(D, dtype=np.uint64)
    keys = np.array([block.ctypes.data for block in key_blocks],
                    dtype=np.uint64)
    acc = np.empty((2, T, n), dtype=np.uint64)
    out = np.empty((2, level, n), dtype=np.uint64)
    lib.repro_ks_accumulate(
        _ptr(D), _ptr(keys), _ptr(rows), _ptr(acc), _ptr(out), level, K, n,
        *ptrs, *map(_ptr, cols))
    return out


#: ``KernelTable`` field -> native caller (``None`` = take the serial body).
KERNELS = {field: _row_caller(spec) for field, spec in _ROW_KERNELS.items()}
KERNELS.update(ntt_forward=ntt_forward, ntt_inverse=ntt_inverse,
               ks_decompose=ks_decompose, ks_accumulate=ks_accumulate,
               divide_round_drop=divide_round_drop, scaler_tail=scaler_tail)
