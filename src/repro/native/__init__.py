"""Runtime-compiled native kernel backend (the paper at the kernel level).

The paper's core claim is that HE throughput is decided by fused
kernels: a whole NTT stage chain — load, twiddle multiply, lazy Harvey
reduction, add/sub, store — executed in one pass over the data, rather
than one memory sweep per primitive op.  A NumPy implementation hits
exactly that wall: every Harvey/Barrett step is a separate full-array
traversal, so multiply and rescale sit at NumPy's per-pass cost floor.

``repro.native`` breaks the floor.  Small C sources ship in-tree
(``csrc/kernels.c``), are compiled on first use with the system ``cc``
into a cached shared library (``~/.cache/repro-native``), and are driven
through ctypes.  Three fused kernel families cover the hot path:

1. the full stacked forward/inverse NTT — all ``log2(N)`` butterfly
   stages per ``(batch, limb)`` row in one call, eight lanes at a time
   on AVX-512F/DQ CPUs (rows chosen once at load, bit-identical to the
   scalar rows; :func:`ntt_isa` names them);
2. fused dyadic multiply/square and ``mad_mod`` accumulate for the
   tensor product and key-switch loops;
3. the divide-round/rescale tails (Harvey ``d^{-1}`` multiply fused with
   the lazy difference, and the ``LastModulusScaler`` sequence);
4. the fused key-switch decompose (iNTT -> Barrett -> NTT in one call)
   feeding ``Evaluator._switch_key``.

All kernels run multi-core: every call decomposes into independent
``(batch, limb)`` rows that an in-tree pthread worker pool spreads
across cores (no OpenMP, so plain ``cc`` builds keep working).  Width
comes from :func:`set_threads` / :func:`use_threads` /
``REPRO_NATIVE_THREADS``, auto-sized from ``os.cpu_count()``;
thread count never changes outputs (the A/B suite pins 1-thread vs
N-thread bit-identical).

Outputs are bit-identical to the per-limb serial oracle — same canonical
values, same lazy windows — enforced by the A/B suite in
``tests/test_backend_ab.py``.

Backend selection (:mod:`repro.native.backend`): ``set_backend("native"
| "serial" | "auto")``, the ``REPRO_BACKEND`` env var, or auto-detection
(native when a toolchain is present, with a single logged fallback to
serial otherwise).  The selection names one kernel table
(:mod:`repro.native.tables`) that every stacked entry point reads
through :func:`repro.native.backend.kernels`, so ``Evaluator``,
``GpuEvaluator``, and the whole serving stack inherit the fast path
transparently.
"""

from . import backend, glue
from .backend import (
    BACKENDS,
    BackendUnavailableError,
    get_backend,
    set_backend,
    use_backend,
)
from .build import NativeBuildError, build, cache_dir, find_compiler
from .glue import (
    availability_error,
    available,
    get_threads,
    library_path,
    ntt_isa,
    set_threads,
    use_threads,
)

__all__ = [
    "BACKENDS",
    "BackendUnavailableError",
    "NativeBuildError",
    "available",
    "availability_error",
    "build",
    "cache_dir",
    "find_compiler",
    "get_backend",
    "get_threads",
    "library_path",
    "ntt_isa",
    "reset",
    "set_backend",
    "set_threads",
    "use_backend",
    "use_threads",
]


def reset() -> None:
    """Forget library-load state and backend resolution (tests/env changes)."""
    glue.reset()
    backend.invalidate()
