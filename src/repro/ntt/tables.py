"""Twiddle-factor tables for the negacyclic NTT (HEXL/SEAL layout).

For a modulus ``p = 1 (mod 2n)`` there is a primitive ``2n``-th root of
unity ``psi`` with ``psi**n = -1 (mod p)``.  The forward Cooley-Tukey
transform consumes powers of ``psi`` in *bit-reversed* order; the inverse
Gentleman-Sande transform consumes bit-reversed powers of ``psi**-1``.

Each power is stored twice: the operand ``W`` and Harvey's quotient
``W' = floor(W * 2**64 / p)`` (Sec. II-C / Algorithm 1 of the paper), both
as uint64 arrays so whole stages are vectorized.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from ..modmath import Modulus, MultiplyOperand, StackedModulus, inv_mod

__all__ = [
    "NTTTables",
    "StackedNTTTables",
    "bit_reverse",
    "bit_reverse_vector",
    "find_primitive_root",
    "get_tables",
    "get_stacked_tables",
    "tables_cache_info",
    "clear_tables_cache",
    "TABLES_CACHE_SIZE",
]


def bit_reverse(x: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of ``x``."""
    r = 0
    for _ in range(bits):
        r = (r << 1) | (x & 1)
        x >>= 1
    return r


@lru_cache(maxsize=None)
def bit_reverse_vector(n: int) -> np.ndarray:
    """Permutation array ``perm[i] = bit_reverse(i, log2(n))``.

    Built with ``log2(n)`` whole-array shift/or passes and memoized per
    ``n``; the returned array is shared, so it is read-only.
    """
    logn = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    perm = np.zeros(n, dtype=np.int64)
    for b in range(logn):
        perm |= ((idx >> b) & 1) << (logn - 1 - b)
    perm.setflags(write=False)
    return perm


def find_primitive_root(degree: int, modulus: Modulus) -> int:
    """Smallest ``psi`` (by generator search) of order ``2*degree`` mod p.

    Deterministic: tries candidate generators ``g = 2, 3, ...`` and returns
    ``g**((p-1)/(2n))`` for the first one where ``psi**n = -1 (mod p)``.
    """
    p = modulus.value
    two_n = 2 * degree
    if (p - 1) % two_n:
        raise ValueError(f"modulus {p} does not support degree-{degree} NTT")
    exp = (p - 1) // two_n
    for g in range(2, 10_000):
        psi = pow(g, exp, p)
        if psi != 1 and pow(psi, degree, p) == p - 1:
            return psi
    raise ValueError(f"no primitive 2*{degree}-th root found mod {p}")


@dataclass(frozen=True)
class NTTTables:
    """Precomputed twiddle factors for one ``(degree, modulus)`` pair.

    Attributes
    ----------
    w, wq:
        Forward tables: ``w[i] = psi**bit_reverse(i)`` and its Harvey
        quotient, for ``i`` in ``[0, n)`` (index 0 unused by the kernels).
    iw, iwq:
        Inverse tables: ``iw[i] = psi**-bit_reverse(i)`` with quotients.
    n_inv:
        ``n**-1 mod p`` as a :class:`MultiplyOperand` for the final
        scaling of the inverse transform.
    """

    degree: int
    modulus: Modulus
    psi: int
    w: np.ndarray = field(repr=False)
    wq: np.ndarray = field(repr=False)
    iw: np.ndarray = field(repr=False)
    iwq: np.ndarray = field(repr=False)
    n_inv: MultiplyOperand = field(repr=False)

    @classmethod
    def create(cls, degree: int, modulus: Modulus) -> "NTTTables":
        if degree < 2 or degree & (degree - 1):
            raise ValueError(f"degree must be a power of two >= 2, got {degree}")
        p = modulus.value
        psi = find_primitive_root(degree, modulus)
        ipsi = inv_mod(psi, modulus)
        logn = degree.bit_length() - 1

        w = np.empty(degree, dtype=np.uint64)
        wq = np.empty(degree, dtype=np.uint64)
        iw = np.empty(degree, dtype=np.uint64)
        iwq = np.empty(degree, dtype=np.uint64)
        # Successive powers, then scatter into bit-reversed slots: O(n).
        fwd_pow = 1
        inv_pow = 1
        powers_f = np.empty(degree, dtype=object)
        powers_i = np.empty(degree, dtype=object)
        for e in range(degree):
            powers_f[e] = fwd_pow
            powers_i[e] = inv_pow
            fwd_pow = fwd_pow * psi % p
            inv_pow = inv_pow * ipsi % p
        for i in range(degree):
            e = bit_reverse(i, logn)
            fw = int(powers_f[e])
            bw = int(powers_i[e])
            w[i] = fw
            wq[i] = (fw << 64) // p
            iw[i] = bw
            iwq[i] = (bw << 64) // p

        return cls(
            degree=degree,
            modulus=modulus,
            psi=psi,
            w=w,
            wq=wq,
            iw=iw,
            iwq=iwq,
            n_inv=MultiplyOperand.create(inv_mod(degree, modulus), modulus),
        )


class StackedNTTTables:
    """Twiddle tables for a whole RNS base, stacked along a leading limb axis.

    The per-prime ``(n,)`` tables of :class:`NTTTables` become ``(k, n)``
    matrices and the per-prime scalars become ``(k, 1)`` columns — the
    layout the compiled stacked transforms read (:mod:`repro.native.glue`
    flattens it once per instance) to run each butterfly stage across
    *all* primes, the paper's Fig. 10 RNS-axis parallelism.  The serial
    table transforms row by row from :attr:`tables`.

    Attributes
    ----------
    tables:
        The per-prime :class:`NTTTables`, in limb order.
    w, wq, iw, iwq:
        ``(k, n)`` forward/inverse twiddles and Harvey quotients.
    modulus:
        The limbs as a :class:`StackedModulus` (``(k, 1)`` columns).
    ninv_w, ninv_q_hi, ninv_q_lo:
        ``(k, 1)`` columns of the ``n^{-1}`` Harvey operand and its
        quotient split into 32-bit halves, for the inverse transform's
        final scaling.
    """

    __slots__ = (
        "degree", "tables", "modulus", "w", "wq", "iw", "iwq",
        "ninv_w", "ninv_q_hi", "ninv_q_lo",
        "_prefixes", "_native_consts", "_lock",
    )

    def __init__(self, tables: Sequence[NTTTables]):
        tables = tuple(tables)
        if not tables:
            raise ValueError("StackedNTTTables needs at least one limb")
        degree = tables[0].degree
        if any(t.degree != degree for t in tables):
            raise ValueError("all limbs must share one degree")
        self.degree = degree
        self.tables = tables
        self.modulus = StackedModulus(t.modulus for t in tables)
        self.w = np.stack([t.w for t in tables])
        self.wq = np.stack([t.wq for t in tables])
        self.iw = np.stack([t.iw for t in tables])
        self.iwq = np.stack([t.iwq for t in tables])
        k = len(tables)
        self.ninv_w = np.array(
            [t.n_inv.operand for t in tables], dtype=np.uint64
        ).reshape(k, 1)
        ninv_q = np.array([t.n_inv.quotient for t in tables], dtype=np.uint64)
        self.ninv_q_hi = (ninv_q >> np.uint64(32)).reshape(k, 1)
        self.ninv_q_lo = (ninv_q & np.uint64(0xFFFFFFFF)).reshape(k, 1)
        for arr in (
            self.w, self.wq, self.iw, self.iwq,
            self.ninv_w, self.ninv_q_hi, self.ninv_q_lo,
        ):
            arr.setflags(write=False)
        self._prefixes: dict = {}
        #: Flat constant arrays for the native backend (repro.native.glue).
        self._native_consts = None
        #: Guards the per-instance memos: one tables object serves every
        #: evaluator lane of a streaming server concurrently.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.tables)

    _VIEW_ATTRS = ("w", "wq", "iw", "iwq", "ninv_w", "ninv_q_hi", "ninv_q_lo")

    def prefix(self, rows: int) -> "StackedNTTTables":
        """Tables for the first ``rows`` limbs (memoized leading-axis views).

        Every stacked attribute is a slice view of this instance's
        arrays — no twiddle memory is duplicated per level.
        """
        if not 1 <= rows <= len(self.tables):
            raise ValueError(f"invalid prefix size {rows}")
        if rows == len(self.tables):
            return self
        cached = self._prefixes.get(rows)
        if cached is None:
            cached = object.__new__(StackedNTTTables)
            cached.degree = self.degree
            cached.tables = self.tables[:rows]
            cached.modulus = self.modulus.prefix(rows)
            for name in self._VIEW_ATTRS:
                setattr(cached, name, getattr(self, name)[:rows])
            cached._prefixes = {}
            cached._native_consts = None
            cached._lock = threading.Lock()
            with self._lock:
                cached = self._prefixes.setdefault(rows, cached)
        return cached


#: Bound on both process-global table memos.  Tables are immutable but
#: *large* (four uint64 arrays of ``degree`` words per prime: ~1 MiB at
#: N = 32768), so a long-lived server cycling through many contexts must
#: not accumulate them without bound; anything a live context needs is
#: also referenced by that context, so eviction is always safe.
TABLES_CACHE_SIZE = 32

#: Serializes builds through the two bounded LRU memos below.  CPython's
#: ``lru_cache`` is internally consistent, but without this lock two
#: server lanes asking for the same uncached ``(degree, modulus)`` both
#: pay the expensive ``NTTTables.create`` and racing evictions can churn
#: entries a concurrent reader is about to use.  ``RLock`` because the
#: stacked memo builds through the per-prime one.
_TABLES_LOCK = threading.RLock()


@lru_cache(maxsize=TABLES_CACHE_SIZE)
def _cached_tables(degree: int, modulus_value: int) -> NTTTables:
    return NTTTables.create(degree, Modulus(modulus_value))


def get_tables(degree: int, modulus: Modulus | int) -> NTTTables:
    """Memoized table lookup (tables are expensive and immutable).

    The memo is a bounded LRU keyed by ``(degree, modulus)`` — see
    :data:`TABLES_CACHE_SIZE`.  Thread-safe: see :data:`_TABLES_LOCK`.
    """
    value = modulus.value if isinstance(modulus, Modulus) else int(modulus)
    with _TABLES_LOCK:
        return _cached_tables(degree, value)


@lru_cache(maxsize=TABLES_CACHE_SIZE)
def _cached_stacked_tables(degree: int, values: Tuple[int, ...]) -> StackedNTTTables:
    return StackedNTTTables([get_tables(degree, v) for v in values])


def get_stacked_tables(degree: int, moduli) -> StackedNTTTables:
    """Memoized stacked tables for an ordered modulus collection.

    ``moduli`` may be an iterable of :class:`Modulus` or plain ints (an
    ``RNSBase`` works directly).  Rebuilding a stack from already-cached
    per-prime tables is cheap, so the same small LRU bound applies.
    Thread-safe: see :data:`_TABLES_LOCK`.
    """
    values = tuple(
        m.value if isinstance(m, Modulus) else int(m) for m in moduli
    )
    with _TABLES_LOCK:
        return _cached_stacked_tables(degree, values)


def tables_cache_info():
    """(per-prime, stacked) ``lru_cache`` statistics — for tests and ops."""
    with _TABLES_LOCK:
        return _cached_tables.cache_info(), _cached_stacked_tables.cache_info()


def clear_tables_cache() -> None:
    """Drop both table memos (frees memory; safe at any time)."""
    with _TABLES_LOCK:
        _cached_stacked_tables.cache_clear()
        _cached_tables.cache_clear()


def register_metrics(registry=None) -> None:
    """Register pull series for both NTT table caches into a registry.

    Sampled at export time from the ``lru_cache`` statistics, so the
    series track the live caches with no bookkeeping on the hot path.
    """
    from ..obs import metrics as obs_metrics

    reg = registry or obs_metrics.get_registry()

    def stat(which: int, field_name: str):
        def read() -> float:
            info = tables_cache_info()[which]
            return float(getattr(info, field_name))

        return read

    for which, cache in ((0, "per_prime"), (1, "stacked")):
        labels = {"cache": cache}
        reg.counter("repro_ntt_tables_cache_hits_total",
                    "NTT twiddle-table cache hits.",
                    labels=labels, fn=stat(which, "hits"))
        reg.counter("repro_ntt_tables_cache_misses_total",
                    "NTT twiddle-table cache misses (table builds).",
                    labels=labels, fn=stat(which, "misses"))
        reg.gauge("repro_ntt_tables_cache_size",
                  "NTT twiddle tables currently memoized.",
                  labels=labels, fn=stat(which, "currsize"))
        reg.gauge("repro_ntt_tables_cache_max",
                  "NTT twiddle-table cache capacity.",
                  labels=labels, fn=stat(which, "maxsize"))


register_metrics()
