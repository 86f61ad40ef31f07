"""Twiddle-factor tables for the negacyclic NTT (HEXL/SEAL layout).

For a modulus ``p = 1 (mod 2n)`` there is a primitive ``2n``-th root of
unity ``psi`` with ``psi**n = -1 (mod p)``.  The forward Cooley-Tukey
transform consumes powers of ``psi`` in *bit-reversed* order; the inverse
Gentleman-Sande transform consumes bit-reversed powers of ``psi**-1``.

Each power is stored twice: the operand ``W`` and Harvey's quotient
``W' = floor(W * 2**64 / p)`` (Sec. II-C / Algorithm 1 of the paper), both
as uint64 arrays so whole stages are vectorized.

One builder, :class:`StackedNTTTables`, fills the ``(k, n)`` tables of a
whole RNS base in one stacked pass through the selected kernel table;
the per-prime :class:`NTTTables` are read-only row views of its arrays.
One bounded memo, :func:`get_stacked_tables`, holds the built stacks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Tuple

import numpy as np

from ..modmath import Modulus, MultiplyOperand, StackedModulus, inv_mod, mul_mod

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

    Built only as a row of :class:`StackedNTTTables`: the arrays are
    read-only views of that stack's rows, so each twiddle is held once.

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


def _column(values: Iterable[int]) -> np.ndarray:
    return np.array(list(values), dtype=np.uint64)[:, None]


class StackedNTTTables:
    """Twiddle tables for a whole RNS base, stacked along a leading limb axis.

    The constructor builds every table of the base in one stacked pass
    through the selected kernel table, forward and inverse together as
    one ``(2k, n)`` stack:

    * powers of ``psi`` and ``psi**-1`` by a doubling ladder,
      ``pow[:, m:2m] = mul_mod(pow[:, :m], root**m)``: ``log2 n`` calls;
    * one scatter into bit-reversed order with :func:`bit_reverse_vector`;
    * Harvey quotients exactly in wrapping uint64: ``w * 2**64 = q*p + r``
      with ``r = mul_mod(w, 2**64 mod p)``, so ``q = -r * p**-1 mod 2**64``
      (``p`` is odd, and ``w < p`` gives ``q < 2**64``).

    The ``(k, n)`` matrices and ``(k, 1)`` columns are the layout the
    compiled stacked transforms read (:mod:`repro.native.glue` flattens
    it once per instance) to run each butterfly stage across *all*
    primes, the paper's Fig. 10 RNS-axis parallelism.  The serial table
    transforms row by row from :attr:`tables`.

    Attributes
    ----------
    tables:
        The per-prime :class:`NTTTables` (row views), in limb order.
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

    def __init__(self, degree: int, moduli: Iterable[Modulus]):
        if degree < 2 or degree & (degree - 1):
            raise ValueError(f"degree must be a power of two >= 2, got {degree}")
        moduli = tuple(moduli)
        if not moduli:
            raise ValueError("StackedNTTTables needs at least one limb")
        k = len(moduli)
        psis = [find_primitive_root(degree, m) for m in moduli]
        roots = psis + [inv_mod(psi, m) for psi, m in zip(psis, moduli)]
        both = StackedModulus(moduli + moduli)

        powers = np.empty((2 * k, degree), dtype=np.uint64)
        powers[:, 0] = 1
        m = 1
        while m < degree:
            step = _column(pow(r, m, q.value) for r, q in zip(roots, both))
            powers[:, m : 2 * m] = mul_mod(powers[:, :m], step, both)
            m <<= 1
        tw = np.empty_like(powers)
        tw[:, bit_reverse_vector(degree)] = powers
        p_inv = _column(pow(q.value, -1, 1 << 64) for q in both)
        twq = (np.uint64(0) - mul_mod(tw, both.c64, both)) * p_inv
        tw.setflags(write=False)
        twq.setflags(write=False)

        n_invs = [MultiplyOperand.create(inv_mod(degree, q), q) for q in moduli]
        self.degree = degree
        self.modulus = StackedModulus(moduli)
        self.w, self.iw = tw[:k], tw[k:]
        self.wq, self.iwq = twq[:k], twq[k:]
        self.tables = tuple(
            NTTTables(degree=degree, modulus=q, psi=psi, w=self.w[i],
                      wq=self.wq[i], iw=self.iw[i], iwq=self.iwq[i],
                      n_inv=n_inv)
            for i, (q, psi, n_inv) in enumerate(zip(moduli, psis, n_invs))
        )
        self.ninv_w = _column(op.operand for op in n_invs)
        ninv_q = _column(op.quotient for op in n_invs)
        self.ninv_q_hi = ninv_q >> np.uint64(32)
        self.ninv_q_lo = ninv_q & np.uint64(0xFFFFFFFF)
        for arr in (self.ninv_w, self.ninv_q_hi, self.ninv_q_lo):
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


#: Bound on the process-global table memo.  Tables are immutable but
#: *large* (four uint64 arrays of ``degree`` words per prime: ~1 MiB at
#: N = 32768), so a long-lived server cycling through many contexts must
#: not accumulate them without bound; anything a live context needs is
#: also referenced by that context, so eviction is always safe.
TABLES_CACHE_SIZE = 32

#: Serializes lookups and builds through the memo: without it two
#: server lanes asking for the same uncached base both pay the build,
#: and racing evictions can churn entries a concurrent reader is about
#: to use.
_TABLES_LOCK = threading.Lock()


@lru_cache(maxsize=TABLES_CACHE_SIZE)
def _cached_stacked_tables(degree: int, values: Tuple[int, ...]) -> StackedNTTTables:
    return StackedNTTTables(degree, [Modulus(v) for v in values])


def get_stacked_tables(degree: int, moduli) -> StackedNTTTables:
    """Memoized stacked tables for an ordered modulus collection.

    ``moduli`` may be an iterable of :class:`Modulus` or plain ints (an
    ``RNSBase`` works directly).  The memo is a bounded LRU keyed by
    ``(degree, value tuple)`` — see :data:`TABLES_CACHE_SIZE`.
    Thread-safe: see :data:`_TABLES_LOCK`.
    """
    values = tuple(
        m.value if isinstance(m, Modulus) else int(m) for m in moduli
    )
    with _TABLES_LOCK:
        return _cached_stacked_tables(degree, values)


def get_tables(degree: int, modulus: Modulus | int) -> NTTTables:
    """The tables of one prime: the single row of its memoized stack."""
    return get_stacked_tables(degree, [modulus]).tables[0]


def tables_cache_info():
    """The memo's ``lru_cache`` statistics — for tests and ops."""
    with _TABLES_LOCK:
        return _cached_stacked_tables.cache_info()


def clear_tables_cache() -> None:
    """Drop the table memo (frees memory; safe at any time)."""
    with _TABLES_LOCK:
        _cached_stacked_tables.cache_clear()


def register_metrics(registry=None) -> None:
    """Register pull series for the NTT table memo into a registry.

    Sampled at export time from the ``lru_cache`` statistics, so the
    series track the live memo with no bookkeeping on the hot path.
    """
    from ..obs import metrics as obs_metrics

    reg = registry or obs_metrics.get_registry()

    def stat(field_name: str):
        return lambda: float(getattr(tables_cache_info(), field_name))

    labels = {"cache": "stacked"}
    reg.counter("repro_ntt_tables_cache_hits_total",
                "NTT twiddle-table cache hits.",
                labels=labels, fn=stat("hits"))
    reg.counter("repro_ntt_tables_cache_misses_total",
                "NTT twiddle-table cache misses (table builds).",
                labels=labels, fn=stat("misses"))
    reg.gauge("repro_ntt_tables_cache_size",
              "NTT twiddle tables currently memoized.",
              labels=labels, fn=stat("currsize"))
    reg.gauge("repro_ntt_tables_cache_max",
              "NTT twiddle-table cache capacity.",
              labels=labels, fn=stat("maxsize"))


register_metrics()
