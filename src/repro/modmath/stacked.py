"""Packed-RNS modulus stack: per-limb constants as broadcastable columns.

The paper treats the RNS dimension as a first-class axis of parallelism
(Fig. 10): every prime's residue polynomial is independent work fed to
the same kernel grid.  :class:`StackedModulus` is that limb stack as
one object: the per-limb :class:`~repro.modmath.modulus.Modulus` values
(which the serial table loops over row by row) plus their constants as
``(k, 1)`` uint64 columns — the modulus ``p``, the two Barrett ratio
words, the Harvey lazy bound ``2p`` and the ``2**64 mod p`` fold — which
the native glue flattens once per instance for the compiled kernels.

The convention throughout the stacked path is that the **limb axis is
the second-to-last axis** of every operand, matching the
``(size, level, N)`` ciphertext layout; the column constants then
broadcast row-wise with no reshaping at the call site.

Both kernel tables compute the same canonical values as looping the
per-limb kernels row by row; ``tests/test_backend_ab.py`` enforces this
property.
"""

from __future__ import annotations

import threading
from typing import Iterable, Tuple

import numpy as np

from .modulus import Modulus

__all__ = ["StackedModulus"]


class StackedModulus:
    """A stack of :class:`Modulus` values exposed as broadcast columns.

    Attributes
    ----------
    moduli:
        The underlying per-limb :class:`Modulus` objects, in row order.
    u64, ratio_hi, ratio_lo, two_p:
        ``(k,) + (1,) * trailing`` uint64 views of the per-limb modulus,
        Barrett ratio words, and ``2p``.  With the default ``trailing=1``
        they are ``(k, 1)`` columns that broadcast across ``(..., k, n)``
        stacks whose limb axis is second-to-last.
    c64, c64q_hi, c64q_lo:
        ``2**64 mod p`` with its Harvey quotient split into 32-bit
        halves, in the same shape: the native kernels reduce a 128-bit
        value as ``Harvey(hi; W = 2**64 mod p)`` plus a 64-bit Barrett
        of ``lo``.
    """

    __slots__ = (
        "moduli",
        "trailing",
        "u64",
        "ratio_hi",
        "ratio_lo",
        "two_p",
        "c64",
        "c64q_hi",
        "c64q_lo",
        "_prefixes",
        "_trailing_variants",
        "_native_consts",
        "_lock",
    )

    def __init__(self, moduli: Iterable[Modulus], *, trailing: int = 1):
        moduli = tuple(moduli)
        if not moduli:
            raise ValueError("StackedModulus needs at least one modulus")
        if trailing < 0:
            raise ValueError("trailing axis count must be >= 0")
        self.moduli: Tuple[Modulus, ...] = moduli
        flat_p = np.array([m.value for m in moduli], dtype=np.uint64)
        flat_rhi = np.array([m.const_ratio[0] for m in moduli], dtype=np.uint64)
        flat_rlo = np.array([m.const_ratio[1] for m in moduli], dtype=np.uint64)
        for arr in (flat_p, flat_rhi, flat_rlo):
            arr.setflags(write=False)
        self.trailing = trailing
        shape = (len(moduli),) + (1,) * trailing
        self.u64 = flat_p.reshape(shape)
        self.ratio_hi = flat_rhi.reshape(shape)
        self.ratio_lo = flat_rlo.reshape(shape)
        # p < 2**61, so 2p never wraps uint64.
        two_p = (flat_p + flat_p).reshape(shape)
        two_p.setflags(write=False)
        self.two_p = two_p
        c64 = np.array(
            [(1 << 64) % m.value for m in moduli], dtype=np.uint64
        )
        c64q = [
            ((int(c) << 64) // m.value) for c, m in zip(c64, moduli)
        ]
        c64 = c64.reshape(shape)
        c64q_hi = np.array([q >> 32 for q in c64q], dtype=np.uint64).reshape(shape)
        c64q_lo = np.array(
            [q & 0xFFFFFFFF for q in c64q], dtype=np.uint64
        ).reshape(shape)
        for arr in (c64, c64q_hi, c64q_lo):
            arr.setflags(write=False)
        self.c64 = c64
        self.c64q_hi = c64q_hi
        self.c64q_lo = c64q_lo
        self._prefixes: dict = {}
        self._trailing_variants: dict = {}
        #: Flat (k,) constant arrays for the native backend, built lazily
        #: by repro.native.glue and cached here (idempotent).
        self._native_consts = None
        #: Guards the derived-stack memos: concurrent evaluator lanes
        #: share StackedModulus instances through the table caches.
        self._lock = threading.Lock()

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_values(cls, values: Iterable[int], *, trailing: int = 1) -> "StackedModulus":
        return cls((Modulus(int(v)) for v in values), trailing=trailing)

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.moduli)

    def __iter__(self):
        return iter(self.moduli)

    def __getitem__(self, i: int) -> Modulus:
        return self.moduli[i]

    @property
    def values(self) -> list:
        return [m.value for m in self.moduli]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StackedModulus({len(self.moduli)} limbs, trailing={self.trailing})"

    # -- derived stacks -------------------------------------------------------

    def prefix(self, rows: int) -> "StackedModulus":
        """The first ``rows`` limbs as a stack (memoized; arrays are views)."""
        if not 1 <= rows <= len(self.moduli):
            raise ValueError(f"invalid prefix size {rows}")
        if rows == len(self.moduli):
            return self
        cached = self._prefixes.get(rows)
        if cached is None:
            cached = StackedModulus(self.moduli[:rows], trailing=self.trailing)
            with self._lock:
                cached = self._prefixes.setdefault(rows, cached)
        return cached

    def with_trailing(self, trailing: int) -> "StackedModulus":
        """The same limb stack with a different broadcast shape (memoized).

        ``trailing=0`` gives flat ``(k,)`` constants for elementwise use on
        ``(k,)`` data (e.g. the stacked ``dot_mod`` accumulator);
        ``trailing=2`` gives ``(k, 1, 1)`` for limb-major 3-D stacks.
        """
        if trailing == self.trailing:
            return self
        cached = self._trailing_variants.get(trailing)
        if cached is None:
            cached = StackedModulus(self.moduli, trailing=trailing)
            with self._lock:
                cached = self._trailing_variants.setdefault(trailing, cached)
        return cached
