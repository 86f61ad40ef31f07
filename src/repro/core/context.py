"""The CKKS context: precomputed tables shared by every scheme component.

Holds the RNS bases, the stacked NTT tables of the key base, and the
divide-and-round helpers used by rescaling (drop ``q_{l-1}``) and
key-switch mod-down (drop the special prime ``P``).  Mirrors SEAL's
``SEALContext`` chain of per-level data.  Every table stack comes from
the one process-wide memo, :func:`repro.ntt.tables.get_stacked_tables`:
level prefixes are views of the key base's stack, and the key-switch
target rows are a stack of their own there, held per context once
looked up.

All hot methods are written once against the stacked kernel entry
points: whole ``(..., k, N)`` stacks move through stacked NTTs and
column-broadcast modular kernels (see :mod:`repro.modmath.stacked`),
whose implementation is the process-wide backend's kernel table
(:func:`repro.native.backend.kernels`).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..modmath import Modulus, StackedModulus, inv_mod
from ..native import backend as _backend
from ..ntt.radix2 import ntt_forward_stacked, ntt_inverse_stacked
from ..ntt.tables import StackedNTTTables, get_stacked_tables
from ..rns import RNSBase
from .params import CkksParameters

__all__ = ["CkksContext"]


class CkksContext:
    """Shared precomputations for one :class:`CkksParameters` set."""

    def __init__(self, params: CkksParameters):
        self.params = params
        self.degree = params.degree
        self.key_base: RNSBase = params.key_base()
        self.ct_base: RNSBase = params.ciphertext_base()
        self.special: Modulus = self.key_base[len(self.key_base) - 1]
        #: Stacked twiddle tables over the full key base; level prefixes
        #: are memoized views.
        self.stacked_tables: StackedNTTTables = get_stacked_tables(
            self.degree, self.key_base
        )
        for m in self.key_base:
            if not m.supports_ntt(self.degree):
                raise ValueError(f"modulus {m.value} is not NTT-friendly")
        # Precomputed scalars for divide-and-round operations.
        self._inv_dropped: Dict[Tuple[int, int], np.uint64] = {}
        self._dropped_mod: Dict[Tuple[int, int], np.uint64] = {}
        self._scalar_cols: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        # Per-instance memos (plain dicts, not lru_cache, so discarded
        # contexts release their stacks with them).
        self._tables_rows_cache: Dict[Tuple[int, ...], StackedNTTTables] = {}
        self._signed_col_cache: Dict[int, np.ndarray] = {}

    # -- level helpers ---------------------------------------------------------

    @property
    def max_level(self) -> int:
        return len(self.ct_base)

    def modulus(self, i: int) -> Modulus:
        return self.key_base[i]

    def level_base(self, level: int) -> RNSBase:
        if not 1 <= level <= self.max_level:
            raise ValueError(f"level must be in [1, {self.max_level}]")
        return self.ct_base.prefix(level)

    # -- packed-RNS views ------------------------------------------------------

    def stacked_modulus(self, level: int) -> StackedModulus:
        """Stacked ``(k, 1)`` columns of the first ``level`` key-base primes."""
        return self.key_base.stacked.prefix(level)

    def stacked_tables_rows(self, rows: Tuple[int, ...]) -> StackedNTTTables:
        """Stacked NTT tables over an arbitrary ordered key-base row subset.

        The object comes from :func:`get_stacked_tables` once per subset;
        later calls (every key switch and rescale) are one dict lookup.
        """
        cached = self._tables_rows_cache.get(rows)
        if cached is None:
            cached = get_stacked_tables(
                self.degree, [self.key_base[i] for i in rows])
            self._tables_rows_cache[rows] = cached
        return cached

    def signed_to_ntt(self, signed_coeffs: np.ndarray, rows: int) -> np.ndarray:
        """Signed int64 coefficients to NTT-form residues of the first ``rows``.

        The one signed-to-NTT path of the encoder, encryptor and key
        generator: reduce a ``(N,)`` signed vector against the first
        ``rows`` key-base primes as a single ``(rows, N)`` modulo, then
        run one stacked forward NTT.  ``rows`` may be the full key base.
        """
        p_col = self._signed_col_cache.get(rows)
        if p_col is None:
            p_col = np.array(
                [self.modulus(i).value for i in range(rows)], dtype=np.int64
            )[:, None]
            p_col.setflags(write=False)
            self._signed_col_cache[rows] = p_col
        reduced = (signed_coeffs[None, :] % p_col).astype(np.uint64)
        return ntt_forward_stacked(reduced, self.stacked_tables.prefix(rows))

    # -- domain transforms -------------------------------------------------------

    def to_ntt(self, matrix: np.ndarray) -> np.ndarray:
        """Forward-NTT each row of an RNS matrix (rows = level count)."""
        matrix = np.asarray(matrix, dtype=np.uint64)
        return ntt_forward_stacked(
            matrix, self.stacked_tables.prefix(matrix.shape[-2])
        )

    def from_ntt(self, matrix: np.ndarray) -> np.ndarray:
        """Inverse-NTT each row back to coefficient form."""
        matrix = np.asarray(matrix, dtype=np.uint64)
        return ntt_inverse_stacked(
            matrix, self.stacked_tables.prefix(matrix.shape[-2])
        )

    # -- divide-and-round in NTT domain --------------------------------------------

    def _scalars(self, dropped_idx: int, target_idx: int) -> Tuple[np.uint64, np.uint64]:
        """(dropped^{-1} mod q_t, dropped mod q_t), cached."""
        key = (dropped_idx, target_idx)
        if key not in self._inv_dropped:
            d = self.key_base[dropped_idx].value
            t = self.key_base[target_idx]
            self._inv_dropped[key] = np.uint64(inv_mod(d % t.value, t))
            self._dropped_mod[key] = np.uint64(d % t.value)
        return self._inv_dropped[key], self._dropped_mod[key]

    def divide_round_columns(self, dropped_idx: int, kept: int):
        """Divide-round constants as ``(kept, 1)`` columns, cached.

        The trailing arguments of the kernel table's ``divide_round_drop``
        and ``ks_accumulate`` entries.

        Returns ``(inv_d, inv_d_q_hi, inv_d_q_lo, d_mod)`` — the per-limb
        ``d^{-1}`` with its split Harvey quotient (for the one-``mulhi``
        constant multiply) and ``d mod q_j``.
        """
        key = (dropped_idx, kept)
        cached = self._scalar_cols.get(key)
        if cached is None:
            pairs = [self._scalars(dropped_idx, j) for j in range(kept)]
            inv_d = np.array([p[0] for p in pairs], dtype=np.uint64)[:, None]
            d_mod = np.array([p[1] for p in pairs], dtype=np.uint64)[:, None]
            quots = [
                (int(p[0]) << 64) // self.key_base[j].value
                for j, p in enumerate(pairs)
            ]
            q_hi = np.array([q >> 32 for q in quots], dtype=np.uint64)[:, None]
            q_lo = np.array(
                [q & 0xFFFFFFFF for q in quots], dtype=np.uint64
            )[:, None]
            for arr in (inv_d, q_hi, q_lo, d_mod):
                arr.setflags(write=False)
            cached = self._scalar_cols[key] = (inv_d, q_hi, q_lo, d_mod)
        return cached

    def divide_round_drop_ntt(
        self, matrix: np.ndarray, dropped_idx: int
    ) -> np.ndarray:
        """Drop the last row and divide-and-round by its modulus, in NTT form.

        ``matrix`` is ``(..., k, N)`` in NTT form; row ``k-1`` corresponds
        to ``key_base[dropped_idx]`` (``q_{l-1}`` for rescale, the special
        prime for key-switch mod-down); rows ``0..k-2`` are ``q_0..q_{k-2}``.

        SEAL's sequence (iNTT the dropped row, center it, then per kept
        prime subtract its re-NTT-ed reduction and multiply by the
        dropped modulus' inverse) is the kernel table's
        ``divide_round_drop`` entry, over the stack of the matrix's rows.
        """
        k = np.shape(matrix)[-2]
        if k < 2:
            raise ValueError("need at least two rows to drop one")
        if dropped_idx == k - 1:
            tables = self.stacked_tables.prefix(k)
        else:
            tables = self.stacked_tables_rows(
                tuple(range(k - 1)) + (dropped_idx,))
        return _backend.kernels().divide_round_drop(
            matrix, tables, *self.divide_round_columns(dropped_idx, k - 1)
        )

    def rescale_ntt(self, matrix: np.ndarray, level: int) -> np.ndarray:
        """Rescale: drop ``q_{level-1}`` from a level-``level`` matrix."""
        if matrix.shape[-2] != level:
            raise ValueError("matrix does not match level")
        return self.divide_round_drop_ntt(matrix, level - 1)
