"""Pins: the stacked twiddle-table builder equals the per-element loop.

:class:`~repro.ntt.tables.StackedNTTTables` builds a whole RNS base's
tables in one stacked pass (a doubling ladder of ``mul_mod`` calls, one
bit-reversed scatter, exact wrapping-uint64 Harvey quotients).  This
suite keeps the earlier per-element loop verbatim as the reference and
asserts every table it produced is reproduced exactly, under each
kernel table the builder can run on:

* ``psi``, ``w``, ``wq``, ``iw``, ``iwq`` and ``n_inv`` for one prime
  at every degree ``N = 2 ... 32768``;
* the same for every prime of the parameter sets the tests and the
  benchmark build (N=4096/L3, 8192/L7 and L8, 16384/L3 and L4,
  32768/L4);
* one sha256 over a fixed grid, recorded from the loop-built tables.
"""

import hashlib

import numpy as np
import pytest

from repro import native
from repro.core import CkksParameters
from repro.modmath import Modulus, MultiplyOperand, gen_ntt_prime, inv_mod
from repro.ntt.tables import (
    bit_reverse,
    clear_tables_cache,
    find_primitive_root,
    get_stacked_tables,
)

DEGREES = [1 << b for b in range(1, 16)]

#: ``(degree, levels)`` of ``CkksParameters.default`` sets in use.
PARAM_SETS = [(4096, 3), (8192, 7), (8192, 8), (16384, 3), (16384, 4),
              (32768, 4)]

#: sha256 of :func:`_grid_digest`, recorded from the per-element loop.
GRID_SHA256 = "72023e8b27f6b42b171463838b14b5763eb98632a8bffff8e3e149704980acca"

BACKENDS = ["serial"] + (["native"] if native.available() else [])


def _reference_tables(degree, modulus):
    """The per-element table loop, kept verbatim as the reference."""
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

    n_inv = MultiplyOperand.create(inv_mod(degree, modulus), modulus)
    return psi, w, wq, iw, iwq, n_inv


def _grid():
    """``(degree, primes)`` bases: one prime per degree, then the sets."""
    out = [(n, (gen_ntt_prime(30, n),)) for n in DEGREES]
    for degree, levels in PARAM_SETS:
        out.append((degree, tuple(
            CkksParameters.default(degree=degree, levels=levels).moduli)))
    return out


_REFERENCE = {}


def _reference(degree, p):
    key = (degree, p)
    if key not in _REFERENCE:
        _REFERENCE[key] = _reference_tables(degree, Modulus(p))
    return _REFERENCE[key]


def _assert_matches_loop(degree, primes):
    st = get_stacked_tables(degree, primes)
    assert len(st.tables) == len(primes)
    for row, (t, p) in enumerate(zip(st.tables, primes)):
        psi, w, wq, iw, iwq, n_inv = _reference(degree, p)
        assert t.modulus.value == p
        assert t.psi == psi, (degree, p)
        assert t.n_inv.operand == n_inv.operand, (degree, p)
        assert t.n_inv.quotient == n_inv.quotient, (degree, p)
        for name, want in (("w", w), ("wq", wq), ("iw", iw), ("iwq", iwq)):
            assert np.array_equal(getattr(t, name), want), (degree, p, name)
            assert np.array_equal(getattr(st, name)[row], want), (degree, p)


def _grid_digest():
    """sha256 over every table of :func:`_grid`, row by row."""
    h = hashlib.sha256()
    for degree, primes in _grid():
        for t in get_stacked_tables(degree, primes).tables:
            for scalar in (t.modulus.value, t.psi, t.n_inv.operand,
                           t.n_inv.quotient):
                h.update(int(scalar).to_bytes(8, "little"))
            for arr in (t.w, t.wq, t.iw, t.iwq):
                h.update(np.ascontiguousarray(arr, dtype="<u8").tobytes())
    return h.hexdigest()


@pytest.fixture(params=BACKENDS)
def backend(request):
    """Build every table fresh under one kernel table."""
    clear_tables_cache()
    with native.use_backend(request.param):
        yield request.param
    clear_tables_cache()


@pytest.mark.parametrize("degree", DEGREES)
def test_one_prime_matches_loop_at_every_degree(backend, degree):
    _assert_matches_loop(degree, (gen_ntt_prime(30, degree),))


@pytest.mark.parametrize("degree,levels", PARAM_SETS)
def test_parameter_set_bases_match_loop(backend, degree, levels):
    primes = tuple(CkksParameters.default(degree=degree, levels=levels).moduli)
    _assert_matches_loop(degree, primes)


def test_grid_sha256_pin(backend):
    assert _grid_digest() == GRID_SHA256


def test_tables_are_read_only_row_views(backend):
    primes = tuple(CkksParameters.default(degree=64, levels=2).moduli)
    st = get_stacked_tables(64, primes)
    for row, t in enumerate(st.tables):
        for name in ("w", "wq", "iw", "iwq"):
            arr = getattr(t, name)
            assert not arr.flags.writeable
            assert np.shares_memory(arr, getattr(st, name))
            assert np.array_equal(arr, getattr(st, name)[row])
