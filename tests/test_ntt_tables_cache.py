"""Regression tests: the NTT table memo is a bounded LRU, not a leak.

Long-lived servers create many contexts over their lifetime; before this
suite the process-global table memo could only grow.  The one memo,
``get_stacked_tables`` (which ``get_tables`` reads a single row of),
must stay within ``TABLES_CACHE_SIZE`` entries while still
deduplicating repeated lookups.
"""

import numpy as np
import pytest

from repro.modmath import Modulus, gen_ntt_prime
from repro.ntt import get_stacked_tables, get_tables
from repro.ntt.tables import (
    TABLES_CACHE_SIZE,
    clear_tables_cache,
    tables_cache_info,
)

DEGREE = 16


def _primes(count):
    out = []
    bits = 21
    below = None
    while len(out) < count:
        try:
            p = gen_ntt_prime(bits, DEGREE, below=below)
        except ValueError:
            bits += 1
            below = None
            continue
        out.append(p)
        below = p
    return out


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_tables_cache()
    yield
    clear_tables_cache()


def test_caches_are_bounded():
    assert TABLES_CACHE_SIZE is not None and TABLES_CACHE_SIZE > 0
    assert tables_cache_info().maxsize == TABLES_CACHE_SIZE


def test_per_prime_cache_evicts_beyond_bound():
    """One-prime lookups share the one memo and evict beyond its bound."""
    primes = _primes(TABLES_CACHE_SIZE + 8)
    for p in primes:
        get_tables(DEGREE, p)
    assert tables_cache_info().currsize <= TABLES_CACHE_SIZE
    # The most recent entry is still cached (hit, same object)...
    t_last = get_tables(DEGREE, primes[-1])
    assert get_tables(DEGREE, primes[-1]) is t_last
    # ...while the oldest was evicted and is rebuilt on demand (still
    # correct, just a fresh object).
    rebuilt = get_tables(DEGREE, primes[0])
    assert rebuilt.modulus.value == primes[0]
    assert tables_cache_info().currsize <= TABLES_CACHE_SIZE


def test_repeated_lookup_is_a_hit():
    p = _primes(1)[0]
    a = get_tables(DEGREE, p)
    before = tables_cache_info().hits
    b = get_tables(DEGREE, p)
    assert a is b
    assert tables_cache_info().hits == before + 1
    # A one-prime lookup is the single row of that prime's stack.
    assert get_stacked_tables(DEGREE, [p]).tables[0] is a


def test_stacked_cache_bounded_and_keyed_by_value_tuple():
    primes = _primes(TABLES_CACHE_SIZE + 4)
    st1 = get_stacked_tables(DEGREE, primes[:3])
    st2 = get_stacked_tables(DEGREE, [Modulus(v) for v in primes[:3]])
    assert st1 is st2  # Modulus list and int list hash to the same key
    # Many distinct bases: entries evict instead of accumulating.
    for p in primes:
        get_stacked_tables(DEGREE, (p,))
    assert tables_cache_info().currsize <= TABLES_CACHE_SIZE


def test_eviction_keeps_live_contexts_working():
    """Eviction must never invalidate tables a caller already holds."""
    primes = _primes(TABLES_CACHE_SIZE + 2)
    held = get_tables(DEGREE, primes[0])
    for p in primes[1:]:
        get_tables(DEGREE, p)  # evicts the first entry
    # The held reference still transforms correctly.
    from repro.ntt import ntt_forward, ntt_inverse

    x = np.random.default_rng(0).integers(
        0, held.modulus.value, DEGREE, dtype=np.uint64
    )
    assert np.array_equal(ntt_inverse(ntt_forward(x, held), held), x)


def test_context_row_stacks_are_the_memo_objects():
    """``stacked_tables_rows`` holds the memo's own object per row subset:
    the first call takes it from ``get_stacked_tables``, later calls are a
    per-context lookup that returns that same object without the memo."""
    from repro.core import CkksContext, CkksParameters

    ctx = CkksContext(CkksParameters.default(degree=64, levels=3))
    rows = (0, 1, len(ctx.key_base) - 1)
    held = ctx.stacked_tables_rows(rows)
    assert held is get_stacked_tables(64, [ctx.key_base[i] for i in rows])
    lookups = tables_cache_info()
    assert ctx.stacked_tables_rows(rows) is held
    assert ctx.stacked_tables_rows((2,)) is ctx.stacked_tables_rows((2,))
    after = tables_cache_info()
    assert after.hits + after.misses == lookups.hits + lookups.misses + 1
