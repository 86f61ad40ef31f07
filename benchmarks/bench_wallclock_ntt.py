"""Wall-clock benchmarks of the actual Python NTT kernels.

Unlike the figure benchmarks (which evaluate the device model), these
time the vectorized NumPy transforms themselves — the numbers a user of
this library experiences.
"""

import numpy as np
import pytest

from repro.modmath import Modulus, gen_ntt_prime
from repro.ntt import get_tables, ntt_forward, ntt_forward_high_radix, ntt_inverse

RNG = np.random.default_rng(11)


def data(n, tables, batch=None):
    shape = (batch, n) if batch else (n,)
    return RNG.integers(0, tables.modulus.value, size=shape, dtype=np.uint64)


@pytest.fixture(scope="module", params=[1024, 4096, 8192])
def tables(request):
    n = request.param
    return get_tables(n, Modulus(gen_ntt_prime(50, n)))


def test_ntt_forward(benchmark, tables):
    x = data(tables.degree, tables)
    out = benchmark(ntt_forward, x, tables)
    assert out.shape == x.shape


def test_ntt_inverse(benchmark, tables):
    x = ntt_forward(data(tables.degree, tables), tables)
    out = benchmark(ntt_inverse, x, tables)
    assert out.shape == x.shape


def test_ntt_forward_lazy(benchmark, tables):
    """Lazy variant skips the final correction pass (paper's fusion)."""
    x = data(tables.degree, tables)
    out = benchmark(ntt_forward, x, tables, lazy=True)
    assert out.shape == x.shape


@pytest.mark.parametrize("radix", [4, 8, 16])
def test_ntt_high_radix(benchmark, tables, radix):
    x = data(tables.degree, tables)
    out = benchmark(ntt_forward_high_radix, x, tables, radix)
    assert np.array_equal(out, ntt_forward(x, tables))


def test_ntt_batched_rns8(benchmark, tables):
    """Batch of 8 transforms (one RNS level's worth)."""
    x = data(tables.degree, tables, batch=8)
    out = benchmark(ntt_forward, x, tables)
    assert out.shape == x.shape
