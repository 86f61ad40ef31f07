"""Shared benchmark fixtures.

Every figure benchmark renders its reproduced figure to stdout and to
``benchmarks/results/<figure_id>.txt`` so the exact numbers a run
produced can be referenced afterwards.
"""

import pathlib

import numpy as np
import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--quick", action="store_true", default=False,
        help="shrink benchmark shapes for CI smoke runs",
    )


@pytest.fixture(scope="session")
def quick(request):
    """True when the run should use CI-sized shapes (--quick)."""
    return request.config.getoption("--quick")


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def record_figure(results_dir):
    """Render a FigureResult, persist it, and return the rendered text."""
    from repro.analysis import render_figure

    def _record(fig):
        text = render_figure(fig)
        (results_dir / f"{fig.figure_id}.txt").write_text(text + "\n")
        print("\n" + text)
        return text

    return _record


@pytest.fixture(scope="session")
def ckks_bench():
    """A mid-size CKKS deployment for wall-clock benchmarks (N = 4096)."""
    from repro.core import (
        CkksContext,
        CkksEncoder,
        CkksParameters,
        Decryptor,
        Encryptor,
        Evaluator,
        KeyGenerator,
    )

    params = CkksParameters.default(degree=4096, levels=3, scale_bits=30,
                                    first_bits=50, special_bits=50)
    context = CkksContext(params)
    keygen = KeyGenerator(context, seed=7)
    encoder = CkksEncoder(context)
    return {
        "params": params,
        "context": context,
        "encoder": encoder,
        "secret": keygen.secret_key(),
        "public": keygen.public_key(),
        "relin": keygen.relin_key(),
        "galois": keygen.galois_keys([1]),
        "encryptor": Encryptor(context, keygen.public_key(), seed=8),
        "decryptor": Decryptor(context, keygen.secret_key()),
        "evaluator": Evaluator(context),
        "rng": np.random.default_rng(99),
    }
