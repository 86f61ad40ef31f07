"""repro — reproduction of "Accelerating Encrypted Computing on Intel GPUs".

A from-scratch Python implementation of the paper's XeHE system
(IPDPS 2022, arXiv:2109.14704):

* :mod:`repro.modmath` — emulated int64 modular arithmetic (Barrett,
  Harvey lazy ops, fused mad_mod, inline-assembly instruction models);
* :mod:`repro.rns` — residue number system utilities;
* :mod:`repro.ntt` — the negacyclic NTT in every variant the paper
  benchmarks (naive radix-2, staged SLM, SIMD shuffling, radix-4/8/16);
* :mod:`repro.native` — runtime-compiled C kernel backend (fused
  stacked-NTT butterflies, dyadic/mad cores, divide-round tails) with
  ``set_backend``/``REPRO_BACKEND`` selection and the serial fallback;
* :mod:`repro.xesim` — an Intel-Xe-class GPU performance model with the
  paper's Device1 (dual-tile) and Device2 (single-tile) presets;
* :mod:`repro.runtime` — a SYCL-like asynchronous runtime (queues,
  events, device buffers, memory cache, multi-tile scheduling);
* :mod:`repro.core` — the RNS-CKKS scheme (encoder, keys, encryptor,
  decryptor, evaluator, the five benchmarked routines);
* :mod:`repro.fusion` — the kernel-fusion compiler (elementwise-chain
  fusion, NTT epilogue folding, cross-request launch batching);
* :mod:`repro.gpu` — the GPU-backed evaluator binding core to runtime;
* :mod:`repro.apps` — encrypted polynomial matMul and inference demos;
* :mod:`repro.analysis` — profiling, figure generators, reporting.
"""

__version__ = "1.0.0"

from . import modmath

__all__ = ["modmath", "__version__", "at_least"]


def at_least(lo, kind=int, *, strict=False):
    """An argparse ``type=`` for ``python -m repro``'s numeric bounds.

    Parses ``kind`` and rejects values below ``lo`` (at ``lo`` too when
    ``strict``); argparse turns the rejection into a usage error, exit 2.
    """
    def parse(text):
        value = kind(text)
        if value < lo or (strict and value == lo):
            from argparse import ArgumentTypeError

            raise ArgumentTypeError(f"must be {'>' if strict else '>='} {lo}")
        return value

    parse.__name__ = kind.__name__  # "invalid int value" on a bad literal
    return parse
