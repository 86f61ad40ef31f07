"""Negacyclic NTT engines — the paper's algorithmic level (Sec. III-B)."""

from .hierarchical import hierarchical_ntt_forward, hierarchical_split
from .highradix import (
    high_radix_forward_group,
    high_radix_inverse_group,
    ntt_forward_high_radix,
    ntt_inverse_high_radix,
)
from .radix2 import (
    naive_ntt_rounds,
    ntt_forward,
    ntt_forward_stacked,
    ntt_inverse,
    ntt_inverse_stacked,
)
from .reference import (
    intt_reference,
    negacyclic_polymul_reference,
    ntt_reference,
)
from .simd import shuffle_targets, simd_exchange_plan
from .staged import PhaseTrace, staged_ntt_forward
from .stages import RoundGroup, stage_schedule
from .tables import (
    NTTTables,
    StackedNTTTables,
    bit_reverse,
    clear_tables_cache,
    find_primitive_root,
    get_stacked_tables,
    get_tables,
    tables_cache_info,
)
from .variants import VARIANTS, NTTVariant, get_variant, run_variant

__all__ = [
    "NTTTables",
    "StackedNTTTables",
    "NTTVariant",
    "VARIANTS",
    "bit_reverse",
    "find_primitive_root",
    "get_tables",
    "get_stacked_tables",
    "tables_cache_info",
    "clear_tables_cache",
    "get_variant",
    "run_variant",
    "ntt_forward",
    "ntt_inverse",
    "ntt_forward_stacked",
    "ntt_inverse_stacked",
    "ntt_forward_high_radix",
    "ntt_inverse_high_radix",
    "high_radix_forward_group",
    "high_radix_inverse_group",
    "hierarchical_ntt_forward",
    "hierarchical_split",
    "naive_ntt_rounds",
    "ntt_reference",
    "intt_reference",
    "negacyclic_polymul_reference",
    "shuffle_targets",
    "simd_exchange_plan",
    "stage_schedule",
    "RoundGroup",
    "staged_ntt_forward",
    "PhaseTrace",
]
