"""Residue number system substrate (Sec. II-B of the paper)."""

from .base import RNSBase
from .baseconv import BaseConverter
from .crt import (
    compose_poly,
    compose_signed_float,
    compose_signed_poly,
    decompose_poly,
    decompose_signed_poly,
)
from .scaling import LastModulusScaler

__all__ = [
    "RNSBase",
    "BaseConverter",
    "LastModulusScaler",
    "compose_poly",
    "compose_signed_float",
    "compose_signed_poly",
    "decompose_poly",
    "decompose_signed_poly",
]
