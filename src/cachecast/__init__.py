"""Coded caching for a broadcast link with two cache sizes.

Exact rate formulas, explicit placements and XOR delivery plans for the
equal-cache scheme and its two-level extension, a layered memory-sharing
baseline, and a bit-exact simulator that proves decodability.
"""

from .equal_cache import rate_eq
from .simulator import SchemeInstance, decode_all, execute_delivery, materialize
from .unequal import UnequalConfig, rate_ueq, unequal_params

__version__ = "0.1.0"

__all__ = [
    "SchemeInstance",
    "UnequalConfig",
    "decode_all",
    "execute_delivery",
    "materialize",
    "rate_eq",
    "rate_ueq",
    "unequal_params",
]
