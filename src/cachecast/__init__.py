"""Coded caching for a broadcast link with two cache sizes.

Exact rate formulas, explicit placements and XOR delivery plans for the
equal-cache scheme and its two-level extension, a layered memory-sharing
baseline, and a bit-exact simulator that proves decodability.

The simulator's names are resolved on first use (PEP 562), so importing the
package loads no numpy.
"""

from .equal_cache import rate_eq
from .unequal import SchemeInstance, UnequalConfig, rate_ueq, unequal_params

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

_SIMULATOR_NAMES = ("decode_all", "execute_delivery", "materialize")


def __getattr__(name: str):
    if name in _SIMULATOR_NAMES:
        from . import simulator

        return getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
