"""Exact arithmetic and subset utilities shared by every caching scheme.

All rates and cache sizes are ``fractions.Fraction`` values, and subfile
offsets and lengths are integers in a unit of the file that every cut
divides (``divide`` refuses one that does not); nothing ever touches
floating point, so equality checks between formula rates and simulated
loads are exact.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from fractions import Fraction
from itertools import combinations
from typing import Iterable

Rational = Fraction

# Canonical user-set representation: sorted, duplicate-free tuple of indices.
UserSet = tuple[int, ...]

# Most demand vectors or sweep points a command enumerates; a larger count is
# refused before any work starts.
MAX_ENUMERATION = 10**6


def _max_digits() -> int:
    """Most digits Python turns an integer into text."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


@functools.cache
def _power_of_ten(digits: int) -> int:
    """10^digits, computed once per digit limit."""
    return 10**digits


def count_text(count: int) -> str:
    """``count`` in decimal, or ``>= 10^d`` when it has more digits than the
    d that Python turns into text."""
    digits = _max_digits()
    return f">= 10^{digits}" if count >= _power_of_ten(digits) else str(count)


def excess(name: str, factors: Iterable[int], limit: int) -> str | None:
    """``name = count`` when the product of ``factors`` exceeds ``limit``.

    Multiplying stops at 10^d, d the most digits Python turns into text, so
    a count that large is stated as that bound and never computed in full.
    """
    cap = _power_of_ten(_max_digits())
    count = 1
    for f in factors:
        count *= f
        if count >= cap:
            return f"{name} {count_text(count)}"
    return f"{name} = {count}" if count > limit else None


def divide(x: int, d: int) -> int:
    """x / d, for a d that divides x; never rounds.

    Placements are cut in integer units of the file, and every cut the
    construction makes divides its unit evenly, so a remainder is an error.
    """
    q, r = divmod(x, d)
    if r:
        raise ValueError(f"the unit does not divide evenly: {x}/{d} is not an integer")
    return q


def binom(a: int, b: int) -> int:
    """C(a, b), taken to be 0 when b > a or b < 0.

    The zero convention makes the scheme formulas total: terms like
    C(L-1, t_int-1) appear with t_int = 0 and must vanish rather than fail.
    """
    if a < 0:
        raise ValueError(f"binom: upper index must be non-negative, got {a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def user_set(users: Iterable[int]) -> UserSet:
    """Canonical (sorted, deduplicated) form of a collection of user indices."""
    return tuple(sorted(set(users)))


def users_range(k: int) -> UserSet:
    """The full user set {1, ..., k}."""
    return tuple(range(1, k + 1))


def enumerate_subsets(ground: Iterable[int], size: int) -> list[UserSet]:
    """All size-``size`` subsets of ``ground`` in lexicographic order.

    Deterministic across runs; an out-of-range size yields an empty list,
    mirroring the zero-binomial convention.
    """
    members = user_set(ground)
    if size < 0 or size > len(members):
        return []
    return list(combinations(members, size))


# The decimal exponent of a number as ``fractions.Fraction`` reads it.
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or a decimal string into an exact fraction.

    Decimals are read exactly over powers of ten ('0.25' -> 1/4).  A decimal
    exponent that would give more digits than Python turns into text is
    refused before any power of ten is computed.
    """
    digits = _max_digits()
    if exponent := _EXPONENT.search(text):
        size = exponent[1].replace("_", "").lstrip("+-0")
        if len(size) > len(str(digits)) or int(size or 0) >= digits:
            raise ValueError(f"exponent {exponent[1]} in {text!r} gives more "
                             f"than {digits} digits")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(x: Fraction, name: str = "value") -> str:
    """Canonical 'p/q' form ('p' when the denominator is 1).

    A numerator or denominator of more digits than Python turns into text is
    refused, naming ``name`` and the bound ``count_text`` states.  Only that
    refusal looks at the terms' size, so a printable value costs nothing more.
    """
    try:
        return str(x)
    except ValueError:  # Python's own refusal, about the conversion
        term, n = "numerator", abs(x.numerator)
        if n < _power_of_ten(_max_digits()):
            term, n = "denominator", x.denominator
        raise ValueError(f"{name} has a {term} {count_text(n)}, "
                         "too many digits to print") from None
