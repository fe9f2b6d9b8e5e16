"""Golden rates: every rate report on a small grid is frozen byte for byte.

Each field of each ``RateReport`` of the three schemes, and scheme 1's
``beta``, is written with ``repr`` and hashed, so any change to the rate
formulas or the scheme-1 optimiser that moves a value, changes its type
(``Fraction`` against ``int``) or reorders a tie in scheme 1's shares changes
the digest.  The grid is every (N, K, L) with N <= 7 and 1 <= L < K <= N,
and every M <= Mhat in sixths of the library, 0, N/6, ..., N, plus one
large point.
"""

import hashlib
from fractions import Fraction

from cachecast.baselines import scheme1_optimize
from cachecast.unequal import RateReport, SchemeInstance

GRID_N = range(2, 8)
STEPS = 6  # cache sizes are multiples of N/STEPS
LARGE_POINT = (24, 18, 9, Fraction(12), Fraction(6))  # (N, K, L, Mhat, M)

GOLDEN_REPORTS = 3286
GOLDEN_SHA256 = "c54f010d2166042914a5d7f42a9e12d5165769361880eec28b83bd7237c751b8"

FIELDS = list(RateReport._fields)


def _points():
    """(N, K, L, Mhat, M) of the grid, then the large point."""
    for N in GRID_N:
        ms = [Fraction(j * N, STEPS) for j in range(STEPS + 1)]
        for K in range(2, N + 1):
            for L in range(1, K):
                for i, M in enumerate(ms):
                    for Mhat in ms[i:]:
                        yield N, K, L, Mhat, M
    yield LARGE_POINT


def _lines():
    """One line per report: the equal scheme once per (N, K, M), then the
    proposed scheme and scheme 1 with its beta at every point."""
    seen = set()
    for N, K, L, Mhat, M in _points():
        if (N, K, M) not in seen:
            seen.add((N, K, M))
            yield SchemeInstance("equal", N, K, M).report, None
        yield SchemeInstance("proposed", N, K, M, L, Mhat).report, None
        caches = [Mhat] * L + [M] * (K - L)
        yield SchemeInstance("scheme1", N, K, M, L, Mhat).report, scheme1_optimize(
            N, K, caches)[0]


def rates_digest() -> tuple[int, str]:
    """(report count, SHA-256) over the whole grid."""
    digest = hashlib.sha256()
    count = 0
    for report, beta in _lines():
        values = [repr(getattr(report, name)) for name in FIELDS]
        if beta is not None:
            values.append(repr(beta))
        digest.update(("|".join(values) + "\n").encode())
        count += 1
    return count, digest.hexdigest()


def test_golden_rates_digest():
    assert rates_digest() == (GOLDEN_REPORTS, GOLDEN_SHA256)
