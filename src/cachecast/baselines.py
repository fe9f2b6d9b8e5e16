"""Comparison baselines: layered memory-sharing (scheme 1) and imported rates.

Scheme 1 splits the system into K nested sub-problems — sub-problem i serves
users 1..i with the cache headroom M_i - M_{i+1} and unicasts to the rest —
and optimizes the file share beta_i given to each sub-problem.  Each
sub-problem's rate is convex and piecewise linear in its share, so the exact
optimum follows from sorting the pieces by slope.  ``scheme1_optimize`` takes
the slopes in closed form and runs on integers: shares over
W = Q*N*lcm(1..K) and slopes over S = lcm(2..K+1).  It returns the shares as
a plain tuple of fractions, exact by construction.  ``scheme1_rate_at`` is
the one entry point for an arbitrary allocation: it checks once that the
shares are non-negative and sum to 1, then evaluates them layer by layer
through ``rate_eq``.

Rates produced by schemes we do not implement (e.g. the exponential-size
linear program for uncoded-placement/linear-delivery systems) are imported
from a plain-text table and attached to comparison output as-is.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .core import Rational, parse_rational
from .equal_cache import rate_eq

CachePoint = tuple[int, int, int, Rational, Rational]  # (N, K, L, Mhat, M)


def _cache_gaps(M_sorted: Sequence, N: int, K: int) -> tuple[list[int], int]:
    """Headroom M_i - M_{i+1} of each sub-problem i, with M_{K+1} = 0, as
    integer numerators over Q, the lcm of the cache sizes' denominators."""
    M = list(M_sorted)
    if K > N:
        raise ValueError(f"unsupported regime K > N (K={K}, N={N})")
    if len(M) != K:
        raise ValueError(f"cache vector must have length K={K}")
    q = math.lcm(*(x.denominator for x in M))
    num = [x.numerator * (q // x.denominator) for x in M]
    if any(num[i] < num[i + 1] for i in range(K - 1)):
        raise ValueError("cache vector must be sorted in descending order")
    if num and (num[-1] < 0 or num[0] > N * q):
        raise ValueError("cache sizes must lie in [0, N]")
    return [a - b for a, b in zip(num, num[1:] + [0])], q


def _layer_cost(N: int, K: int, i: int, gap: Rational, b: Rational) -> Rational:
    """Rate of sub-problem i with file share b and cache headroom gap.

    A zero share costs nothing, its gap left as unused cache (the limit of
    ever smaller shares), and a per-user cache above N is clamped to N.
    """
    if b == 0:
        return Fraction(0)
    return b * rate_eq(N, i, min(gap / b, Fraction(N))) + b * (K - i)


def scheme1_rate_at(beta: Sequence, N: int, K: int, M_sorted: Sequence) -> Rational:
    """Sum rate of the K layered sub-problems under one beta allocation: the
    file shares, which must be non-negative and sum to 1."""
    beta = [Fraction(b) for b in beta]
    if any(b < 0 for b in beta):
        raise ValueError("beta components must be non-negative")
    if sum(beta) != 1:
        raise ValueError(f"beta must sum to 1, got {sum(beta)}")
    gaps, q = _cache_gaps(M_sorted, N, K)
    return sum(_layer_cost(N, K, i + 1, Fraction(gaps[i], q), beta[i])
               for i in range(K))


def scheme1_optimize(
    N: int, K: int, M_sorted: Sequence
) -> tuple[tuple[Rational, ...], Rational]:
    """The exact scheme-1 optimum and the file shares (beta_1, ..., beta_K)
    attaining it.

    Sub-problem i's cost is convex and piecewise linear in its share b.  With
    gap g, its per-user cache g/b puts it at level t_real = g*i/(N*b), and
    each piece is one level t: where t_real lies in [t, t+1], the cost has
    the slope (i-t) - t(i-t-1)/(t+2) + (K-i) = (2i-t)/(t+2) + (K-i); for
    b <= g/N the cache is clamped to N and the slope is K-i.  The pieces
    meet at b = g*i/(t*N), t = 1..i.  So the problem is a separable convex
    program over the simplex: cut every cost at its breakpoints in [0, 1]
    and hand out the unit of file mass to the pieces in order of slope.  Ties
    go to the lower layer, which keeps the result deterministic.

    All of it runs in integers: shares and breakpoints over W = Q*N*lcm(1..K),
    Q the lcm of the cache sizes' denominators, which is that of the gaps
    (each size is a sum of gaps), and slopes over S = lcm(2..K+1).
    Each layer takes its pieces from b = 0 up, so the rate is the sum of
    slope times share taken, made one fraction, and each beta_i is one.
    """
    gaps, q = _cache_gaps(M_sorted, N, K)
    lcm_k = math.lcm(*range(1, K + 1))
    W = q * N * lcm_k
    S = math.lcm(*range(2, K + 2))
    pieces = []
    for i, g in enumerate(gaps, start=1):
        if not g:  # no headroom: the one piece is level 0, unicast to all K
            pieces.append((K * S, i, 0, W))
            continue
        clamp = g * lcm_k  # b = g/(Q*N), units of 1/W
        lo = 0
        # level t covers b up to g*i/(t*N); level i is the clamped piece
        for t in range(i, -1, -1):
            hi = min(clamp * i // t, W) if t else W
            if hi > lo:
                slope = (K - i) * S + ((2 * i - t) * S // (t + 2) if t < i else 0)
                pieces.append((slope, i, lo, hi))
                lo = hi
    beta = [0] * K
    left, rate = W, 0
    for slope, i, lo, hi in sorted(pieces):
        take = min(hi - lo, left)
        beta[i - 1] += take
        rate += slope * take
        left -= take
        if left == 0:
            break
    return tuple(Fraction(b, W) for b in beta), Fraction(rate, S * W)


def import_external_rates(path: str) -> dict[CachePoint, Rational]:
    """Load externally computed rates from 'N,K,L,Mhat,M,rate' rows.

    Rationals are accepted as 'p/q' or decimals; '#' starts a comment.
    A malformed row raises with its line number, and a row for a point an
    earlier row gave (whatever the spelling of its rationals) with both.
    """
    table: dict[CachePoint, Rational] = {}
    lines: dict[CachePoint, int] = {}
    with open(path) as fh:
        text = fh.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 6:
            raise ValueError(
                f"{path}:{lineno}: expected 6 fields 'N,K,L,Mhat,M,rate', "
                f"got {len(fields)}"
            )
        try:
            N, K, L = (int(fields[i]) for i in range(3))
            mhat, m, rate = (parse_rational(fields[i]) for i in range(3, 6))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        point = (N, K, L, mhat, m)
        if point in lines:
            raise ValueError(f"{path}:{lineno}: point {N},{K},{L},{mhat},{m} "
                             f"repeats line {lines[point]}")
        table[point], lines[point] = rate, lineno
    return table
