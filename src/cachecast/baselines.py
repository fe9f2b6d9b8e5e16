"""Comparison baselines: layered memory-sharing (scheme 1) and imported rates.

Scheme 1 splits the system into K nested sub-problems — sub-problem i serves
users 1..i with the cache headroom M_i - M_{i+1} and unicasts to the rest —
and optimizes the file share beta_i given to each sub-problem.  Each
sub-problem's rate is convex and piecewise linear in its share, so the exact
optimum follows from sorting the pieces by slope; see ``scheme1_optimize``.

Rates produced by schemes we do not implement (e.g. the exponential-size
linear program for uncoded-placement/linear-delivery systems) are imported
from a plain-text table and attached to comparison output as-is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .core import Rational, parse_rational
from .equal_cache import rate_eq

CachePoint = tuple[int, int, int, Rational, Rational]  # (N, K, L, Mhat, M)


@dataclass(frozen=True)
class BetaAllocation:
    """File shares given to the K layered sub-problems; non-negative, sum 1."""

    beta: tuple[Rational, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", tuple(Fraction(b) for b in self.beta))
        if any(b < 0 for b in self.beta):
            raise ValueError("beta components must be non-negative")
        if sum(self.beta) != 1:
            raise ValueError(f"beta must sum to 1, got {sum(self.beta)}")


def _cache_gaps(M_sorted: Sequence, N: int, K: int) -> list[Fraction]:
    """Headroom M_i - M_{i+1} of each sub-problem i, with M_{K+1} = 0."""
    M = [Fraction(x) for x in M_sorted]
    if K > N:
        raise ValueError(f"unsupported regime K > N (K={K}, N={N})")
    if len(M) != K:
        raise ValueError(f"cache vector must have length K={K}")
    if any(M[i] < M[i + 1] for i in range(K - 1)):
        raise ValueError("cache vector must be sorted in descending order")
    if M and (M[-1] < 0 or M[0] > N):
        raise ValueError("cache sizes must lie in [0, N]")
    return [a - b for a, b in zip(M, M[1:] + [Fraction(0)])]


def _layer_cost(N: int, K: int, i: int, gap: Rational, b: Rational) -> Rational:
    """Rate of sub-problem i with file share b and cache headroom gap.

    A zero share costs nothing, its gap left as unused cache (the limit of
    ever smaller shares), and a per-user cache above N is clamped to N.
    """
    if b == 0:
        return Fraction(0)
    return b * rate_eq(N, i, min(gap / b, Fraction(N))) + b * (K - i)


def scheme1_rate_at(
    beta: BetaAllocation | Sequence, N: int, K: int, M_sorted: Sequence
) -> Rational:
    """Sum rate of the K layered sub-problems under one beta allocation."""
    if not isinstance(beta, BetaAllocation):
        beta = BetaAllocation(tuple(beta))
    gaps = _cache_gaps(M_sorted, N, K)
    return sum(_layer_cost(N, K, i + 1, gaps[i], beta.beta[i]) for i in range(K))


def scheme1_optimize(
    N: int, K: int, M_sorted: Sequence
) -> tuple[BetaAllocation, Rational]:
    """The exact scheme-1 optimum and a beta allocation attaining it.

    Each sub-problem's cost is convex and piecewise linear in its share b,
    with breakpoints where its cache gap/b crosses a multiple of N/i, that is
    at b = gap*i/(t*N) for t = 1..i.  So the problem is a separable convex
    program over the simplex: cut every cost at its breakpoints in [0, 1] and
    hand out the unit of file mass to the pieces in order of slope.  Ties go
    to the lower layer, which keeps the result deterministic.
    """
    gaps = _cache_gaps(M_sorted, N, K)
    pieces = []
    for i in range(1, K + 1):
        gap = gaps[i - 1]
        cuts = sorted({Fraction(0), Fraction(1)} | {
            b for t in range(1, i + 1) if 0 < (b := gap * i / (t * N)) < 1
        })
        costs = [_layer_cost(N, K, i, gap, b) for b in cuts]
        for lo, hi, c_lo, c_hi in zip(cuts, cuts[1:], costs, costs[1:]):
            pieces.append(((c_hi - c_lo) / (hi - lo), i, lo, hi))
    beta = [Fraction(0)] * K
    left = Fraction(1)
    for _, i, lo, hi in sorted(pieces):
        take = min(hi - lo, left)
        beta[i - 1] += take
        left -= take
        if left == 0:
            break
    alloc = BetaAllocation(tuple(beta))
    return alloc, scheme1_rate_at(alloc, N, K, M_sorted)


def import_external_rates(path: str | Path) -> dict[CachePoint, Rational]:
    """Load externally computed rates from 'N,K,L,Mhat,M,rate' rows.

    Rationals are accepted as 'p/q' or decimals; '#' starts a comment.
    A malformed row raises with its line number.
    """
    table: dict[CachePoint, Rational] = {}
    text = Path(path).read_text()
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
        table[(N, K, L, mhat, m)] = rate
    return table
