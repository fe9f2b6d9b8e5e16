"""The integer rate layer against the fraction-by-fraction algorithms it replaced.

``rate_eq``, ``unequal_params`` and ``scheme1_optimize`` sum integer
numerators over one common denominator, and ``rate_ueq`` is one expression
split at gamma, as the build is.  The references below are the direct
forms: the binomial-ratio ``rate_eq``, ``unequal_params`` term by term, the
paper's two-level rate case by case, and the scheme-1 optimiser that
evaluates every layer's cost at every cut and takes slopes as differences.
They must agree exactly, value and type, on random rational points
(derandomized) and on the edges: M = 0, M = N, integer t, t = K-1, zero
cache gaps, and a gap of N.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecast.baselines import scheme1_optimize, scheme1_rate_at
from cachecast.core import binom
from cachecast.equal_cache import equal_params, rate_eq
from cachecast.unequal import UnequalConfig, rate_ueq, unequal_params

PROFILE = settings(derandomize=True, max_examples=150, deadline=None, database=None)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def ref_levels(N, K, M):
    """(t, t_int, alpha) of the equal-cache scheme, straight from t = K*M/N."""
    t = Fraction(K, N) * Fraction(M)
    t_int = math.floor(t)
    return t, t_int, t_int + 1 - t


def ref_rate_eq(N, K, M):
    _, ti, alpha = ref_levels(N, K, M)
    rate = alpha * Fraction(binom(K, ti + 1), binom(K, ti))
    if alpha != 1:
        rate += (1 - alpha) * Fraction(binom(K, ti + 2), binom(K, ti + 1))
    return rate


def ref_unequal_params(cfg):
    """(F', occupied, R', M', Phi, gamma), each term its own fraction."""
    N, K, L = cfg.N, cfg.K, cfg.L
    _, ti, aw = ref_levels(N, K, cfg.M)
    bw = 1 - aw
    fprime = aw * Fraction(binom(L, ti), binom(K, ti))
    occupied = aw * Fraction(binom(L - 1, ti - 1), binom(K, ti)) * N
    rprime = aw * Fraction(binom(L, ti + 1), binom(K, ti))
    if bw:
        fprime += bw * Fraction(binom(L, ti + 1), binom(K, ti + 1))
        occupied += bw * Fraction(binom(L - 1, ti), binom(K, ti + 1)) * N
        rprime += bw * Fraction(binom(L, ti + 2), binom(K, ti + 1))
    mprime = phi = gamma = None
    if fprime:
        mprime = (occupied + cfg.Mhat - cfg.M) / fprime
        if mprime > N:
            phi = cfg.M - occupied + N * fprime
            gamma = Fraction(N - cfg.Mhat, N - phi)
    return fprime, occupied, rprime, mprime, phi, gamma


def ref_rate_ueq(cfg):
    """The paper's rate case by case: an empty pool, scenario 1, scenario 2."""
    N, K, L, M = cfg.N, cfg.K, cfg.L, cfg.M
    fprime, _, rprime, mprime, _, gamma = ref_unequal_params(cfg)
    base = ref_rate_eq(N, K, M)
    if not fprime:
        return base
    if gamma is None:
        return base - rprime + fprime * ref_rate_eq(N, L, mprime)
    return gamma * (base - rprime) + (1 - gamma) * ref_rate_eq(N, K - L, M)


def ref_layer_cost(N, K, i, gap, b):
    if b == 0:
        return Fraction(0)
    return b * ref_rate_eq(N, i, min(gap / b, Fraction(N))) + b * (K - i)


def ref_scheme1_optimize(N, K, caches):
    """Cut every layer's cost at g*i/(t*N), take each piece's slope as a
    difference of costs, and hand out the file in order of slope."""
    M = [Fraction(x) for x in caches]
    gaps = [a - b for a, b in zip(M, M[1:] + [Fraction(0)])]
    pieces = []
    for i in range(1, K + 1):
        gap = gaps[i - 1]
        cuts = sorted({Fraction(0), Fraction(1)} | {
            b for t in range(1, i + 1) if 0 < (b := gap * i / (t * N)) < 1
        })
        costs = [ref_layer_cost(N, K, i, gap, b) for b in cuts]
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
    rate = sum(ref_layer_cost(N, K, i + 1, gaps[i], beta[i]) for i in range(K))
    return tuple(beta), rate


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


@st.composite
def equal_points(draw, k_min=1):
    K = draw(st.integers(k_min, 7))
    N = draw(st.integers(K, 12))
    q = draw(st.integers(1, 12))
    M = draw(st.sampled_from([Fraction(0), Fraction(N)])
             | st.builds(Fraction, st.integers(0, N * q), st.just(q)))
    return N, K, M


@st.composite
def configs(draw):
    N, K, M = draw(equal_points(k_min=2))
    q = draw(st.integers(1, 12))
    Mhat = draw(st.sampled_from([M, Fraction(N)])
                | st.builds(Fraction, st.integers(math.ceil(M * q), N * q), st.just(q)))
    return UnequalConfig(N, K, draw(st.integers(1, K - 1)), Mhat, M)


@st.composite
def cache_vectors(draw):
    """(N, K, caches): descending caches, often with equal neighbours
    (zero gaps) and the ends 0 and N."""
    K = draw(st.integers(1, 6))
    N = draw(st.integers(K, 10))
    q = draw(st.integers(1, 12))
    size = st.sampled_from([Fraction(0), Fraction(N)]) | st.builds(
        Fraction, st.integers(0, N * q), st.just(q))
    values = draw(st.lists(size, min_size=1, max_size=K))
    caches = [draw(st.sampled_from(values)) for _ in range(K)]
    return N, K, sorted(caches, reverse=True)


# the edges by name: (N, K, M) for the equal-cache layer
EQUAL_EDGES = [
    (4, 4, Fraction(0)),                   # M = 0
    (4, 4, Fraction(4)),                   # M = N, t = K
    (6, 3, Fraction(4)),                   # integer t = 2 = K-1
    (6, 3, Fraction(9, 2)),                # t = 9/4 in (K-1, K)
    (7, 1, Fraction(5, 3)),                # one user
    (12, 7, Fraction(11)),                 # t = 77/12, t_int = K-1
]

CACHE_EDGES = [
    (4, 4, [Fraction(0)] * 4),             # no cache: every gap zero
    (4, 4, [Fraction(4)] * 4),             # full caches: one gap of N
    (4, 4, [Fraction(4), Fraction(0), Fraction(0), Fraction(0)]),  # gap N at layer 1
    (5, 3, [Fraction(5), Fraction(5), Fraction(0)]),               # gap N at layer 2
    (4, 4, [Fraction(2)] * 3 + [Fraction(1)]),                     # zero gaps
    (10, 4, [Fraction(6), Fraction(6), Fraction(2), Fraction(2)]),  # the fig-5 shape
    (7, 5, [Fraction(7), Fraction(13, 2), Fraction(13, 2), Fraction(1, 3), Fraction(0)]),
]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_equal(N, K, M):
    t, ti, alpha = ref_levels(N, K, M)
    p = equal_params(N, K, M)
    assert (p.t, p.t_int, p.alpha) == (t, ti, alpha)
    assert repr(rate_eq(N, K, M)) == repr(ref_rate_eq(N, K, M))


def check_unequal(cfg):
    p = unequal_params(cfg)
    got = (p.Fprime, p.occupied, p.Rprime, p.Mprime, p.Phi, p.gamma)
    assert repr(got) == repr(ref_unequal_params(cfg))


def check_rate_ueq(cfg):
    assert repr(rate_ueq(cfg).rate) == repr(ref_rate_ueq(cfg))


def edge_configs(point):
    """Every L, and Mhat at M, halfway to N and N, at an equal-cache edge."""
    N, K, M = point
    return [UnequalConfig(N, K, L, Mhat, M)
            for L in range(1, K) for Mhat in (M, (M + N) / 2, Fraction(N))]


def check_scheme1(N, K, caches):
    alloc, rate = scheme1_optimize(N, K, caches)
    beta, ref_rate = ref_scheme1_optimize(N, K, caches)
    assert repr((alloc, rate)) == repr((beta, ref_rate))
    assert scheme1_rate_at(alloc, N, K, caches) == rate


@PROFILE
@given(equal_points())
def test_rate_eq_matches_binomial_form(point):
    check_equal(*point)


@PROFILE
@given(configs())
def test_unequal_params_matches_term_by_term(cfg):
    check_unequal(cfg)


@PROFILE
@given(configs())
def test_rate_ueq_matches_case_by_case(cfg):
    check_rate_ueq(cfg)


@PROFILE
@given(cache_vectors())
def test_scheme1_matches_cut_by_cut_optimiser(point):
    check_scheme1(*point)


@pytest.mark.parametrize("point", EQUAL_EDGES, ids=str)
def test_rate_eq_edges(point):
    check_equal(*point)


@pytest.mark.parametrize("point", EQUAL_EDGES, ids=str)
def test_unequal_params_edges(point):
    for cfg in edge_configs(point):
        check_unequal(cfg)


@pytest.mark.parametrize("point", EQUAL_EDGES, ids=str)
def test_rate_ueq_edges(point):
    for cfg in edge_configs(point):
        check_rate_ueq(cfg)


@pytest.mark.parametrize("point", CACHE_EDGES, ids=str)
def test_scheme1_edges(point):
    check_scheme1(*point)
