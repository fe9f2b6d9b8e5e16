"""The paper's comparison as exact properties over random rational points.

The proposed scheme's rate lies between two equal-cache systems, one where
every user holds the large cache Mhat and one where every user holds the
small cache M, and it is never above scheme 1, the explicit scheme the paper
improves upon.  Points (N, K, L, Mhat, M) have K <= 10, N <= K + 6 and cache
sizes whose denominators are at most 50.  And the placement fills every
cache exactly: users 1..L cache Mhat (M when the pool is empty, so that the
extra cache has no use) and users L+1..K cache M, at K <= 7, N <= K + 4 and
denominators at most 9.  Rates and placements only: nothing here loads the
simulator.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cachecast.equal_cache import rate_eq
from cachecast.unequal import (
    SchemeInstance, UnequalConfig, build_two_stage, unequal_params,
)

PROFILE = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def points(draw, k_max=10, n_extra=6, q_max=50):
    K = draw(st.integers(2, k_max))
    N = draw(st.integers(K, K + n_extra))
    L = draw(st.integers(1, K - 1))
    q = draw(st.integers(1, q_max))
    M = Fraction(draw(st.integers(0, N * q)), q)
    q = draw(st.integers(1, q_max))
    Mhat = Fraction(draw(st.integers(math.ceil(M * q), N * q)), q)
    return N, K, L, Mhat, M


@PROFILE
@given(points())
def test_proposed_between_equal_caches_and_at_most_scheme1(point):
    N, K, L, Mhat, M = point
    proposed, scheme1 = (SchemeInstance(scheme, N, K, M, L=L, Mhat=Mhat).formula_rate
                         for scheme in ("proposed", "scheme1"))
    assert rate_eq(N, K, Mhat) <= proposed <= min(rate_eq(N, K, M), scheme1)


@PROFILE
@given(points(k_max=7, n_extra=4, q_max=9))
def test_caches_fill_exactly(point):
    N, K, L, Mhat, M = point
    cfg = UnequalConfig(N, K, L, Mhat, M)
    placement = build_two_stage(cfg).placement
    large = M if unequal_params(cfg).pool_empty else Mhat
    loads = [placement.user_load(user) for user in range(1, K + 1)]
    assert loads == [large] * L + [M] * (K - L)
