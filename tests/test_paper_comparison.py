"""The paper's comparison as an exact property over random rational points.

The proposed scheme's rate lies between two equal-cache systems, one where
every user holds the large cache Mhat and one where every user holds the
small cache M, and it is never above scheme 1, the explicit scheme the paper
improves upon.  Points (N, K, L, Mhat, M) have K <= 10, N <= K + 6 and cache
sizes whose denominators are at most 50.  Rates only: nothing here loads
the simulator.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cachecast.equal_cache import rate_eq
from cachecast.unequal import SchemeInstance

PROFILE = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def points(draw):
    K = draw(st.integers(2, 10))
    N = draw(st.integers(K, K + 6))
    L = draw(st.integers(1, K - 1))
    q = draw(st.integers(1, 50))
    M = Fraction(draw(st.integers(0, N * q)), q)
    q = draw(st.integers(1, 50))
    Mhat = Fraction(draw(st.integers(math.ceil(M * q), N * q)), q)
    return N, K, L, Mhat, M


@PROFILE
@given(points())
def test_proposed_between_equal_caches_and_at_most_scheme1(point):
    N, K, L, Mhat, M = point
    proposed, scheme1 = (SchemeInstance(scheme, N, K, M, L=L, Mhat=Mhat).formula_rate
                         for scheme in ("proposed", "scheme1"))
    assert rate_eq(N, K, Mhat) <= proposed <= min(rate_eq(N, K, M), scheme1)
