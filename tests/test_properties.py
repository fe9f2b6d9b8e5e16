"""Property tests over random rational parameter points of the proposed scheme.

Points (N, K, L, Mhat, M) have K <= 5, N <= 8 and cache sizes whose
denominators are at most 9.  Every test runs under one fixed profile:
derandomized, so each run draws the same examples, with a bounded example
count and no per-example deadline.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cachecast.simulator import SchemeInstance, verify_demands
from cachecast.unequal import UnequalConfig, rate_ueq

PROFILE = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def points(draw):
    K = draw(st.integers(2, 5))
    N = draw(st.integers(K, 8))
    L = draw(st.integers(1, K - 1))
    q = draw(st.integers(1, 9))
    M = Fraction(draw(st.integers(0, N * q)), q)
    q = draw(st.integers(1, 9))
    Mhat = Fraction(draw(st.integers(math.ceil(M * q), N * q)), q)
    return N, K, L, Mhat, M


def instance(point) -> SchemeInstance:
    N, K, L, Mhat, M = point
    return SchemeInstance("proposed", N, K, M, L=L, Mhat=Mhat)


@PROFILE
@given(points())
def test_plan_load_equals_formula_rate(point):
    inst = instance(point)
    plan = inst.plan(tuple(range(1, inst.K + 1)))
    assert plan.total_load == rate_ueq(UnequalConfig(*point)).rate


@PROFILE
@given(points())
def test_cache_loads_within_budget(point):
    N, K, L, Mhat, M = point
    placement = instance(point).placement
    for user in range(1, K + 1):
        assert placement.user_load(user) <= (Mhat if user <= L else M)


@PROFILE
@given(points())
def test_every_distinct_demand_decodes(point):
    inst = instance(point)
    reports = verify_demands(inst, mode="distinct")
    assert len(reports) == math.perm(inst.N, inst.K)
    assert all(r.passed for r in reports)
