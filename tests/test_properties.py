"""Property tests over random rational parameter points of the proposed scheme.

Points (N, K, L, Mhat, M) have K <= 5, N <= 8 (K <= 7, N <= 10 for the
demand-set verdict) and cache sizes whose denominators are at most 9.  Every
test runs under one fixed profile: derandomized, so each run draws the same
examples, with a bounded example count and no per-example deadline.
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cachecast.equal_cache import rate_eq
from cachecast.simulator import (
    SchemeInstance, decode_all, execute_delivery, materialize, required_bits,
    verify_demands,
)
from cachecast.unequal import UnequalConfig, rate_ueq, unequal_params

from views import bound_parts, lcm_denominators, read_bits

PROFILE = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def systems(draw, k_max=5, n_max=8):
    """(N, K, L, M): everything but the large cache size."""
    K = draw(st.integers(2, k_max))
    N = draw(st.integers(K, n_max))
    L = draw(st.integers(1, K - 1))
    q = draw(st.integers(1, 9))
    M = Fraction(draw(st.integers(0, N * q)), q)
    return N, K, L, M


@st.composite
def points(draw, k_max=5, n_max=8):
    N, K, L, M = draw(systems(k_max, n_max))
    q = draw(st.integers(1, 9))
    Mhat = Fraction(draw(st.integers(math.ceil(M * q), N * q)), q)
    return N, K, L, Mhat, M


def instance(point) -> SchemeInstance:
    N, K, L, Mhat, M = point
    return SchemeInstance("proposed", N, K, M, L=L, Mhat=Mhat)


def repeated_file_demand(data, inst) -> tuple[int, ...]:
    """A random demand whose last user wants a file another user wants."""
    head = data.draw(st.lists(st.integers(1, inst.N), min_size=inst.K - 1,
                              max_size=inst.K - 1))
    return (*head, data.draw(st.sampled_from(head)))


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
def test_integer_units_read_as_fractions(point):
    """The bit size from the integer offsets is the lcm of every segment's
    denominators, and a user's load is the fraction sum of its subfiles."""
    inst = instance(point)
    placement = inst.placement
    plan = inst.plan(tuple(range(1, inst.K + 1)))
    unit = placement.unit
    fracs = [Fraction(x, unit) for sf in placement.layout for x in (sf.a, sf.n)]
    fracs += [x for tx in bound_parts(plan) for _, start, length, _ in tx
              for x in (start, length)]
    assert required_bits(placement, plan) == lcm_denominators(fracs)
    for user in range(1, inst.K + 1):
        assert placement.user_load(user) == sum(
            (Fraction(sf.n, unit) for sf in placement.subfiles if user in sf.owners),
            Fraction(0))


@PROFILE
@given(points(), st.data())
def test_every_distinct_demand_decodes(point, data):
    """Every distinct demand passes verification, and one demand with a
    repeated file decodes on its own plan."""
    inst = instance(point)
    reports = verify_demands(inst, mode="distinct")
    assert len(reports) == math.perm(inst.N, inst.K)
    assert all(r.passed for r in reports)

    d = repeated_file_demand(data, inst)
    plan = inst.plan(d)
    store, caches = materialize(inst.placement, plan)
    log = execute_delivery(store, plan)
    assert decode_all(caches, log, d, plan, store, inst.formula_rate).passed


@PROFILE
@given(points(), st.data())
def test_payloads_read_each_target_s_file(point, data):
    """Under a demand with a repeated file, every payload is the XOR, over
    the template's parts, of store row d[target] - 1 at the part's bits."""
    inst = instance(point)
    d = repeated_file_demand(data, inst)
    plan = inst.plan(d)
    store, _ = materialize(inst.placement, plan, seed=data.draw(st.integers(0, 2**16)))
    log = execute_delivery(store, plan)
    F = store.F_bits
    txs = bound_parts(plan)
    assert len(log.payloads) == len(txs)
    for tx, payload, width in zip(txs, log.payloads, log.widths):
        expect = 0
        for _, start, length, target in tx:
            a, b = start * F, (start + length) * F
            assert a.denominator == b.denominator == 1 and b - a == width
            expect ^= read_bits(store, d[target - 1], int(a), int(b))
        assert payload == expect


@PROFILE
@given(points(k_max=7, n_max=10))
def test_verdict_counts_every_distinct_demand(point):
    """Up to N!/(N-K)! = 10!/3! = 604,800 distinct demands, counted rather
    than listed, all under one passing verdict."""
    N, K = point[:2]
    verdict = verify_demands(instance(point), mode="distinct")
    assert len(verdict) == math.perm(N, K)
    assert verdict.passed


@PROFILE
@given(systems())
def test_rate_is_continuous_at_phi(system):
    """At Mhat = Phi scenario 1 meets scenario 2: M' = N, the pool delivery
    vanishes, and the rate is the scenario-2 formula at gamma = 1."""
    N, K, L, M = system
    Phi = unequal_params(UnequalConfig(N, K, L, N, M)).Phi
    assume(Phi is not None and M <= Phi <= N)
    cfg = UnequalConfig(N, K, L, Phi, M)
    rep = rate_ueq(cfg)
    assert rep.scenario == 1 and rep.Mprime == N
    assert rep.rate == rate_eq(N, K, M) - rep.Rprime
    reports = verify_demands(instance((N, K, L, Phi, M)), mode="distinct")
    assert len(reports) == math.perm(N, K)
    assert all(r.passed for r in reports)
