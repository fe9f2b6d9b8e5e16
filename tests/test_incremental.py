import math
from fractions import Fraction

import pytest

from cachecast.core import users_range
from cachecast.equal_cache import Placement, equal_placement, sharing_level, window_unit
from cachecast.incremental import refine_pool, split_factor
from cachecast.unequal import UnequalConfig, unequal_params

from test_golden_geometry import _grid
from views import user_intervals


def content_sets(placement, user):
    """Per-user multiset of (file, merged owner set, total length)."""
    totals = {}
    for sf in placement.subfiles:
        if user in sf.owners:
            key = (sf.file, sf.owners)
            totals[key] = totals.get(key, 0) + sf.n
    return {(f, o, Fraction(n, placement.unit)) for (f, o), n in totals.items()}


def refinable(N, K, M, pool, level):
    """``equal_placement(N, K, M)`` in the unit ``unequal.build_two_stage``
    fixes for refining ``pool`` to ``level``, stage 1's unit times the
    ``split_factor``: ``refine_pool`` cuts in the unit it is given."""
    stage1 = sharing_level(N, K, M)
    unit = window_unit(K, stage1) * split_factor(len(pool), stage1[0], level)
    return equal_placement(N, K, M, unit=unit)


def step_base(N, K, t):
    """The integer-t placement, laid out for one refinement step t -> t + 1."""
    return refinable(N, K, Fraction(t * N, K), users_range(K), (t + 1, 1, 1))


def refine_step(placement, t):
    """One refinement step of a t-placement over all K users: t -> t + 1."""
    refined, _ = refine_pool(placement, users_range(placement.K), (t + 1, 1, 1))
    return refined


class TestRefinePlacement:
    @pytest.mark.parametrize("N,K,t", [(3, 3, 1), (4, 4, 2), (4, 4, 1), (5, 5, 3)])
    def test_merge_equivalence(self, N, K, t):
        refined = refine_step(step_base(N, K, t), t)
        direct = equal_placement(N, K, Fraction((t + 1) * N, K))
        for user in range(1, K + 1):
            assert content_sets(refined, user) == content_sets(direct, user)

    def test_nondestructive(self):
        base = step_base(3, 3, 1)
        refined = refine_step(base, 1)
        for user in range(1, 4):
            before = user_intervals(base, user)
            after = user_intervals(refined, user)
            for file, ivs in before.items():
                covered = after.get(file, [])
                for start, stop in ivs:
                    assert any(a <= start and stop <= b for a, b in covered)

    def test_added_bytes_per_user(self):
        # refinement adds N/K per unit file to every cache
        N, K, t = 4, 4, 1
        base = step_base(N, K, t)
        refined = refine_step(base, t)
        for user in range(1, K + 1):
            assert refined.user_load(user) - base.user_load(user) == Fraction(N, K)

    def test_single_part_at_t_K_minus_1(self):
        base = step_base(3, 3, 2)
        refined = refine_step(base, 2)
        # each subfile splits into exactly one part, same geometry
        assert refined.unit == base.unit
        assert {(sf.a, sf.n) for sf in refined.subfiles} == {
            (sf.a, sf.n) for sf in base.subfiles
        }

    def test_nothing_to_refine_at_t_K(self):
        base = equal_placement(3, 3, 3)
        with pytest.raises(ValueError, match="nothing to refine"):
            refine_pool(base, users_range(3), (3, 1, 2))

    def test_empty_pool_refused(self):
        # at t = 2 no subfile is owned inside the pool {1}
        with pytest.raises(ValueError, match="^empty pool: no subfile is owned "
                                             "entirely inside the pool$"):
            refine_pool(equal_placement(4, 4, 2), (1,), (1, 1, 1))

    def test_levels_not_consecutive_refused(self):
        # owner sets of sizes 1 and 3 are no memory-sharing placement
        low = equal_placement(4, 4, 1, window=(0, 1, 2))
        high = equal_placement(4, 4, 3, window=(1, 1, 2))
        mixed = Placement(4, 4, low.unit, low.blocks + high.blocks)
        with pytest.raises(ValueError, match=r"^pool is not a memory-sharing "
                                             r"placement, levels \[1, 3\]$"):
            refine_pool(mixed, users_range(4), (3, 1, 1))

    @pytest.mark.parametrize("t2_int,alpha2", [
        (4, Fraction(1)), (-1, Fraction(1)), (2, Fraction(0)), (2, Fraction(3, 2)),
    ])
    def test_target_outside_the_pool_refused(self, t2_int, alpha2):
        a2, D2 = alpha2.numerator, alpha2.denominator
        with pytest.raises(ValueError, match=rf"^invalid refinement target "
                                             rf"\({t2_int}, {a2}, {D2}\)$"):
            refine_pool(equal_placement(4, 4, 1), (1, 2, 3), (t2_int, a2, D2))

    def test_a_level_with_no_denominator_refused(self):
        # the refusal prints the level's integers: a Fraction of 0/0 would raise
        with pytest.raises(ValueError, match=r"^invalid refinement target \(2, 0, 0\)$"):
            refine_pool(equal_placement(4, 4, 1), (1, 2, 3), (2, 0, 0))


class TestRefinePool:
    def test_piece_assignment_is_deterministic(self):
        # pool {1,2,3}, t=1 -> t'=2: the first half of subfile {1} goes to
        # user 2, the second half to user 3, and so on cyclically
        base = refinable(4, 4, 1, (1, 2, 3), (2, 1, 1))
        refined, pool = refine_pool(base, (1, 2, 3), (2, 1, 1))

        def fractions(spans):
            return [(Fraction(a, base.unit), Fraction(n, base.unit)) for a, n in spans]

        segs12 = pool[(1, 2)]
        assert fractions(segs12) == [
            (Fraction(0), Fraction(1, 8)),      # first half of A_1
            (Fraction(1, 4), Fraction(1, 8)),   # first half of A_2
        ]
        segs13 = pool[(1, 3)]
        assert fractions(segs13) == [
            (Fraction(1, 8), Fraction(1, 8)),   # second half of A_1
            (Fraction(1, 2), Fraction(1, 8)),   # first half of A_3
        ]
        segs23 = pool[(2, 3)]
        assert fractions(segs23) == [
            (Fraction(3, 8), Fraction(1, 8)),   # second half of A_2
            (Fraction(5, 8), Fraction(1, 8)),   # second half of A_3
        ]

    def test_pool_merge_matches_direct_second_level(self):
        # merged pool subfiles carry F'/C(L, t') content each
        base = refinable(4, 4, 1, (1, 2, 3), (2, 1, 1))
        _, pool = refine_pool(base, (1, 2, 3), (2, 1, 1))
        assert {len(T) for T in pool} == {2}  # one level, t' = 2
        for segs in pool.values():  # (3/4) / C(3,2) each
            assert Fraction(sum(n for _, n in segs), base.unit) == Fraction(1, 4)

    def test_noop_when_target_is_current(self):
        base = equal_placement(4, 4, 1)
        refined, _ = refine_pool(base, (1, 2, 3), sharing_level(4, 4, 1))
        assert refined.unit == base.unit
        assert set(refined.subfiles) == set(base.subfiles)

    def test_budget_accounting_noninteger_target(self):
        # (N,K,L,Mhat,M) = (6,4,2,9/4,3/2): each pool user gains exactly 3/4
        cfg = UnequalConfig(6, 4, 2, Fraction(9, 4), Fraction(3, 2))
        params = unequal_params(cfg)
        second = sharing_level(6, 2, params.Mprime)
        base = refinable(6, 4, Fraction(3, 2), (1, 2), second)
        refined, _ = refine_pool(base, (1, 2), second)
        for user in (1, 2):
            gain = refined.user_load(user) - base.user_load(user)
            assert gain == Fraction(3, 4)
        for user in (3, 4):
            assert refined.user_load(user) == base.user_load(user)

    def test_cannot_shrink(self):
        base = equal_placement(4, 4, 1)
        with pytest.raises(ValueError, match="cannot shrink"):
            refine_pool(base, (1, 2, 3), (0, 1, 2))

    def test_multi_step_promotion(self):
        # t=1 placement refined to t'=3 over a pool of 3 users: two promotions
        base = refinable(4, 4, 1, (1, 2, 3), (3, 1, 1))
        refined, pool = refine_pool(base, (1, 2, 3), (3, 1, 1))
        assert set(pool) == {(1, 2, 3)}
        for segs in pool.values():
            assert Fraction(sum(n for _, n in segs), base.unit) == Fraction(3, 4)
        # every pool user now caches the entire pool of every file
        for user in (1, 2, 3):
            gain = refined.user_load(user) - base.user_load(user)
            assert gain == 2  # from M=1 to occupying 1 + 2 = 3F of cache

    def test_nondestructive_restricted(self):
        cfg = UnequalConfig(6, 4, 2, Fraction(9, 4), Fraction(3, 2))
        second = sharing_level(6, 2, unequal_params(cfg).Mprime)
        base = refinable(6, 4, Fraction(3, 2), (1, 2), second)
        refined, _ = refine_pool(base, (1, 2), second)
        for user in range(1, 5):
            before = user_intervals(base, user)
            after = user_intervals(refined, user)
            for file, ivs in before.items():
                covered = after.get(file, [])
                for start, stop in ivs:
                    assert any(a <= start and stop <= b for a, b in covered)


class TestRefineUnit:
    def test_a_unit_the_cuts_do_not_divide_raises(self):
        # the default unit 4 cuts each quarter into two eighths: nothing
        # rescales it to a finer unit
        with pytest.raises(ValueError, match="does not divide evenly"):
            refine_pool(equal_placement(4, 4, 1), (1, 2, 3), (2, 1, 1))

    def test_refined_in_the_unit_it_is_given(self):
        cfg = UnequalConfig(6, 4, 2, Fraction(9, 4), Fraction(3, 2))
        second = sharing_level(6, 2, unequal_params(cfg).Mprime)
        base = refinable(6, 4, Fraction(3, 2), (1, 2), second)
        refined, pool = refine_pool(base, (1, 2), second)
        assert refined.unit == base.unit
        # the pool's runs are integers in that unit, one per refined pool
        # subfile
        assert all(isinstance(x, int) for segs in pool.values() for run in segs
                   for x in run)
        assert sorted(run for segs in pool.values() for run in segs) == sorted(
            (sf.a, sf.n) for sf in refined.layout if set(sf.owners) <= {1, 2})


def grid_configs():
    """Every proposed point of the golden-geometry grid."""
    for inst in _grid():
        if inst.scheme == "proposed":
            yield UnequalConfig(inst.N, inst.K, inst.L, inst.Mhat, inst.M)


def grid_levels():
    """(N, K, M) of every level a grid build reads: stage 1's, the pool's
    at min(M', N) and the small users'."""
    for cfg in grid_configs():
        p = unequal_params(cfg)
        yield cfg.N, cfg.K, cfg.M
        yield cfg.N, cfg.K - cfg.L, cfg.M
        if not p.pool_empty:
            yield cfg.N, cfg.L, min(p.Mprime, cfg.N)


class TestLevels:
    def test_a_level_is_in_lowest_terms(self):
        # t = K*M/N = t_int + 1 - a/D, with a/D coprime and 0 < a <= D, so a
        # unit built from D is the one alpha's own denominator gives
        points = set(grid_levels())
        assert len(points) == 561
        for N, K, M in points:
            t_int, a, D = sharing_level(N, K, M)
            assert 0 < a <= D and math.gcd(a, D) == 1, (N, K, M)
            assert t_int + 1 - Fraction(a, D) == Fraction(K * M, N), (N, K, M)

    @pytest.mark.parametrize("k", [2, 3])
    def test_a_scaled_level_refines_to_the_same_content(self, k):
        # (t, k*a, k*D) is the level (t, a, D): its split factor is finer
        # when a < D, but the refinement lays out the same spans of F
        def refined(cfg, level):
            p = unequal_params(cfg)
            g, G = (1, 1) if p.gamma is None else (p.gamma.numerator, p.gamma.denominator)
            stage1 = sharing_level(cfg.N, cfg.K, cfg.M)
            unit = window_unit(cfg.K, stage1, (0, g, G)) * split_factor(
                cfg.L, stage1[0], level)
            placement = equal_placement(cfg.N, cfg.K, cfg.M, window=(0, g, G), unit=unit)
            out, pool = refine_pool(placement, cfg.large_users, level)
            layout = [(sf.layer, sf.stage1_set, sf.owners, Fraction(sf.a, unit),
                       Fraction(sf.n, unit)) for sf in out.layout]
            return layout, {T: [(Fraction(a, unit), Fraction(n, unit)) for a, n in spans]
                            for T, spans in pool.items()}

        checked = finer = 0
        for cfg in grid_configs():
            p = unequal_params(cfg)
            if p.pool_empty or p.gamma == 0:
                continue
            t, a, D = sharing_level(cfg.N, cfg.L, min(p.Mprime, cfg.N))
            assert refined(cfg, (t, k * a, k * D)) == refined(cfg, (t, a, D)), cfg
            checked, finer = checked + 1, finer + (a < D)
        assert (checked, finer) == (1588, 746)
