from fractions import Fraction

import pytest

from cachecast import unequal
from cachecast.baselines import scheme1_optimize
from cachecast.equal_cache import equal_placement, rate_eq
from cachecast.simulator import SchemeInstance
from cachecast.unequal import UnequalConfig, build_two_stage, rate_ueq, unequal_params

WORKED = UnequalConfig(4, 4, 3, 2, 1)


def quarter_grid(N):
    return [Fraction(q, 4) for q in range(0, 4 * N + 1)]


class TestUnequalParams:
    def test_worked_example(self):
        p = unequal_params(WORKED)
        assert p.Fprime == Fraction(3, 4)
        assert p.Mprime == Fraction(8, 3)
        assert p.Rprime == Fraction(3, 4)
        assert p.scenario == 1

    def test_scenario_boundary(self):
        p = unequal_params(UnequalConfig(4, 4, 3, 3, 1))
        assert p.Mprime == 4
        assert p.scenario == 1

    def test_scenario_two(self):
        p = unequal_params(UnequalConfig(4, 4, 3, 4, 1))
        assert p.scenario == 2
        assert p.Phi == 3
        assert p.gamma == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            UnequalConfig(4, 4, 4, 2, 1)  # L = K
        with pytest.raises(ValueError):
            UnequalConfig(4, 4, 0, 2, 1)  # L < 1
        with pytest.raises(ValueError):
            UnequalConfig(4, 4, 2, 1, 2)  # Mhat < M
        with pytest.raises(ValueError):
            UnequalConfig(4, 4, 2, 5, 1)  # Mhat > N
        with pytest.raises(ValueError):
            UnequalConfig(3, 4, 2, 2, 1)  # K > N

    def test_empty_pool_when_t_exceeds_pool(self):
        p = unequal_params(UnequalConfig(4, 4, 1, 4, 3))  # t = 3 > L = 1
        assert p.pool_empty
        assert p.Fprime == 0
        assert p.Mprime is None
        assert p.Rprime == 0


class TestRateUeq:
    def test_worked_example(self):
        assert rate_ueq(WORKED).rate == 1

    def test_degenerate_equal_caches(self):
        assert rate_ueq(UnequalConfig(4, 4, 3, 1, 1)).rate == rate_eq(4, 4, 1)

    def test_scenario_two_full_large_caches(self):
        # large users hold everything; one cache-F user remains
        assert rate_ueq(UnequalConfig(4, 4, 3, 4, 1)).rate == rate_eq(4, 1, 1)

    @pytest.mark.parametrize("N,K", [(4, 3), (4, 4), (6, 4)])
    def test_degenerate_limit_over_grid(self, N, K):
        for L in range(1, K):
            for M in quarter_grid(N):
                assert rate_ueq(UnequalConfig(N, K, L, M, M)).rate == rate_eq(N, K, M)

    @pytest.mark.parametrize("N,K,L", [(4, 4, 2), (5, 3, 1), (6, 4, 3)])
    def test_extra_cache_never_hurts(self, N, K, L):
        for M in quarter_grid(N)[::2]:
            base = rate_eq(N, K, M)
            prev = None
            for Mhat in quarter_grid(N)[::2]:
                if Mhat < M:
                    continue
                r = rate_ueq(UnequalConfig(N, K, L, Mhat, M)).rate
                assert r <= base
                if prev is not None:
                    assert r <= prev
                prev = r

    @pytest.mark.parametrize("N,K,L", [(4, 4, 2), (4, 4, 3), (6, 4, 2), (5, 3, 2)])
    def test_scenario_boundary_continuity(self, N, K, L):
        for M in quarter_grid(N):
            p = unequal_params(UnequalConfig(N, K, L, max(M, Fraction(0)), M))
            if p.pool_empty or p.Phi is not None:
                continue
            # Phi depends only on (N, K, L, M); evaluate it via a scenario-2 point
            hi = unequal_params(UnequalConfig(N, K, L, N, M))
            if hi.scenario != 2:
                continue
            phi = hi.Phi
            if phi > N or phi < M:
                continue
            at_phi = rate_ueq(UnequalConfig(N, K, L, phi, M))
            assert at_phi.scenario == 1
            assert at_phi.Mprime == N
            gamma_one = rate_eq(N, K, M) - hi.Rprime
            assert at_phi.rate == gamma_one

    def test_report_carries_intermediates(self):
        rep = rate_ueq(WORKED)
        assert rep.scheme == "proposed"
        assert (rep.t, rep.t_int, rep.alpha) == (1, 1, 1)
        assert rep.Fprime == Fraction(3, 4)
        assert rep.scenario == 1
        assert rep.Phi is None


class TestTwoStagePlacement:
    def test_worked_example_caches(self):
        pl = build_two_stage(WORKED).placement
        # user 1: stage 1 gives the first quarter of every file; stage 2 adds
        # the first halves of quarters 2 and 3 (A'_2, A'_3 and friends)
        ivs = pl.user_intervals(1)
        expect = [
            (Fraction(0), Fraction(3, 8)),
            (Fraction(1, 2), Fraction(5, 8)),
        ]
        for file in range(1, 5):
            assert ivs[file] == expect
        for user in (1, 2, 3):
            assert pl.user_load(user) == 2
        assert pl.user_load(4) == 1

    def test_degenerate_matches_equal_placement(self):
        pl = build_two_stage(UnequalConfig(4, 4, 3, 1, 1)).placement
        assert set(pl.subfiles) == set(equal_placement(4, 4, 1).subfiles)

    def test_one_file_layout_does_not_grow_with_N(self):
        # every file is laid out alike, so only the expansion scales with N
        ctxs = {
            N: build_two_stage(UnequalConfig(N, 5, 2, Fraction(N, 2), Fraction(N, 5)))
            for N in (5, 80)
        }
        assert ctxs[5].placement.blocks == ctxs[80].placement.blocks
        for N, ctx in ctxs.items():
            assert len(ctx.placement.layout) == 9
            assert len(ctx.placement.subfiles) == 9 * N
            assert len(ctx.template.transmissions) == 15

    def test_refined_placement_has_no_stage1_content(self):
        # refinement scatters stage-1 subfiles, so a key no longer names one
        with pytest.raises(ValueError, match="scattered"):
            build_two_stage(WORKED).placement.stage1_content

    def test_budget_exact(self):
        cfg = UnequalConfig(6, 4, 2, 3, Fraction(3, 2))
        pl = build_two_stage(cfg).placement
        for user in (1, 2):
            assert pl.user_load(user) == 3
        for user in (3, 4):
            assert pl.user_load(user) == Fraction(3, 2)

    @pytest.mark.parametrize(
        "cfg",
        [
            UnequalConfig(4, 4, 2, Fraction(5, 2), Fraction(1, 2)),
            UnequalConfig(5, 4, 2, Fraction(15, 4), Fraction(5, 4)),  # scenario 2
            UnequalConfig(4, 3, 1, 3, Fraction(3, 4)),
            UnequalConfig(6, 4, 3, Fraction(23, 4), Fraction(1, 4)),
        ],
    )
    def test_budget_over_scenarios(self, cfg):
        pl = build_two_stage(cfg).placement
        for user in cfg.large_users:
            assert pl.user_load(user) == cfg.Mhat
        for user in cfg.small_users:
            assert pl.user_load(user) == cfg.M

    def test_empty_pool_keeps_stage_one(self):
        cfg = UnequalConfig(4, 4, 1, 4, 3)
        pl = build_two_stage(cfg).placement
        assert set(pl.subfiles) == set(equal_placement(4, 4, 3).subfiles)

    def test_scenario_two_large_users_cache_everything_on_rest_share(self):
        cfg = UnequalConfig(4, 4, 3, 4, 1)  # gamma = 0: rest share is the file
        pl = build_two_stage(cfg).placement
        for user in (1, 2, 3):
            assert pl.user_intervals(user)[1] == [(Fraction(0), Fraction(1))]
            assert pl.user_load(user) == 4


class TestTwoStageDelivery:
    def test_worked_example_structure(self):
        plan = build_two_stage(WORKED).plan((1, 2, 3, 4))
        assert plan.total_load == 1
        pairs = [tx for tx in plan.transmissions if len(tx.parts) == 2]
        triples = [tx for tx in plan.transmissions if len(tx.parts) == 3]
        assert len(pairs) == 3 and len(triples) == 2
        assert all(4 in {p.target for p in tx.parts} for tx in pairs)

    def test_degenerate_matches_equal_plan(self):
        cfg = UnequalConfig(4, 4, 3, 1, 1)
        plan = build_two_stage(cfg).plan((1, 2, 3, 4))
        eq_plan = SchemeInstance("equal", 4, 4, 1).plan((1, 2, 3, 4))
        assert set(plan.transmissions) == set(eq_plan.transmissions)

    def test_demand_validation(self):
        with pytest.raises(ValueError, match="demand"):
            build_two_stage(WORKED).plan((1, 2, 3, 9))

    @pytest.mark.parametrize(
        "cfg",
        [
            WORKED,
            UnequalConfig(4, 4, 2, Fraction(5, 2), Fraction(1, 2)),
            UnequalConfig(4, 4, 3, Fraction(7, 2), 1),  # scenario 2, gamma = 1/2
            UnequalConfig(6, 4, 2, Fraction(9, 4), Fraction(3, 2)),
            UnequalConfig(4, 4, 1, 4, 3),  # empty pool
        ],
    )
    def test_plan_load_equals_formula(self, cfg):
        ctx = build_two_stage(cfg)
        d = tuple(range(1, cfg.K + 1))
        assert ctx.plan(d).total_load == rate_ueq(cfg).rate

    def test_all_demand_vectors_constant_load(self):
        ctx = build_two_stage(WORKED)
        from itertools import product

        loads = {
            ctx.plan(d).total_load for d in product(range(1, 5), repeat=4)
        }
        assert loads == {Fraction(1)}


class TestSchemeInstance:
    def test_report_per_scheme(self):
        caches = [Fraction(2)] * 3 + [Fraction(1)]
        expected = {
            "equal": rate_eq(4, 4, 1),
            "proposed": rate_ueq(WORKED).rate,
            "scheme1": scheme1_optimize(4, 4, caches)[1],
        }
        for scheme, rate in expected.items():
            inst = unequal.SchemeInstance(scheme, 4, 4, Fraction(1), 3, Fraction(2))
            assert inst.report.scheme == scheme
            assert inst.formula_rate == inst.report.rate == rate

    def test_scheme1_has_a_rate_only(self):
        inst = unequal.SchemeInstance("scheme1", 4, 4, Fraction(1), 3, Fraction(2))
        with pytest.raises(ValueError, match="rate only"):
            inst.placement
        with pytest.raises(ValueError, match="rate only"):
            inst.plan((1, 2, 3, 4))

    @pytest.mark.parametrize("scheme,L,message", [
        ("bogus", 3, "unknown scheme 'bogus'"),
        ("proposed", None, "scheme proposed needs --L and --Mhat"),
        ("scheme1", None, "scheme scheme1 needs --L and --Mhat"),
    ])
    def test_checked_when_built(self, scheme, L, message):
        with pytest.raises(ValueError, match=message):
            unequal.SchemeInstance(scheme, 4, 4, Fraction(1), L, Fraction(2))
