from fractions import Fraction

import pytest

from cachecast import equal_cache
from cachecast.core import binom, enumerate_subsets
from cachecast.equal_cache import (
    BoundPlan,
    delivery_subsets,
    equal_params,
    equal_placement,
    rate_eq,
    sharing_level,
    window_unit,
)
from cachecast.incremental import refine_pool, split_factor
from cachecast.simulator import SchemeInstance
from cachecast.unequal import UnequalConfig, unequal_params

from views import bound_parts, extent, user_intervals


def grid_M(N, step=Fraction(1, 2)):
    out = []
    m = Fraction(0)
    while m <= N:
        out.append(m)
        m += step
    return out


class TestEqualParams:
    def test_worked_example(self):
        p = equal_params(4, 4, 1)
        assert (p.t, p.t_int, p.alpha) == (1, 1, 1)

    def test_single_user_fractional(self):
        p = equal_params(4, 1, 1)
        assert p.t == Fraction(1, 4)
        assert p.t_int == 0
        assert p.alpha == Fraction(3, 4)

    def test_zero_cache(self):
        p = equal_params(6, 3, 0)
        assert (p.t, p.t_int, p.alpha) == (0, 0, 1)

    @pytest.mark.parametrize("N,K", [(4, 4), (5, 3), (6, 4)])
    def test_memory_sharing_identity(self, N, K):
        # M = alpha*t_int*N/K + (1-alpha)*(t_int+1)*N/K must hold exactly
        for M in grid_M(N, Fraction(1, 4)):
            p = equal_params(N, K, M)
            recon = p.alpha * p.t_int * Fraction(N, K) + (1 - p.alpha) * (
                p.t_int + 1
            ) * Fraction(N, K)
            assert recon == M
            assert 0 < p.alpha <= 1
            assert (p.alpha == 1) == (p.t.denominator == 1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            equal_params(4, 4, -1)
        with pytest.raises(ValueError):
            equal_params(4, 4, 5)
        with pytest.raises(ValueError):
            equal_params(3, 4, 1)  # K > N unsupported

    def test_no_users_refused(self):
        with pytest.raises(ValueError, match="^need at least one user, got K=0$"):
            equal_params(4, 0, 1)


class TestRateEq:
    def test_worked_example(self):
        assert rate_eq(4, 4, 1) == Fraction(3, 2)

    def test_full_cache(self):
        assert rate_eq(5, 3, 5) == 0
        assert rate_eq(4, 4, 4) == 0

    def test_zero_cache_unicasts_everything(self):
        assert rate_eq(5, 3, 0) == 3
        assert rate_eq(4, 4, 0) == 4

    def test_single_user_memory_sharing(self):
        assert rate_eq(4, 1, 1) == Fraction(3, 4)

    @pytest.mark.parametrize("N,K", [(4, 4), (6, 3), (8, 4)])
    def test_integer_t_closed_form(self, N, K):
        for t in range(0, K + 1):
            M = Fraction(t * N, K)
            assert rate_eq(N, K, M) == Fraction(K - t, 1 + t)
            assert rate_eq(N, K, M) == Fraction(binom(K, t + 1), binom(K, t))

    @pytest.mark.parametrize("N,K", [(4, 4), (5, 3), (6, 4), (10, 4)])
    def test_monotone_in_cache(self, N, K):
        values = [rate_eq(N, K, M) for M in grid_M(N, Fraction(1, 4))]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestManPlacement:
    # at integer t = K*M/N the placement is one layer of C(K, t) subfiles
    def test_worked_example_caches(self):
        # t=1: user i caches the i-th quarter of every file
        pl = equal_placement(4, 4, 1)
        for user in range(1, 5):
            cached = [sf for sf in pl.subfiles if user in sf.owners]
            assert len(cached) == 4  # one subfile per file
            assert {sf.file for sf in cached} == {1, 2, 3, 4}
            assert all(Fraction(sf.n, pl.unit) == Fraction(1, 4) for sf in cached)
            assert all(sf.owners == (user,) for sf in cached)

    def test_t_zero_nothing_cached(self):
        pl = equal_placement(3, 3, 0)
        assert all(sf.owners == () for sf in pl.subfiles)
        assert all(pl.user_load(u) == 0 for u in range(1, 4))

    def test_t_full_everything_cached(self):
        pl = equal_placement(3, 3, 3)
        assert all(sf.owners == (1, 2, 3) for sf in pl.subfiles)
        assert all(pl.user_load(u) == 3 for u in range(1, 4))

    def test_per_user_load_per_file(self):
        # t = 15/8 * 4/5 = 3/2: the beta layer is the second half of the
        # file at t=2, so each user caches 1/2 * C(3, 1) / C(4, 2) of it
        # per file
        pl = equal_placement(5, 4, Fraction(15, 8))
        beta = pl.blocks[1]
        assert {(sf.layer, len(sf.owners)) for sf in beta} == {("beta", 2)}
        assert Fraction(sum(sf.n for sf in beta), pl.unit) == Fraction(1, 2)
        expect = Fraction(1, 2) * Fraction(binom(3, 1), binom(4, 2))
        for user in range(1, 5):
            per_file = {}
            for sf in pl.subfiles:
                if sf.layer == "beta" and user in sf.owners:
                    per_file[sf.file] = per_file.get(sf.file, 0) + sf.n
            assert all(Fraction(v, pl.unit) == expect for v in per_file.values())


class TestEqualPlacement:
    @pytest.mark.parametrize("N,K", [(4, 4), (5, 3), (6, 4)])
    def test_cache_budget_exact(self, N, K):
        for M in grid_M(N, Fraction(1, 4)):
            pl = equal_placement(N, K, M)
            for user in range(1, K + 1):
                assert pl.user_load(user) == M

    def test_identical_per_file_footprint(self):
        pl = equal_placement(5, 4, Fraction(7, 4))
        for user in range(1, 5):
            totals = {}
            for sf in pl.subfiles:
                if user in sf.owners:
                    totals[sf.file] = totals.get(sf.file, 0) + sf.n
            assert len(set(totals.values())) == 1

    def test_layers_partition_each_file(self):
        pl = equal_placement(4, 4, Fraction(5, 4))
        for file in range(1, 5):
            ivs = sorted(extent(pl, sf) for sf in pl.subfiles if sf.file == file)
            pos = Fraction(0)
            for start, stop in ivs:
                assert start == pos
                pos = stop
            assert pos == 1

    def test_window_with_extra_owners(self):
        # t = 5/4 over the ground (2, 3, 4): both layers, laid out in
        # [1/3, 5/6) of every file, with user 1 caching the whole window
        ground, start, width, also = (2, 3, 4), Fraction(1, 3), Fraction(1, 2), (1,)
        whole = equal_placement(6, 4, Fraction(5, 2), ground)
        pl = equal_placement(6, 4, Fraction(5, 2), ground, window=(2, 3, 6), also=also)
        assert {sf.layer for sf in pl.layout} == {"alpha", "beta"}
        for sf in pl.layout:
            lo, hi = extent(pl, sf)
            assert start <= lo and hi <= start + width
            assert set(sf.stage1_set) <= set(ground)
            assert sf.owners == tuple(sorted(sf.stage1_set + also))
        for user in range(1, 5):
            assert pl.user_load(user) == width * (
                6 if user in also else whole.user_load(user))
        assert user_intervals(pl, 1)[1] == [(start, start + width)]


class TestUnits:
    def test_default_unit_is_the_coarsest_whole_one(self):
        # t = 3/2: alpha layer 1/2 in four subfiles of 1/8, beta layer 1/2 in
        # six of 1/12, so offsets are whole in units of F/24
        pl = equal_placement(4, 4, Fraction(3, 2))
        assert pl.unit == 24
        finer = equal_placement(4, 4, Fraction(3, 2), unit=48)
        assert finer.unit == 48
        assert [extent(finer, sf) for sf in finer.layout] == [
            extent(pl, sf) for sf in pl.layout]

    def test_a_unit_that_does_not_divide_raises(self):
        with pytest.raises(ValueError, match="does not divide evenly"):
            equal_placement(4, 4, 1, unit=2)
        with pytest.raises(ValueError, match="does not divide evenly"):
            equal_placement(4, 4, Fraction(3, 2), unit=8)
        with pytest.raises(ValueError, match="does not divide evenly"):
            equal_placement(4, 4, 1, window=(1, 1, 2), unit=4)


class TestManDelivery:
    # At integer t the equal-cache scheme is a single placement layer.
    def test_worked_example_transmissions(self):
        inst = SchemeInstance("equal", 4, 4, 1)
        (block,) = inst.placement.blocks
        assert [(sf.owners, Fraction(sf.n, inst.placement.unit)) for sf in block] == [
            ((u,), Fraction(1, 4)) for u in range(1, 5)]
        plan = inst.plan((1, 2, 3, 4))
        assert len(plan.template.transmissions) == 6
        assert plan.total_load == Fraction(3, 2)
        # A2 xor B1: segment [1/4,1/2) of file 1 to user 1, [0,1/4) of file 2 to user 2
        got = {(file, start, target) for file, start, _, target in bound_parts(plan)[0]}
        assert got == {(1, Fraction(1, 4), 1), (2, Fraction(0), 2)}

    def test_t_equals_K_empty_plan(self):
        plan = SchemeInstance("equal", 3, 3, 3).plan((1, 2, 3))
        assert plan.template.transmissions == ()
        assert plan.total_load == 0

    def test_repeated_demand_two_users(self):
        plan = SchemeInstance("equal", 2, 2, 1).plan((1, 1))
        assert plan.total_load == Fraction(1, 2)
        # brute-force decode: each user holds half of file 1 and the single
        # transmission supplies the other half
        (tx,) = bound_parts(plan)
        assert {(file, target) for file, _, _, target in tx} == {(1, 1), (1, 2)}
        assert {start for _, start, _, _ in tx} == {Fraction(0), Fraction(1, 2)}

    def test_demand_out_of_range(self):
        with pytest.raises(ValueError, match="demand"):
            SchemeInstance("equal", 3, 3, 1).plan((1, 2, 4))


class TestDeliverySubsets:
    # owner sets of size k are served over the (k+1)-subsets, smallest k first
    def test_integer_t_one_size(self):
        content = equal_placement(4, 4, 2).stage1_content  # t = 2
        assert delivery_subsets(content, (1, 2, 3, 4)) == enumerate_subsets(
            (1, 2, 3, 4), 3)

    def test_memory_sharing_two_sizes(self):
        content = equal_placement(4, 4, Fraction(3, 2)).stage1_content  # t = 3/2
        ground = (1, 2, 3, 4)
        assert delivery_subsets(content, ground) == (
            enumerate_subsets(ground, 2) + enumerate_subsets(ground, 3))

    def test_refined_pool(self):
        # (6,4,2,9/4,3/2): the pool of users 1, 2 is refined to t' = 3/2, so
        # it holds owner sets of sizes 1 and 2; two users have one 2-subset
        # and no 3-subset
        cfg = UnequalConfig(6, 4, 2, Fraction(9, 4), Fraction(3, 2))
        second = sharing_level(6, 2, unequal_params(cfg).Mprime)
        base = sharing_level(6, 4, Fraction(3, 2))
        unit = window_unit(4, base) * split_factor(2, base[0], second)
        _, pool = refine_pool(equal_placement(6, 4, Fraction(3, 2), unit=unit), (1, 2),
                              second)
        assert {len(T) for T in pool} == {1, 2}
        assert delivery_subsets(pool, (1, 2)) == [(1, 2)]

    def test_empty_map(self):
        assert delivery_subsets({}, (1, 2, 3)) == []


class TestBoundPlan:
    def test_view_reads_each_target_s_file(self):
        inst = SchemeInstance("equal", 5, 3, Fraction(7, 4))
        template = inst.plan((1, 2, 3)).template
        d = (2, 5, 2)
        plan = inst.plan(d)
        assert plan == BoundPlan(template, d)
        view = bound_parts(plan)
        assert len(view) == len(template.transmissions)
        for tx, (width, row) in zip(view, template.transmissions, strict=True):
            for (file, start, length, target), (target0, offset) in zip(tx, row,
                                                                         strict=True):
                assert target == target0 and file == d[target - 1]
                assert (start, length) == (Fraction(offset, template.unit),
                                           Fraction(width, template.unit))
        assert plan.total_load == template.total_load

    def test_binding_builds_no_part_or_transmission(self, monkeypatch):
        inst = SchemeInstance("proposed", 6, 4, Fraction(5, 4), L=2, Mhat=Fraction(7, 2))
        template = inst.plan((1, 2, 3, 4)).template  # built once, for every demand
        built = []
        aligned = equal_cache.aligned_transmissions

        def counted(components):
            rows = aligned(components)
            built.extend(rows)
            return rows

        monkeypatch.setattr(equal_cache, "aligned_transmissions", counted)
        plan = inst.plan((3, 1, 3, 6))
        assert plan.template is template and built == []
        new = SchemeInstance("proposed", 6, 4, Fraction(5, 4), L=2, Mhat=Fraction(7, 2))
        # a new template is built through the counted row builder
        assert new.plan((3, 1, 3, 6)).template.transmissions == tuple(built)

    def test_demand_of_the_wrong_length_refused(self):
        inst = SchemeInstance("equal", 4, 3, 1)
        with pytest.raises(ValueError, match="^demand vector must have length K=3, "
                                             "got 2$"):
            inst.plan((1, 2))


class TestEqualScheme:
    def test_worked_example(self):
        plan = SchemeInstance("equal", 4, 4, 1).plan((1, 2, 3, 4))
        assert plan.total_load == Fraction(3, 2)

    def test_single_user_memory_sharing(self):
        # alpha layer is unicast (3/4 of the file), beta layer fully cached
        inst = SchemeInstance("equal", 4, 1, 1)
        plan = inst.plan((2,))
        assert plan.total_load == Fraction(3, 4)
        assert all(len(row) == 1 for _, row in plan.template.transmissions)
        assert inst.placement.user_load(1) == 1

    def test_full_cache_empty_plan(self):
        plan = SchemeInstance("equal", 5, 3, 5).plan((1, 2, 3))
        assert plan.template.transmissions == ()

    @pytest.mark.parametrize("N,K", [(4, 4), (5, 3), (6, 4)])
    def test_plan_load_matches_formula(self, N, K):
        d = tuple(range(1, K + 1))
        for M in grid_M(N, Fraction(1, 4)):
            plan = SchemeInstance("equal", N, K, M).plan(d)
            assert plan.total_load == rate_eq(N, K, M)

    def test_transmission_parts_have_equal_length(self):
        plan = SchemeInstance("equal", 5, 4, Fraction(7, 4)).plan((1, 2, 3, 4))
        for tx in bound_parts(plan):
            assert len({length for _, _, length, _ in tx}) == 1
        assert all(width > 0 for width, _ in plan.template.transmissions)
