import random
from fractions import Fraction
from itertools import product

import pytest

from cachecast.baselines import (
    import_external_rates,
    scheme1_optimize,
    scheme1_rate_at,
)
from cachecast.equal_cache import rate_eq
from cachecast.unequal import UnequalConfig, rate_ueq

TWO_LEVEL = [Fraction(2), Fraction(2), Fraction(2), Fraction(1)]


class TestScheme1RateAt:
    def test_beta_must_sum_to_one(self):
        with pytest.raises(ValueError, match="^beta must sum to 1, got 3/4$"):
            scheme1_rate_at((Fraction(1, 2), Fraction(1, 4)), 4, 2, [1, 1])

    def test_beta_must_be_non_negative(self):
        with pytest.raises(ValueError, match="^beta components must be non-negative$"):
            scheme1_rate_at((Fraction(-1, 2), Fraction(3, 2)), 4, 2, [1, 1])

    def test_boundary_family_values(self):
        # beta = (0, 0, x, 1-x) on (N,K) = (4,4), caches (2,2,2,1); values
        # frozen from a dense-grid evaluation of the two active sub-problems
        cases = {
            Fraction(1, 4): Fraction(7, 6),
            Fraction(3, 8): Fraction(9, 8),
            Fraction(1, 2): Fraction(7, 6),
        }
        for x, expect in cases.items():
            beta = (Fraction(0), Fraction(0), x, 1 - x)
            assert scheme1_rate_at(beta, 4, 4, TWO_LEVEL) == expect

    def test_equal_caches_single_subproblem(self):
        beta = (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
        assert scheme1_rate_at(beta, 4, 4, [1, 1, 1, 1]) == rate_eq(4, 4, 1)

    def test_zero_share_with_positive_gap_wastes_the_gap(self):
        # continuous limit: the unused headroom of layers 1-3 costs nothing
        beta = (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
        assert scheme1_rate_at(beta, 4, 4, TWO_LEVEL) == rate_eq(4, 4, 1)

    def test_cache_clamped_at_library_size(self):
        # x = 1/8 gives sub-problem 3 a cache of 8 > N = 4; excess is wasted
        beta = (Fraction(0), Fraction(0), Fraction(1, 8), Fraction(7, 8))
        assert scheme1_rate_at(beta, 4, 4, TWO_LEVEL) == Fraction(4, 3)

    def test_rejects_unsorted_caches(self):
        with pytest.raises(ValueError, match="descending"):
            scheme1_rate_at((Fraction(1),) + (Fraction(0),) * 3, 4, 4, [1, 2, 1, 1])


class TestScheme1Optimize:
    def test_equal_caches_optimum(self):
        alloc, value = scheme1_optimize(4, 4, [1, 1, 1, 1])
        assert value == rate_eq(4, 4, 1)
        assert alloc == (0, 0, 0, 1)

    def test_two_level_worked_point(self):
        alloc, value = scheme1_optimize(4, 4, TWO_LEVEL)
        assert value == Fraction(9, 8)
        assert alloc == (0, 0, Fraction(3, 8), Fraction(5, 8))

    def test_rejects_more_users_than_files(self):
        for N, K in ((0, 1), (2, 3)):
            with pytest.raises(ValueError, match="K > N"):
                scheme1_optimize(N, K, [0] * K)

    def test_wasted_gap_optimum(self):
        # the small gap of layer 2 is best left unused
        caches = [10, 10, Fraction(19, 2), Fraction(19, 2)]
        alloc, value = scheme1_optimize(10, 4, caches)
        assert value == Fraction(1, 20)
        assert alloc == (0, 0, 0, 1)

    def test_optimum_bounds_every_feasible_point(self):
        _, value = scheme1_optimize(4, 4, TWO_LEVEL)
        for q in range(0, 17):
            beta = (Fraction(0), Fraction(0), Fraction(q, 16), 1 - Fraction(q, 16))
            assert value <= scheme1_rate_at(beta, 4, 4, TWO_LEVEL)

    def test_exact_optimum_on_random_cache_vectors(self):
        # the optimum is attained by the returned beta and bounds every
        # beta on the 1/12 simplex grid
        rng = random.Random(20180611)
        for _ in range(100):
            N = rng.randint(1, 8)
            K = rng.randint(1, min(4, N))
            caches = sorted(
                (Fraction(rng.randint(0, 9 * N), 9) for _ in range(K)), reverse=True
            )
            alloc, value = scheme1_optimize(N, K, caches)
            assert value == scheme1_rate_at(alloc, N, K, caches)
            for steps in product(range(13), repeat=K):
                if sum(steps) == 12:
                    beta = tuple(Fraction(q, 12) for q in steps)
                    assert value <= scheme1_rate_at(beta, N, K, caches), (N, K, caches)

    def test_reduced_1d_search_matches_full_simplex(self):
        # with only two positive cache gaps, mass outside {beta_L, beta_K}
        # is wasted: the 1-D family must contain the full-simplex optimum
        _, full = scheme1_optimize(4, 4, TWO_LEVEL)
        one_d = min(
            scheme1_rate_at(
                (Fraction(0), Fraction(0), Fraction(q, 16), 1 - Fraction(q, 16)),
                4,
                4,
                TWO_LEVEL,
            )
            for q in range(0, 17)
        )
        assert full == one_d

    @pytest.mark.parametrize("m", [Fraction(1, 2), Fraction(1), Fraction(2)])
    def test_dominated_by_proposed_scheme(self, m):
        # the two-level sweep shape: caches (3m, 3m, m, m) on N=10, K=4
        caches = [3 * m, 3 * m, m, m]
        _, s1 = scheme1_optimize(10, 4, caches)
        prop = rate_ueq(UnequalConfig(10, 4, 2, 3 * m, m)).rate
        assert prop <= s1


class TestImportExternalRates:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "rates.txt"
        path.write_text("")
        assert import_external_rates(path) == {}

    def test_single_row_and_comments(self, tmp_path):
        path = tmp_path / "rates.txt"
        path.write_text("# header comment\n4,4,3,2,1,1.0  # worked example\n")
        table = import_external_rates(path)
        assert table == {(4, 4, 3, Fraction(2), Fraction(1)): Fraction(1)}

    def test_rational_forms(self, tmp_path):
        path = tmp_path / "rates.txt"
        path.write_text("10,4,2,3/4,1/4,18/5\n")
        assert import_external_rates(path)[
            (10, 4, 2, Fraction(3, 4), Fraction(1, 4))
        ] == Fraction(18, 5)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "rates.txt"
        path.write_text("4,4,3,2,1,1.0\n4,4,3,2\n")
        with pytest.raises(ValueError, match=":2:"):
            import_external_rates(path)

    def test_repeated_point_names_both_lines(self, tmp_path):
        # the later row once won silently; 1/2 and 0.5 spell one point
        path = tmp_path / "rates.txt"
        path.write_text("10,4,2,3,1/2,2\n# comment\n10,4,2,3.0,0.5,3\n")
        with pytest.raises(ValueError, match=r":3: point 10,4,2,3,1/2 repeats line 1$"):
            import_external_rates(path)
