import random
import sys
from fractions import Fraction

import pytest

from cachecast.core import (
    binom,
    count_text,
    enumerate_subsets,
    excess,
    format_rational,
    parse_rational,
    user_set,
)


def test_binom_standard():
    assert binom(4, 2) == 6


def test_binom_zero_when_lower_exceeds_upper():
    assert binom(3, 5) == 0


def test_binom_zero_for_negative_lower():
    assert binom(2, -1) == 0


def test_binom_rejects_negative_upper():
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_binom_pascal_identity():
    for a in range(1, 65):
        for b in range(1, a + 1):
            assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b)


def test_enumerate_subsets_lexicographic():
    assert enumerate_subsets((1, 2, 3), 2) == [(1, 2), (1, 3), (2, 3)]


def test_enumerate_subsets_empty_set():
    assert enumerate_subsets((1, 2), 0) == [()]


def test_enumerate_subsets_count():
    assert len(enumerate_subsets((1, 2, 3, 4), 3)) == 4


def test_enumerate_subsets_oversize_is_empty():
    assert enumerate_subsets((1, 2), 3) == []


def test_enumerate_subsets_counts_and_uniqueness():
    rng = random.Random(7)
    for _ in range(25):
        k = rng.randrange(0, 8)
        ground = user_set(rng.sample(range(1, 20), k))
        for size in range(0, k + 1):
            subs = enumerate_subsets(ground, size)
            assert len(subs) == binom(len(ground), size)
            assert len(set(subs)) == len(subs)
            assert subs == sorted(subs)


def test_rational_roundtrip_exact():
    rng = random.Random(123)
    for _ in range(300):
        x = Fraction(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**9))
        y = Fraction(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**9))
        assert (x + y) - y == x
        assert x.denominator > 0
        # lowest terms is an invariant of the representation
        from math import gcd
        assert gcd(x.numerator, x.denominator) == 1


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(" 2 ") == Fraction(2)
    with pytest.raises(ValueError):
        parse_rational("nope")


def test_parse_rational_bounds_the_exponent():
    assert parse_rational("25e-2") == Fraction(1, 4)
    assert parse_rational("1e-4299") == Fraction(1, 10**4299)
    for text in ("1e-5000", "1E4300", "2e+0_5000", "1e" + "9" * 100):
        with pytest.raises(ValueError, match="exponent"):
            parse_rational(text)


def test_format_rational_canonical():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(4, 2)) == "2"


def test_format_rational_refuses_unprintable_terms():
    # 4300 digits print; 10^4300, on either side of the bar, does not
    widest = Fraction(10**4300 - 1, 3)
    assert format_rational(widest) == str(widest)
    for x, term in ((Fraction(10**4300, 7), "numerator"),
                    (Fraction(-(10**4300), 7), "numerator"),
                    (Fraction(1, 10**4300), "denominator")):
        with pytest.raises(ValueError, match=f"^Rprime has a {term} >= 10\\^4300, "):
            format_rational(x, "Rprime")


def test_count_bound_follows_the_digit_limit():
    # the bound 10^d is worked out once per limit, so a changed limit counts
    assert count_text(10**4300) == ">= 10^4300"
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert count_text(10**639) == str(10**639)
        assert count_text(10**640) == ">= 10^640"
        assert excess("N^K", [10**320, 10**320], 5) == "N^K >= 10^640"
    finally:
        sys.set_int_max_str_digits(limit)
    assert count_text(10**640) == str(10**640)
    assert excess("N^K", [10**4300], 5) == "N^K >= 10^4300"
