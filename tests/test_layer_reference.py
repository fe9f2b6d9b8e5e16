"""The integer layer arithmetic against the fractions it replaced.

``equal_cache._layers`` and ``window_unit`` compute a window's
memory-sharing layers and its coarsest unit in integers: a level
(t_int, a, D) from ``sharing_level`` and a window (s, w, E) as numerators
over one denominator.  ``ref_layers`` and ``ref_window_unit`` below are the
``Fraction`` forms they replaced, kept as the reference.  Both must agree
on every window the golden-geometry grid builds (the equal scheme's whole
file, stage 1's [0, gamma) and the small users' [gamma, 1)) and on random
rational windows, with start, width and M of denominators up to 50;
``equal_placement`` must lay each layer out at the reference's offsets.
"""

import math
from fractions import Fraction
from itertools import chain

from hypothesis import given, settings
from hypothesis import strategies as st

from cachecast.core import binom
from cachecast.equal_cache import (
    ALPHA, BETA, _layers, equal_params, equal_placement, sharing_level, window_unit,
)
from cachecast.unequal import UnequalConfig, unequal_params

from test_golden_geometry import GRID_K, GRID_N

PROFILE = settings(derandomize=True, max_examples=300, deadline=None, database=None)


def ref_layers(p, start, width):
    """(layer, t, start, fraction) of each memory-sharing layer of the window
    [start, start + width); beta is absent when t is an integer."""
    layers = ((ALPHA, p.t_int, start, width * p.alpha),
              (BETA, p.t_int + 1, start + width * p.alpha, width * (1 - p.alpha)))
    return [layer for layer in layers if layer[3]]


def ref_window_unit(p, start, width):
    """The coarsest unit in which every layer's start, and its share of each
    of its C(p.K, t) subfiles, is whole."""
    return math.lcm(*chain.from_iterable(
        (Fraction(layer_start).denominator, Fraction(fraction, binom(p.K, t)).denominator)
        for _, t, layer_start, fraction in ref_layers(p, start, width)))


def check_window(N, K, M, start, width):
    """The integer forms equal the references on one window, and
    ``equal_placement`` lays each layer out where the reference puts it."""
    p = equal_params(N, K, M)
    E = math.lcm(start.denominator, width.denominator)
    window = (start.numerator * E // start.denominator,
              width.numerator * E // width.denominator, E)
    level = sharing_level(N, K, M)
    den = E * level[2]
    layers = [(layer, t, Fraction(s, den), Fraction(n, den))
              for layer, t, s, n in _layers(level, window)]
    expected = ref_layers(p, start, width)
    assert layers == expected
    unit = window_unit(K, level, window)
    assert unit == ref_window_unit(p, start, width)
    if not width:
        return
    blocks = equal_placement(N, K, M, window=window).blocks
    assert len(blocks) == len(expected)
    for block, (layer, t, layer_start, fraction) in zip(blocks, expected):
        size = fraction * unit / binom(K, t)
        assert [(sf.layer, sf.a, sf.n) for sf in block] == [
            (layer, layer_start * unit + j * size, size) for j in range(binom(K, t))]


def grid_windows():
    """(N, K, M, start, width) of every window the golden-geometry grid
    builds: the equal scheme's file, and each proposed point's [0, gamma)
    over K users and [gamma, 1) over the K - L small users."""
    for N in GRID_N:
        ms = [Fraction(q, 4) for q in range(0, 4 * N + 1)]
        for K in GRID_K:
            for M in ms:
                yield N, K, M, Fraction(0), Fraction(1)
            for L in range(1, K):
                for M in ms:
                    for Mhat in ms:
                        if Mhat < M:
                            continue
                        gamma = unequal_params(UnequalConfig(N, K, L, Mhat, M)).gamma
                        gamma = Fraction(1) if gamma is None else gamma
                        yield N, K, M, Fraction(0), gamma
                        yield N, K - L, M, gamma, 1 - gamma


def test_integer_layers_match_on_the_golden_grid():
    windows = list(grid_windows())
    assert len(windows) == 3916
    for window in windows:
        check_window(*window)


@st.composite
def rational_windows(draw):
    """A point (N, K, M) and a window [start, start + width) of the file,
    each of start, width and M with a denominator up to 50."""
    K = draw(st.integers(1, 8))
    N = draw(st.integers(K, K + 6))
    q = draw(st.integers(1, 50))
    M = Fraction(draw(st.integers(0, N * q)), q)
    e = draw(st.integers(1, 50))
    start = Fraction(draw(st.integers(0, e - 1)), e)
    f = draw(st.integers(1, 50))
    room = math.floor((1 - start) * f)  # widths k/f that fit in [start, 1)
    width = Fraction(draw(st.integers(0, room)), f)
    return N, K, M, start, width


@PROFILE
@given(rational_windows())
def test_integer_layers_match_on_random_windows(window):
    check_window(*window)
