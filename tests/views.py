"""Read views that tests share and the package never builds.

A bound plan names no file in its rows (the part for user k reads file
d[k-1]), and a placement stores one file's layout for every file alike;
these helpers list what a reader of one demand or one user's cache wants
to see.  ``read_bits`` reads a file's bits by a route other than the
simulator's.  ``cache_from_masks`` goes the other way, so that a test may
edit a cache bit by bit and hand the decoder the intervals it stands for.
"""

import math
from fractions import Fraction

import numpy as np

from cachecast.simulator import CacheImage


def bound_parts(plan):
    """Each transmission of a bound plan as a tuple of (file, start, length,
    target), one per part, in plan order: a row (width, ((target, offset),
    ...)) of the template gives each part start Fraction(offset, unit) and
    length Fraction(width, unit), in fractions of F."""
    unit = plan.template.unit
    return [tuple((plan.demand[target - 1], Fraction(offset, unit), Fraction(width, unit),
                   target)
                  for target, offset in row)
            for width, row in plan.template.transmissions]


def extent(placement, sf):
    """A subfile's (start, stop) in fractions of F: ``sf.n`` units from
    ``sf.a``, in units of F/``placement.unit``."""
    return Fraction(sf.a, placement.unit), Fraction(sf.a + sf.n, placement.unit)


def user_intervals(placement, user):
    """Merged (start, stop) coverage per file for one user's cache; every
    file is cached alike, so each file maps to the same list."""
    ivs = []
    for start, stop in sorted(extent(placement, sf) for sf in placement.layout
                              if user in sf.owners):
        if ivs and start <= ivs[-1][1]:
            ivs[-1] = (ivs[-1][0], max(ivs[-1][1], stop))
        else:
            ivs.append((start, stop))
    return dict.fromkeys(range(1, placement.N + 1), ivs) if ivs else {}


def lcm_denominators(lengths: list[Fraction]) -> int:
    """Least common multiple of the denominators of ``lengths``: the
    smallest file size in bits that puts every boundary on a whole bit."""
    if not lengths:
        raise ValueError("no lengths")
    return math.lcm(*(x.denominator for x in lengths))


def read_bits(store, file, a, b):
    """Bits [a, b) of ``file`` (1-based) in ``store`` as an int, bit a the
    lowest, read from the whole file as one little-endian integer."""
    return int.from_bytes(store.files[file - 1], "little") >> a & ((1 << (b - a)) - 1)


def cache_from_masks(N, masks):
    """The ``CacheImage`` whose rows are ``masks``, (K, F_bits) bools in any
    form numpy reads, ``CacheImage.masks`` or lists of rows among them: each
    row's runs of set bits become that user's (start, end) intervals."""
    masks = np.asarray(masks, dtype=bool)
    ranges = []
    for row in masks:
        ends = np.flatnonzero(np.diff(row, prepend=False, append=False)).tolist()
        ranges.append(tuple(zip(ends[::2], ends[1::2])))
    return CacheImage(N, masks.shape[1], tuple(ranges))
