"""Golden geometry: placements and identity-demand plans are frozen byte for byte.

Every placement and every identity-demand plan on a small grid is serialised
as explicit tuples (never ``repr``), in placement and plan order, and hashed.
Any change to the construction that moves a single subfile boundary, reorders
a subfile or a transmission, or changes a target changes the digest.  The
digest does not depend on ``PYTHONHASHSEED``: nothing here iterates a set.
"""

import hashlib
from fractions import Fraction

import pytest

from cachecast.simulator import SchemeInstance, materialize, required_bits

from views import bound_parts, cache_from_masks, lcm_denominators

GRID_N = (4, 5)
GRID_K = (3, 4)

GOLDEN_INSTANCES = 1996
GOLDEN_SHA256 = "c527e9267bc957afe87104ccdce5f24219c702ab1b38b56a772316db324b31a2"


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _instance_text(inst: SchemeInstance) -> str:
    # a subfile is one (start, length), written as a list of one pair
    unit = inst.placement.unit
    placement = [
        (sf.file, sf.layer, sf.stage1_set, sf.owners,
         [(_q(Fraction(sf.a, unit)), _q(Fraction(sf.n, unit)))])
        for sf in inst.placement.subfiles
    ]
    plan = [
        [(file, _q(start), _q(length), target) for file, start, length, target in tx]
        for tx in bound_parts(inst.plan(tuple(range(1, inst.K + 1))))
    ]
    return f"{placement}|{plan}\n"


def _grid():
    for N in GRID_N:
        ms = [Fraction(q, 4) for q in range(0, 4 * N + 1)]
        for K in GRID_K:
            for M in ms:
                yield SchemeInstance("equal", N, K, M)
            for L in range(1, K):
                for M in ms:
                    for Mhat in ms:
                        if Mhat >= M:
                            yield SchemeInstance("proposed", N, K, M, L=L, Mhat=Mhat)


def grid_digest() -> tuple[int, str]:
    """(instance count, SHA-256) over the whole grid."""
    digest = hashlib.sha256()
    count = 0
    for inst in _grid():
        header = (inst.scheme, inst.N, inst.K, inst.L, _q(inst.M),
                  None if inst.Mhat is None else _q(inst.Mhat))
        digest.update(f"{header}:".encode())
        digest.update(_instance_text(inst).encode())
        count += 1
    return count, digest.hexdigest()


def test_golden_geometry_digest():
    assert grid_digest() == (GOLDEN_INSTANCES, GOLDEN_SHA256)


def test_required_bits_is_the_lcm_of_the_segment_denominators():
    # the bit size read off the integer offsets, checked against the
    # fractions they stand for over the whole grid
    for inst in _grid():
        plan = inst.plan(tuple(range(1, inst.K + 1)))
        unit = inst.placement.unit
        fracs = [Fraction(x, unit) for sf in inst.placement.layout for x in (sf.a, sf.n)]
        fracs += [x for tx in bound_parts(plan) for _, start, length, _ in tx
                  for x in (start, length)]
        assert required_bits(inst.placement, plan) == (
            lcm_denominators(fracs) if fracs else 1)


def test_cache_intervals_round_trip_through_masks():
    # the on-request mask rows hold exactly the intervals, and each user's
    # budget in bits is the same read from either
    for inst in _grid():
        plan = inst.plan(tuple(range(1, inst.K + 1)))
        _, caches = materialize(inst.placement, plan)
        masks = caches.masks
        assert masks.nbytes == inst.K * caches.F_bits
        assert cache_from_masks(inst.N, masks) == caches
        assert [caches.user_bits(u) for u in range(1, inst.K + 1)] == [
            inst.N * sum(row) for row in masks.tolist()]


def test_lcm_denominators():
    assert lcm_denominators([Fraction(1, 4), Fraction(1, 8)]) == 8
    assert lcm_denominators([Fraction(1)]) == 1
    assert lcm_denominators([Fraction(3, 4), Fraction(1, 6)]) == 12


def test_lcm_denominators_empty():
    with pytest.raises(ValueError, match="no lengths"):
        lcm_denominators([])
