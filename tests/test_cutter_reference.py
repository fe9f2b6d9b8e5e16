"""The one-pass XOR cutter against the cutter it replaced.

``equal_cache.aligned_transmissions`` cuts every component of one XOR in a
single pass over the union of the components' segment ends.  The reference
below is the form it replaced: the internal segment ends as cut offsets,
each component split by ``split_segments`` into tagged groups, and one
transmission per group position.  Both must return equal transmissions on
random equal-total components (derandomized), including a zero total, and
both must refuse unequal totals.
"""

from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecast.equal_cache import (
    Part, Segment, Transmission, aligned_transmissions, split_segments,
)

PROFILE = settings(derandomize=True, max_examples=150, deadline=None, database=None)

UNIT = 7


def ref_aligned_transmissions(components):
    totals = {sum(s.n for s in segs) for segs, _ in components}
    if len(totals) != 1:
        raise ValueError(f"XOR components must have equal total length, got {totals}")
    if not totals.pop():
        return []
    cuts = sorted({
        acc for segs, _ in components for acc in accumulate(s.n for s in segs[:-1])
    })
    pieces = [
        split_segments([(target, seg) for seg in segs], cuts)
        for segs, target in components
    ]
    out = []
    for groups in zip(*pieces):
        if any(len(group) != 1 for group in groups):
            raise ValueError("cut groups must be single segments")
        out.append(Transmission(tuple(Part(seg, target) for [(target, seg)] in groups)))
    return out


def _segments(lengths, offsets):
    return [Segment(a, n, UNIT) for a, n in zip(offsets, lengths)]


@st.composite
def compositions(draw, total, max_parts=5):
    """Positive lengths summing to ``total``, in 1..max_parts pieces."""
    cuts = draw(st.lists(st.integers(1, total - 1), max_size=min(max_parts, total) - 1,
                         unique=True)) if total > 1 else []
    ends = sorted(cuts) + [total]
    return [b - a for a, b in zip([0] + ends[:-1], ends)]


@st.composite
def components(draw):
    """1-6 components of 1-5 segments each, all of one total (possibly 0),
    at arbitrary offsets and for arbitrary targets."""
    count = draw(st.integers(1, 6))
    total = draw(st.integers(0, 12))
    out = []
    for target in draw(st.lists(st.integers(1, 9), min_size=count, max_size=count)):
        if total:
            lengths = draw(compositions(total))
        else:
            lengths = [0] * draw(st.integers(1, 5))
        offsets = draw(st.lists(st.integers(0, 40), min_size=len(lengths),
                                max_size=len(lengths)))
        out.append((_segments(lengths, offsets), target))
    return out


@PROFILE
@given(components())
def test_one_pass_matches_the_split_segments_cutter(comps):
    got = aligned_transmissions(comps)
    assert got == ref_aligned_transmissions(comps)
    if got:
        assert len(got) >= max(len(segs) for segs, _ in comps)


@PROFILE
@given(components(), st.integers(1, 5))
def test_unequal_totals_are_refused(comps, extra):
    segs, target = comps[0]
    longer = comps + [(segs + [Segment(0, extra, UNIT)], target)]
    for cutter in (aligned_transmissions, ref_aligned_transmissions):
        with pytest.raises(ValueError, match="equal total length"):
            cutter(longer)


def test_a_whole_segment_is_reused():
    # the second component's ends cut the first one's only segment
    whole = [Segment(3, 2, UNIT), Segment(20, 2, UNIT)]
    txs = aligned_transmissions([(whole, 2), ([Segment(9, 4, UNIT)], 1)])
    assert len(txs) == 2 and all(tx.parts[0].segment is seg for tx, seg in zip(txs, whole))
    assert [tx.parts[1].segment for tx in txs] == [Segment(9, 2, UNIT), Segment(11, 2, UNIT)]
