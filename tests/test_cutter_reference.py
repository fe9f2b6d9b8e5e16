"""The one interval cutter against the cutter it replaced.

``equal_cache.cut_segments`` is the one function that cuts a run of
(offset, length) segments at interior offsets.  ``aligned_transmissions``
cuts every component of one XOR at the union of the components' segment
ends, and the pooled refinement
cuts each owner set's pieces into a kept share and equal promoted parts.
``split_segments`` below is the cutter both replaced, kept as the
reference.  ``cut_segments`` must equal it, piece by piece and tag by tag,
at arbitrary bounds; the XOR builder must equal the form that split each
component at the internal segment ends, on random equal-total components
(derandomized), drawn to include XORs of single pairs only (which it emits
as one row without cutting), zero-length pairs and a zero total; and bounds
that end before or past the content, or unequal totals, are refused.
"""

from itertools import accumulate
from typing import Sequence, TypeVar

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecast.equal_cache import Span, aligned_transmissions, cut_segments

PROFILE = settings(derandomize=True, max_examples=150, deadline=None, database=None)

Tag = TypeVar("Tag")


def split_segments(
    items: Sequence[tuple[Tag, Span]], cuts: Sequence[int]
) -> list[list[tuple[Tag, Span]]]:
    """Cut the concatenation of ``items``' segments at the given content offsets.

    Each item is a (tag, segment) pair; both halves of a cut segment keep its
    tag, so a caller can tell where every piece came from without searching.
    ``cuts`` are in the segments' unit, strictly increasing and at most the
    total length; returns len(cuts)+1 ordered groups that tile the input.
    """
    groups: list[list[tuple[Tag, Span]]] = [[]]
    pos = 0
    cut_iter = iter(cuts)
    cut = next(cut_iter, None)
    for tag, seg in items:
        a, n = seg
        while cut is not None and pos < cut < pos + n:
            head = cut - pos
            groups[-1].append((tag, (a, head)))
            a, n = a + head, n - head
            seg = (a, n)
            pos = cut
            groups.append([])
            cut = next(cut_iter, None)
        groups[-1].append((tag, seg))
        pos += n
        if cut is not None and cut == pos:
            groups.append([])
            cut = next(cut_iter, None)
    if cut is not None:
        raise ValueError("cut offsets exceed the content length")
    return groups


def ref_aligned_transmissions(components):
    totals = {sum(n for _, n in segs) for segs, _ in components}
    if len(totals) != 1:
        raise ValueError(f"XOR components must have equal total length, got {totals}")
    if not totals.pop():
        return []
    # a zero-length pair holds no content: no piece comes from it
    components = [([seg for seg in segs if seg[1]], target) for segs, target in components]
    cuts = sorted({
        acc for segs, _ in components for acc in accumulate(n for _, n in segs[:-1])
    })
    pieces = [
        split_segments([(target, seg) for seg in segs], cuts)
        for segs, target in components
    ]
    out = []
    for groups in zip(*pieces):
        if any(len(group) != 1 for group in groups):
            raise ValueError("cut groups must be single segments")
        ((_, (_, width)),) = groups[0]
        out.append((width, tuple((target, a) for [(target, (a, _))] in groups)))
    return out


def _segments(lengths, offsets):
    return [(a, n) for a, n in zip(offsets, lengths)]


@st.composite
def compositions(draw, total, max_parts=5):
    """Positive lengths summing to ``total``, in 1..max_parts pieces."""
    cuts = draw(st.lists(st.integers(1, total - 1), max_size=min(max_parts, total) - 1,
                         unique=True)) if total > 1 else []
    ends = sorted(cuts) + [total]
    return [b - a for a, b in zip([0] + ends[:-1], ends)]


@st.composite
def components(draw):
    """1-6 components, all of one total, at arbitrary offsets and for
    arbitrary targets.  Each draw is one of four shapes: every component a
    single pair; 1-5 positive segments each; the same with zero-length
    pairs put in; or a zero total, of 1-5 zero-length pairs each."""
    count = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["single", "cut", "zero-length", "zero-total"]))
    total = 0 if shape == "zero-total" else draw(st.integers(1, 12))
    out = []
    for target in draw(st.lists(st.integers(1, 9), min_size=count, max_size=count)):
        if shape == "single":
            lengths = [total]
        elif shape == "zero-total":
            lengths = [0] * draw(st.integers(1, 5))
        else:
            lengths = draw(compositions(total))
            if shape == "zero-length":
                for _ in range(draw(st.integers(1, 3))):
                    lengths.insert(draw(st.integers(0, len(lengths))), 0)
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
        assert len(got) >= max(sum(1 for _, n in segs if n) for segs, _ in comps)
    if all(len(segs) == 1 for segs, _ in comps):
        assert len(got) == (1 if comps[0][0][0][1] else 0)


@PROFILE
@given(components(), st.integers(1, 5), st.booleans())
def test_unequal_totals_are_refused(comps, extra, one_pair):
    # the longer component is one pair or the first one's pairs and one more
    segs, target = comps[0]
    total = sum(n for _, n in segs)
    longer = comps + [([(0, total + extra)] if one_pair else segs + [(0, extra)], target)]
    for cutter in (aligned_transmissions, ref_aligned_transmissions):
        with pytest.raises(ValueError, match="equal total length"):
            cutter(longer)


def test_a_whole_segment_is_reused():
    # the first component's ends cut the second one's only segment, and each
    # of the first one's segments is one part of its own
    whole = [(3, 2), (20, 2)]
    txs = aligned_transmissions([(whole, 2), ([(9, 4)], 1)])
    assert txs == [(2, ((2, 3), (1, 9))), (2, ((2, 20), (1, 11)))]


@st.composite
def cut_runs(draw):
    """A run of 1-5 positive segments at arbitrary offsets, and increasing
    bounds that end at its total, as the pooled refinement draws them: an
    optional empty first interval (nothing kept), then interior cuts."""
    total = draw(st.integers(1, 16))
    lengths = draw(compositions(total))
    offsets = draw(st.lists(st.integers(0, 40), min_size=len(lengths),
                            max_size=len(lengths)))
    cuts = sorted(draw(st.sets(st.integers(1, total - 1), max_size=6))) if total > 1 else []
    head = [0] if draw(st.booleans()) else []
    return _segments(lengths, offsets), head + cuts + [total]


@PROFILE
@given(cut_runs())
def test_cut_segments_matches_split_segments(run):
    segs, bounds = run
    groups = [[] for _ in bounds]
    for k, i, piece in cut_segments(segs, bounds):
        groups[k].append((i, piece))
        if piece[1] == segs[i][1]:
            assert piece is segs[i]
    interior = [b for b in bounds[:-1] if b]
    expected = split_segments(list(enumerate(segs)), interior)
    assert groups == ([[]] if bounds[0] == 0 else []) + expected
    # a segment no interior bound cuts comes back whole, as the same object
    pos = 0
    for i, seg in enumerate(segs):
        if not any(pos < b < pos + seg[1] for b in bounds):
            pieces = [p for group in groups for j, p in group if j == i]
            assert len(pieces) == 1 and pieces[0] is seg
        pos += seg[1]


@PROFILE
@given(cut_runs(), st.integers(1, 5), st.booleans())
def test_bounds_off_the_content_length_are_refused(run, off, past):
    segs, bounds = run
    last = bounds[-1] + off if past else bounds[-1] - off
    wrong = [b for b in bounds[:-1] if b < last] + [last]
    with pytest.raises(ValueError, match="cut bounds end at"):
        list(cut_segments(segs, wrong))
