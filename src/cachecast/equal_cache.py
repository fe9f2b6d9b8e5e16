"""Equal-cache centralized caching: placement, XOR delivery, and the exact rate.

Every file of unit size is split into subfiles indexed by user subsets; a
subfile sits in a user's cache iff the user belongs to its owner set.  With
t = K*M/N an integer, owner sets have size t and delivery sends, for every
(t+1)-subset S of users, the XOR of the subfiles wanted by each member of S
and cached by the other members.  Non-integer t is realized by memory
sharing: the first alpha fraction of every file runs the scheme with
parameter t_int, the rest with t_int + 1.

Every file is laid out alike, and a ``Placement`` stores that symmetry: it
holds one file's subfiles, with no file field, and ``Placement.subfiles``
expands them over the N files only for callers that list every copy.

This module holds the one builder of each basic step, shared by both schemes;
each runs once, over one file's layout:

- ``man_placement`` lays out one memory-sharing layer over a ground set of
  users; ``equal_placement`` stacks the layers.  It is the two-level scheme's
  stage 1, and over the small users its scenario-2 remainder.
- ``delivery_subsets`` is the one delivery rule.  Content is keyed by owner
  set alone: within one layout, the alpha layer's owner sets have size
  t_int and the beta layer's t_int + 1, so the keys' sizes say what to send,
  one XOR per (k+1)-subset for each owner-set size k.  ``xor_delivery``
  sends the XORs of the subsets a caller picks; ``equal_delivery`` sends all
  of them, for a placement's layout or the refined pool's
  (``incremental.refine_pool``).  Both emit a template whose parts name
  offsets and a target but no file.
- ``retarget`` gives each part of a template the file its target wants
  under a demand; it is the one place a demand enters a plan.
- ``split_segments`` cuts an ordered list of tagged segments at offsets; it
  aligns XOR parts here and splits subfiles in the pooled refinement.

All offsets and lengths are fractions of the file size F, so a later
bit-level realization only has to scale by one common denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from typing import Iterable, Mapping, Sequence, TypeVar

from .core import Rational, UserSet, binom, enumerate_subsets, users_range

# Memory-sharing layer tags.  The alpha layer is the first alpha*F bits of a
# file, the beta layer the remaining (1-alpha)*F bits.  A subfile records its
# layer; delivery reads the level off the owner set's size instead.
ALPHA = "alpha"
BETA = "beta"

ZERO = Fraction(0)
ONE = Fraction(1)

Tag = TypeVar("Tag")


@dataclass(frozen=True)
class EqualCacheParams:
    """Derived parameters of the equal-cache scheme for (N, K, M)."""

    N: int
    K: int
    M: Rational
    t: Rational
    t_int: int
    alpha: Rational


def equal_params(N: int, K: int, M) -> EqualCacheParams:
    """Compute t = K*M/N, its floor, and the memory-sharing weight alpha."""
    if K < 1:
        raise ValueError(f"need at least one user, got K={K}")
    if K > N:
        raise ValueError(f"unsupported regime K > N (K={K}, N={N})")
    M = Fraction(M)
    if M < 0 or M > N:
        raise ValueError(f"cache size must satisfy 0 <= M <= N, got M={M}")
    t = Fraction(K, N) * M
    t_int = math.floor(t)
    alpha = t_int + 1 - t
    return EqualCacheParams(N=N, K=K, M=M, t=t, t_int=t_int, alpha=alpha)


def rate_eq(N: int, K: int, M) -> Rational:
    """Worst-case rate of the equal-cache scheme, as an exact rational.

    alpha * C(K, t_int+1)/C(K, t_int) + (1-alpha) * C(K, t_int+2)/C(K, t_int+1),
    which reduces to (K-t)/(1+t) at integer t.
    """
    p = equal_params(N, K, M)
    rate = p.alpha * Fraction(binom(K, p.t_int + 1), binom(K, p.t_int))
    if p.alpha != 1:
        rate += (1 - p.alpha) * Fraction(binom(K, p.t_int + 2), binom(K, p.t_int + 1))
    return rate


# ---------------------------------------------------------------------------
# Placement and delivery data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Segment:
    """A contiguous slice at the same offsets of every file, in fractions of F."""

    start: Rational
    length: Rational

    @property
    def stop(self) -> Rational:
        return self.start + self.length


@dataclass(frozen=True, slots=True)
class FileSegment(Segment):
    """A segment of one file, as ``retarget`` makes it for a demand."""

    file: int


@dataclass(frozen=True, slots=True)
class Subfile:
    """A placed piece of content, cut alike from every file.

    ``stage1_set`` is the owner set assigned by the first-stage placement and
    never changes; ``owners`` grows when an incremental refinement adds the
    piece to further caches.  ``segments`` is ordered (refined pieces keep the
    order in which they were concatenated, which delivery relies on).
    """

    layer: str
    stage1_set: UserSet
    owners: UserSet
    segments: tuple[Segment, ...]

    @property
    def length(self) -> Rational:
        return sum((s.length for s in self.segments), ZERO)


@dataclass(frozen=True, slots=True)
class FileSubfile(Subfile):
    """One file's copy of a subfile, as ``Placement.subfiles`` lists it."""

    file: int


@dataclass(frozen=True)
class Placement:
    """N files over K users, laid out alike: ``blocks`` holds one file's
    subfiles in the groups the builders emit (a layer, a refinement's kept or
    refined part, a scenario-2 share).  ``subfiles`` lists every file's copy,
    block by block and file-major within each block."""

    N: int
    K: int
    blocks: tuple[tuple[Subfile, ...], ...]

    @property
    def layout(self) -> tuple[Subfile, ...]:
        """One file's subfiles, block by block."""
        return tuple(chain.from_iterable(self.blocks))

    @property
    def subfiles(self) -> tuple[FileSubfile, ...]:
        return tuple(
            FileSubfile(sf.layer, sf.stage1_set, sf.owners, sf.segments, file)
            for block in self.blocks
            for file in range(1, self.N + 1)
            for sf in block
        )

    def user_load(self, user: int) -> Rational:
        """Total cached length at ``user`` over all N files, in units of F."""
        cached = (sf.length for sf in self.layout if user in sf.owners)
        return self.N * sum(cached, ZERO)

    def user_intervals(self, user: int) -> dict[int, list[tuple[Rational, Rational]]]:
        """Merged (start, stop) coverage per file for one user's cache; every
        file is cached alike, so each file maps to the same list."""
        ivs: list[tuple[Rational, Rational]] = []
        for start, stop in sorted((seg.start, seg.stop) for sf in self.layout
                                  if user in sf.owners for seg in sf.segments):
            if ivs and start <= ivs[-1][1]:
                ivs[-1] = (ivs[-1][0], max(ivs[-1][1], stop))
            else:
                ivs.append((start, stop))
        return dict.fromkeys(range(1, self.N + 1), ivs) if ivs else {}

    @property
    def stage1_content(self) -> dict[UserSet, tuple[Segment, ...]]:
        """Map stage-1 set -> the subfile's segments in every file.

        Only an unrefined placement has one subfile per key (its two layers
        have owner sets of different sizes); refinement scatters a stage-1
        subfile over several entries.
        """
        layout = self.layout
        content = {sf.stage1_set: sf.segments for sf in layout}
        if len(content) != len(layout):
            raise ValueError("refined placement: its stage-1 subfiles are scattered")
        return content


@dataclass(frozen=True, slots=True)
class Part:
    """One XOR component of a transmission, useful to exactly one user."""

    segment: Segment
    target: int


@dataclass(frozen=True, slots=True)
class Transmission:
    """XOR of equal-length parts, broadcast once over the shared link
    (``simulator.compile_plan`` checks the widths, in bits)."""

    parts: tuple[Part, ...]

    @property
    def length(self) -> Rational:
        return self.parts[0].segment.length


@dataclass(frozen=True)
class DeliveryPlan:
    transmissions: tuple[Transmission, ...]

    @property
    def total_load(self) -> Rational:
        """Sum of transmission lengths, in units of F."""
        return sum((tx.length for tx in self.transmissions), ZERO)


def split_segments(
    items: Sequence[tuple[Tag, Segment]], cuts: Sequence[Rational]
) -> list[list[tuple[Tag, Segment]]]:
    """Cut the concatenation of ``items``' segments at the given content offsets.

    Each item is a (tag, segment) pair; both halves of a cut segment keep its
    tag, so a caller can tell where every piece came from without searching.
    ``cuts`` must be strictly increasing and at most the total length;
    returns len(cuts)+1 ordered groups that tile the input.
    """
    groups: list[list[tuple[Tag, Segment]]] = [[]]
    pos = ZERO
    cut_iter = iter(cuts)
    cut = next(cut_iter, None)
    for tag, seg in items:
        while cut is not None and pos < cut < pos + seg.length:
            head_len = cut - pos
            groups[-1].append((tag, Segment(seg.start, head_len)))
            seg = Segment(seg.start + head_len, seg.length - head_len)
            pos = cut
            groups.append([])
            cut = next(cut_iter, None)
        groups[-1].append((tag, seg))
        pos += seg.length
        if cut is not None and cut == pos:
            groups.append([])
            cut = next(cut_iter, None)
    if cut is not None:
        raise ValueError("cut offsets exceed the content length")
    return groups


def aligned_transmissions(
    components: Sequence[tuple[Sequence[Segment], int]]
) -> list[Transmission]:
    """Turn equal-length multi-segment components into aligned XOR pieces.

    Each component is (ordered segments, target user).  Content is cut at the
    union of all internal segment boundaries so that every resulting
    transmission XORs exactly one contiguous segment per component.
    """
    totals = {sum((s.length for s in segs), ZERO) for segs, _ in components}
    if len(totals) != 1:
        raise ValueError(f"XOR components must have equal total length, got {totals}")
    total = totals.pop()
    if total == 0:
        return []
    cuts = sorted({
        acc for segs, _ in components for acc in accumulate(s.length for s in segs[:-1])
    })
    pieces = [
        split_segments([(target, seg) for seg in segs], cuts)
        for segs, target in components
    ]
    out: list[Transmission] = []
    for groups in zip(*pieces):
        if any(len(group) != 1 for group in groups):
            raise ValueError("cut groups must be single segments")
        out.append(Transmission(tuple(Part(seg, target) for [(target, seg)] in groups)))
    return out


# ---------------------------------------------------------------------------
# Placement and delivery construction
# ---------------------------------------------------------------------------


def man_placement(
    N: int,
    K: int,
    t: int,
    layer: str = ALPHA,
    layer_fraction: Rational = ONE,
    layer_start: Rational = ZERO,
    ground: UserSet | None = None,
) -> Placement:
    """Owner-subset placement of one memory-sharing layer.

    The layer [layer_start, layer_start + layer_fraction) of each file is split
    into C(|ground|, t) equal subfiles, one per size-t subset of ``ground``
    (all K users by default), laid out in subset-lexicographic order.
    """
    ground = users_range(K) if ground is None else ground
    if t < 0 or t > len(ground):
        raise ValueError(f"need 0 <= t <= |ground|, got t={t}")
    if layer_fraction == 0:
        return Placement(N=N, K=K, blocks=())
    subsets = enumerate_subsets(ground, t)
    sub_len = Fraction(layer_fraction, len(subsets))
    block = tuple(
        Subfile(layer, T, T, (Segment(layer_start + j * sub_len, sub_len),))
        for j, T in enumerate(subsets)
    )
    return Placement(N=N, K=K, blocks=(block,))


def equal_placement(N: int, K: int, M, ground: UserSet | None = None) -> Placement:
    """Both memory-sharing layers of the equal-cache placement for cache size M.

    ``ground`` restricts the placement to a subset of the K users (all of
    them by default); the scheme is then the one for |ground| users.
    """
    ground = users_range(K) if ground is None else ground
    p = equal_params(N, len(ground), M)
    # (layer, t, start, fraction); beta is empty when t is an integer
    layers = ((ALPHA, p.t_int, ZERO, p.alpha),
              (BETA, p.t_int + 1, p.alpha, ONE - p.alpha))
    blocks = tuple(chain.from_iterable(
        man_placement(N, K, t, layer, fraction, start, ground).blocks
        for layer, t, start, fraction in layers if fraction
    ))
    return Placement(N=N, K=K, blocks=blocks)


def check_demands(d: Sequence[int], N: int, K: int) -> tuple[int, ...]:
    d = tuple(d)
    if len(d) != K:
        raise ValueError(f"demand vector must have length K={K}, got {len(d)}")
    bad = [x for x in d if not 1 <= x <= N]
    if bad:
        raise ValueError(f"demand index outside 1..{N}: {bad[0]}")
    return d


def delivery_subsets(
    content: Mapping[UserSet, object], ground: UserSet
) -> list[UserSet]:
    """The user subsets an equal-cache layout is delivered over, in order.

    A layout at level (t_int, alpha) has owner sets of size t_int, and of
    size t_int + 1 when alpha < 1, so the keys of its content map say which
    level each piece belongs to.  Owner sets of size k are served over the
    (k+1)-subsets of ``ground``, smallest k first.
    """
    return [S for k in sorted({len(T) for T in content})
            for S in enumerate_subsets(ground, k + 1)]


def xor_delivery(
    content: Mapping[UserSet, Sequence[Segment]], subsets: Iterable[UserSet]
) -> list[Transmission]:
    """XOR delivery over the given user subsets, as a template.

    For each subset S, in order: the XOR over s in S of the piece owned by
    S - {s}, looked up as content[S - {s}], for user s.
    """
    out: list[Transmission] = []
    for S in subsets:
        out.extend(aligned_transmissions([
            (content[S[:i] + S[i + 1:]], s) for i, s in enumerate(S)
        ]))
    return out


def equal_delivery(
    content: Mapping[UserSet, Sequence[Segment]], ground: UserSet
) -> list[Transmission]:
    """XOR delivery of an equal-cache layout over ``ground``: every subset
    ``delivery_subsets`` lists."""
    return xor_delivery(content, delivery_subsets(content, ground))


def retarget(template: DeliveryPlan, d: Sequence[int]) -> DeliveryPlan:
    """The plan for demand ``d``: the part for user k reads file d[k-1].

    Every file is laid out alike, so a template's parts name only offsets
    and a target, and the demand supplies each part's file.
    """
    return DeliveryPlan(tuple(
        Transmission(tuple(
            Part(FileSegment(p.segment.start, p.segment.length, d[p.target - 1]),
                 p.target)
            for p in tx.parts
        ))
        for tx in template.transmissions
    ))
