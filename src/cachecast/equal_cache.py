"""Equal-cache centralized caching: placement, XOR delivery, and the exact rate.

Every file of unit size is split into subfiles indexed by user subsets; a
subfile sits in a user's cache iff the user belongs to its owner set.  With
t = K*M/N an integer, owner sets have size t and delivery sends, for every
(t+1)-subset S of users, the XOR of the subfiles wanted by each member of S
and cached by the other members.  Non-integer t is realized by memory
sharing: the first alpha fraction of every file runs the scheme with
parameter t_int, the rest with t_int + 1.

This module holds the one builder of each basic step, shared by both schemes:

- ``man_placement`` lays out one memory-sharing layer over a ground set of
  users; ``equal_placement`` stacks the layers.  It is the two-level scheme's
  stage 1, and over the small users its scenario-2 remainder.
- ``xor_delivery`` serves one layer over the user subsets a caller picks;
  ``equal_delivery`` runs it over both layers of an equal-cache layout, be it
  a placement's or the refined pool's (see ``incremental.PoolIndex``).  Both
  serve the identity demand, user k wanting file k.
- ``retarget`` turns that identity-demand template into the plan for any
  demand.  Every file is laid out alike, so a demand only swaps the file
  each part reads; ``retarget`` is the one place a demand enters a plan.
- ``split_segments`` cuts an ordered list of tagged segments at offsets; it
  aligns XOR parts here and splits subfiles in the pooled refinement.

All offsets and lengths are fractions of the file size F, so a later
bit-level realization only has to scale by one common denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, TypeVar

from .core import Rational, UserSet, binom, enumerate_subsets, users_range

# Memory-sharing layer tags.  The alpha layer is the first alpha*F bits of a
# file, the beta layer the remaining (1-alpha)*F bits.
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

    def layer_fraction(self, layer: str) -> Rational:
        return self.alpha if layer == ALPHA else ONE - self.alpha

    def layer_start(self, layer: str) -> Rational:
        return ZERO if layer == ALPHA else self.alpha

    def layer_t(self, layer: str) -> int:
        return self.t_int if layer == ALPHA else self.t_int + 1

    @property
    def layers(self) -> list[str]:
        """Layers with non-zero size (beta vanishes when t is an integer)."""
        return [ALPHA] if self.alpha == 1 else [ALPHA, BETA]


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
    """A contiguous slice of one file: offsets are fractions of F."""

    file: int
    start: Rational
    length: Rational

    @property
    def stop(self) -> Rational:
        return self.start + self.length


@dataclass(frozen=True, slots=True)
class Subfile:
    """A placed piece of content.

    ``stage1_set`` is the owner set assigned by the first-stage placement and
    never changes; ``owners`` grows when an incremental refinement adds the
    piece to further caches.  ``segments`` is ordered (refined pieces keep the
    order in which they were concatenated, which delivery relies on).
    """

    file: int
    layer: str
    stage1_set: UserSet
    owners: UserSet
    segments: tuple[Segment, ...]

    @property
    def length(self) -> Rational:
        return sum((s.length for s in self.segments), ZERO)


@dataclass(frozen=True)
class Placement:
    """All placed subfiles of a system with N files and K users."""

    N: int
    K: int
    subfiles: tuple[Subfile, ...]

    def user_subfiles(self, user: int) -> list[Subfile]:
        return [sf for sf in self.subfiles if user in sf.owners]

    def user_load(self, user: int) -> Rational:
        """Total cached length at ``user``, in units of F."""
        return sum((sf.length for sf in self.user_subfiles(user)), ZERO)

    def user_intervals(self, user: int) -> dict[int, list[tuple[Rational, Rational]]]:
        """Merged (start, stop) coverage per file for one user's cache."""
        raw: dict[int, list[tuple[Rational, Rational]]] = {}
        for sf in self.user_subfiles(user):
            for seg in sf.segments:
                raw.setdefault(sf.file, []).append((seg.start, seg.stop))
        return {f: merge_intervals(ivs) for f, ivs in raw.items()}

    @property
    def stage1_content(self) -> dict[tuple[int, str, UserSet], tuple[Segment, ...]]:
        """Map (file, layer, stage1 set) -> the subfile's segments.

        Only an unrefined placement has one subfile per key; refinement
        scatters a stage-1 subfile over several entries.
        """
        content = {
            (sf.file, sf.layer, sf.stage1_set): sf.segments for sf in self.subfiles
        }
        if len(content) != len(self.subfiles):
            raise ValueError("refined placement: its stage-1 subfiles are scattered")
        return content


def merge_intervals(
    intervals: Iterable[tuple[Rational, Rational]],
) -> list[tuple[Rational, Rational]]:
    out: list[tuple[Rational, Rational]] = []
    for start, stop in sorted(intervals):
        if out and start <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], stop))
        else:
            out.append((start, stop))
    return out


@dataclass(frozen=True, slots=True)
class Part:
    """One XOR component of a transmission, useful to exactly one user."""

    segment: Segment
    target: int


@dataclass(frozen=True, slots=True)
class Transmission:
    """XOR of equal-length parts, broadcast once over the shared link."""

    parts: tuple[Part, ...]

    def __post_init__(self) -> None:
        lengths = {p.segment.length for p in self.parts}
        if len(lengths) != 1:
            raise ValueError(f"XOR parts must have equal length, got {lengths}")

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
            groups[-1].append((tag, Segment(seg.file, seg.start, head_len)))
            seg = Segment(seg.file, seg.start + head_len, seg.length - head_len)
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
    boundaries: set[Rational] = set()
    for segs, _ in components:
        acc = ZERO
        for seg in segs[:-1]:
            acc += seg.length
            boundaries.add(acc)
    cuts = sorted(boundaries)
    pieces = [
        split_segments([(target, seg) for seg in segs], cuts)
        for segs, target in components
    ]
    out: list[Transmission] = []
    for idx in range(len(cuts) + 1):
        parts = []
        for comp_pieces in pieces:
            group = comp_pieces[idx]
            if len(group) != 1:
                raise ValueError("cut groups must be single segments")
            target, seg = group[0]
            parts.append(Part(seg, target))
        out.append(Transmission(tuple(parts)))
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
    subsets = enumerate_subsets(ground, t)
    sub_len = Fraction(layer_fraction, len(subsets))
    subfiles = []
    if layer_fraction > 0:
        for file in range(1, N + 1):
            for j, T in enumerate(subsets):
                seg = Segment(file, layer_start + j * sub_len, sub_len)
                subfiles.append(Subfile(file, layer, T, T, (seg,)))
    return Placement(N=N, K=K, subfiles=tuple(subfiles))


def equal_placement(N: int, K: int, M, ground: UserSet | None = None) -> Placement:
    """Both memory-sharing layers of the equal-cache placement for cache size M.

    ``ground`` restricts the placement to a subset of the K users (all of
    them by default); the scheme is then the one for |ground| users.
    """
    ground = users_range(K) if ground is None else ground
    p = equal_params(N, len(ground), M)
    subfiles: list[Subfile] = []
    for layer in p.layers:
        lp = man_placement(
            N, K, p.layer_t(layer), layer,
            p.layer_fraction(layer), p.layer_start(layer), ground,
        )
        subfiles.extend(lp.subfiles)
    return Placement(N=N, K=K, subfiles=tuple(subfiles))


def check_demands(d: Sequence[int], N: int, K: int) -> tuple[int, ...]:
    d = tuple(d)
    if len(d) != K:
        raise ValueError(f"demand vector must have length K={K}, got {len(d)}")
    bad = [x for x in d if not 1 <= x <= N]
    if bad:
        raise ValueError(f"demand index outside 1..{N}: {bad[0]}")
    return d


def xor_delivery(
    content: Mapping[tuple[int, str, UserSet], Sequence[Segment]],
    layer: str,
    subsets: Iterable[UserSet],
) -> list[Transmission]:
    """XOR delivery of one layer over the given user subsets, identity demand.

    For each subset S, in order: the XOR over s in S of the piece of file s
    owned by S - {s}, looked up as content[(s, layer, S - {s})].
    """
    out: list[Transmission] = []
    for S in subsets:
        out.extend(aligned_transmissions([
            (content[(s, layer, S[:i] + S[i + 1:])], s) for i, s in enumerate(S)
        ]))
    return out


def equal_delivery(
    content: Mapping[tuple[int, str, UserSet], Sequence[Segment]],
    ground: UserSet,
    t_int: int,
    alpha: Rational,
) -> list[Transmission]:
    """XOR delivery of an equal-cache layout with parameters (t_int, alpha).

    The alpha layer is served over the (t_int+1)-subsets of ``ground``, the
    beta layer (present when alpha < 1) over the (t_int+2)-subsets.
    """
    txs = xor_delivery(content, ALPHA, enumerate_subsets(ground, t_int + 1))
    if alpha != 1:
        txs.extend(xor_delivery(content, BETA, enumerate_subsets(ground, t_int + 2)))
    return txs


def retarget(template: DeliveryPlan, d: Sequence[int]) -> DeliveryPlan:
    """The plan for demand ``d``: the part for user k reads file d[k-1].

    ``template`` must serve the identity demand, every part carrying its
    target's file; the rest of its geometry is the same for every demand.
    """
    txs = []
    for tx in template.transmissions:
        parts = []
        for p in tx.parts:
            if p.segment.file != p.target:
                raise ValueError(
                    f"template is not retargetable: part for user {p.target} "
                    f"carries file {p.segment.file}"
                )
            seg = Segment(d[p.target - 1], p.segment.start, p.segment.length)
            parts.append(Part(seg, p.target))
        txs.append(Transmission(tuple(parts)))
    return DeliveryPlan(tuple(txs))
