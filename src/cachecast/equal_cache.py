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

- ``equal_placement`` is the one layered placement builder: it lays out
  both memory-sharing layers in a window (s, w, E) of the file, the span
  [s/E, (s + w)/E), the whole file by default, each layer cut into one
  equal subfile per owner set.  It is the equal-cache scheme, the two-level
  scheme's stage 1, and over the small users its scenario-2 remainder:
  there the window is the remainder's share, and the large users, passed as
  ``also``, own every subfile besides its stage-1 set.
- ``delivery_subsets`` is the one delivery rule.  Content is keyed by owner
  set alone: within one layout, the alpha layer's owner sets have size
  t_int and the beta layer's t_int + 1, so the keys' sizes say what to send,
  one XOR per (k+1)-subset for each owner-set size k.  ``xor_delivery``
  sends the XORs of the subsets a caller picks; ``equal_delivery`` sends all
  of them, for a placement's layout or the refined pool's
  (``incremental.refine_pool``).  Both emit template rows.
- ``cut_segments`` is the one interval cutter: one walk over an ordered run
  of (offset, length) pairs against increasing offsets.
  ``aligned_transmissions`` is the one builder of rows.  An XOR whose
  components are each one pair, as every stage-1 XOR is, becomes its one
  row directly, with nothing to cut.  Only an XOR with a multi-pair
  component, which only the refined pool's content can hold, is cut:
  ``cut_segments`` runs on each multi-pair component at the union of all
  components' pair ends, so each piece is one pair per component, and one
  row is emitted per piece.  The pooled refinement runs it to cut a kept
  share and equal promoted parts.

A template (``DeliveryPlan``) is one unit and integer rows: transmission t
is (width, ((target, offset), ...)), the XOR of parts that are all
``width`` units long, so equal widths need no check.  A row names no file.
A demand is bound, never built in: ``BoundPlan`` pairs a template with a
demand, and the part for user k reads file d[k-1].  Nothing is made per
demand; ``simulator`` reads the template and applies the demand where it
reads file bits, compiling each template once per file size.

A placement is one unit and integer subfiles in the same way:
``Placement(N, K, unit, blocks)``, each subfile ``n`` units from offset
``a``, in units of F/``unit``.  The unit is fixed before anything is built:
``equal_placement`` takes it (by default the coarsest one in which its
layout is whole, ``window_unit``), the template is made where that unit is
fixed, nothing rescales a built placement, and every cut is exact, so a
remainder raises rather than rounds.  The layout arithmetic is in integers
too: a window is (s, w, E), the span [s/E, (s + w)/E) of the file, and a
memory-sharing level is (t_int, a, D) with alpha = a/D in lowest terms
(``sharing_level``, the one reader of t = K*M/N), so every layer's start
and length is a numerator over E*D (``_layers``).
Delivery content maps owner sets to tuples of (offset, length) pairs in
that unit, and a bit-level realization only has to scale the integers
(``simulator.required_bits``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .core import (
    Rational, UserSet, binom, divide, enumerate_subsets, user_set, users_range,
)

# Memory-sharing layer tags.  The alpha layer is the first alpha*F bits of a
# file, the beta layer the remaining (1-alpha)*F bits.  A subfile records its
# layer; delivery reads the level off the owner set's size instead.
ALPHA = "alpha"
BETA = "beta"

# A memory-sharing level (t_int, a, D): owner sets of size t_int on the
# first alpha = a/D of a window, of size t_int + 1 on the rest.
Level = tuple[int, int, int]
# A window [s/E, (s + w)/E) of the file, as the integers (s, w, E).
Window = tuple[int, int, int]
WHOLE: Window = (0, 1, 1)


class EqualCacheParams(NamedTuple):
    """Derived parameters of the equal-cache scheme for (N, K, M)."""

    N: int
    K: int
    M: Rational
    t: Rational
    t_int: int
    alpha: Rational


def sharing_level(N: int, K: int, M) -> Level:
    """Check (N, K, M) and read t = K*M/N as the memory-sharing level
    (t_int, a, D): t = t_int + 1 - a/D, with a/D in lowest terms and
    0 < a <= D, so alpha = a/D.

    With M = p/q, t = T/(N*q) for T = K*p, t_int = T // (N*q), and
    alpha*N*q = (t_int + 1)*N*q - T, reduced by its gcd with N*q.
    """
    if K < 1:
        raise ValueError(f"need at least one user, got K={K}")
    if K > N:
        raise ValueError(f"unsupported regime K > N (K={K}, N={N})")
    if not isinstance(M, Fraction):
        M = Fraction(M)
    p, q = M.numerator, M.denominator
    if p < 0 or p > N * q:
        raise ValueError(f"cache size must satisfy 0 <= M <= N, got M={M}")
    T, D = K * p, N * q
    t_int = T // D
    a = (t_int + 1) * D - T
    g = math.gcd(a, D)
    return t_int, a // g, D // g


def equal_params(N: int, K: int, M) -> EqualCacheParams:
    """Compute t = K*M/N, its floor, and the memory-sharing weight alpha."""
    t_int, a, D = sharing_level(N, K, M)
    return EqualCacheParams(N=N, K=K, M=M if isinstance(M, Fraction) else Fraction(M),
                            t=Fraction((t_int + 1) * D - a, D), t_int=t_int,
                            alpha=Fraction(a, D))


def rate_eq(N: int, K: int, M) -> Rational:
    """Worst-case rate of the equal-cache scheme, as an exact rational.

    alpha * C(K, t+1)/C(K, t) + (1-alpha) * C(K, t+2)/C(K, t+1) at t = t_int,
    which reduces to (K-t)/(1+t) at integer t.  As C(K, t+1)/C(K, t) =
    (K-t)/(t+1), with alpha = a/D (``sharing_level``) it is the one fraction
    (a(K-t)(t+2) + (D-a)(K-t-1)(t+1)) / (D(t+1)(t+2)), summed in integers.
    """
    t, a, D = sharing_level(N, K, M)
    return Fraction(a * (K - t) * (t + 2) + (D - a) * (K - t - 1) * (t + 1),
                    D * (t + 1) * (t + 2))


# ---------------------------------------------------------------------------
# Placement and delivery data model
# ---------------------------------------------------------------------------


# A run of content as (offset, length), integers in units of F/unit.
Span = tuple[int, int]


class Subfile(NamedTuple):
    """A placed piece of content, cut alike from every file: ``n`` units
    from offset ``a``, in the unit of its placement.

    ``stage1_set`` is the owner set assigned by the first-stage placement and
    never changes; ``owners`` grows when an incremental refinement adds the
    piece to further caches.
    """

    layer: str
    stage1_set: UserSet
    owners: UserSet
    a: int
    n: int


class FileSubfile(NamedTuple):
    """One file's copy of a subfile, as ``Placement.subfiles`` lists it:
    the subfile's fields, then its file."""

    layer: str
    stage1_set: UserSet
    owners: UserSet
    a: int
    n: int
    file: int


class Placement(NamedTuple):
    """N files over K users, laid out alike in one unit: ``blocks`` holds
    one file's subfiles, at integer offsets and lengths in units of
    F/``unit``, in the groups the builders emit (a layer, a refinement's
    kept or refined part, a scenario-2 share).  ``subfiles`` lists every
    file's copy, block by block and file-major within each block."""

    N: int
    K: int
    unit: int
    blocks: tuple[tuple[Subfile, ...], ...]

    @property
    def layout(self) -> tuple[Subfile, ...]:
        """One file's subfiles, block by block."""
        return tuple(chain.from_iterable(self.blocks))

    @property
    def subfiles(self) -> tuple[FileSubfile, ...]:
        return tuple(
            FileSubfile(*sf, file)
            for block in self.blocks
            for file in range(1, self.N + 1)
            for sf in block
        )

    def user_load(self, user: int) -> Rational:
        """Total cached length at ``user`` over all N files, in units of F."""
        return Fraction(self.N * sum(sf.n for sf in self.layout if user in sf.owners),
                        self.unit)

    @property
    def stage1_content(self) -> dict[UserSet, tuple[Span, ...]]:
        """Map stage-1 set -> its subfile's (offset, length), alone in a tuple.

        Only an unrefined placement has one subfile per key (its two layers
        have owner sets of different sizes); refinement scatters a stage-1
        subfile over several entries.
        """
        layout = self.layout
        content = {sf.stage1_set: ((sf.a, sf.n),) for sf in layout}
        if len(content) != len(layout):
            raise ValueError("refined placement: its stage-1 subfiles are scattered")
        return content


# One transmission of a template: the XOR of parts ``width`` units long,
# each (target user, offset).  Every part is equally long by construction.
Row = tuple[int, tuple[tuple[int, int], ...]]


class DeliveryPlan:
    """A template: one unit and integer rows.  Transmission t is
    (width, ((target, offset), ...)) in units of F/``unit``: the XOR of the
    parts [offset, offset + width), the one for ``target`` read from the file
    it wants, named by no row.  ``compiled`` holds its bit geometry per file
    size, filled by ``simulator`` the first time a plan bound from it is
    delivered, and stays out of ``==``, ``hash`` and ``repr``."""

    def __init__(self, unit: int, transmissions: tuple[Row, ...]):
        self.unit, self.transmissions, self.compiled = unit, transmissions, {}

    def __eq__(self, other) -> bool:
        return type(other) is DeliveryPlan and (
            (self.unit, self.transmissions) == (other.unit, other.transmissions))

    def __hash__(self) -> int:
        return hash((self.unit, self.transmissions))

    def __repr__(self) -> str:
        return f"DeliveryPlan(unit={self.unit!r}, transmissions={self.transmissions!r})"

    @property
    def total_load(self) -> Rational:
        """Sum of transmission widths, in units of F."""
        return Fraction(sum(width for width, _ in self.transmissions), self.unit)


class BoundPlan(NamedTuple):
    """A template bound to a demand: the part for user k reads file d[k-1].

    Every file is laid out alike, so binding copies nothing: the load and
    the bit geometry are the template's, and a part's file is read off the
    demand as d[target - 1] wherever it is needed.
    """

    template: DeliveryPlan
    demand: tuple[int, ...]

    @property
    def total_load(self) -> Rational:
        return self.template.total_load


def cut_segments(
    segments: Iterable[Span], bounds: Sequence[int]
) -> Iterator[tuple[int, int, Span]]:
    """Cut the concatenation of ``segments``, (offset, length) pairs, at
    increasing content offsets.

    ``bounds`` are offsets in the pairs' unit, non-decreasing, and the last
    one is the content length; interval k runs from bounds[k-1] (0 for k = 0)
    to bounds[k].  Yields (k, i, piece) in content order: the piece of pair
    i that falls in interval k.  A pair no bound cuts is yielded as the same
    object; an empty interval yields nothing.  Bounds that end before or
    past the content raise ``ValueError``.
    """
    k, pos, end = 0, 0, bounds[-1]
    bound = bounds[0]
    for i, seg in enumerate(segments):
        a, n = seg
        stop = pos + n
        if stop > end:
            raise ValueError(f"cut bounds end at {end}, inside the content")
        if stop == pos:
            continue
        while bound <= pos:  # end >= stop > pos, so k stays in range
            k += 1
            bound = bounds[k]
        while bound < stop:
            yield k, i, (a, bound - pos)
            a, pos, k = a + bound - pos, bound, k + 1
            bound = bounds[k]
        yield k, i, seg if a == seg[0] else (a, stop - pos)
        pos = stop
    if pos != end:
        raise ValueError(f"cut bounds end at {end}, past the content length {pos}")


def aligned_transmissions(
    components: Sequence[tuple[Sequence[Span], int]]
) -> list[Row]:
    """Turn equal-length multi-pair components into aligned XOR rows.

    Each component is (ordered (offset, length) pairs, target user), all in
    one unit.  An XOR whose components are each one pair is its one row as
    it stands: the pairs' common length, and each target with its pair's
    offset.  Any other XOR is cut at the union of all components' pair ends
    (``cut_segments``), so that every resulting transmission XORs exactly
    one contiguous run per component, and the widths are the gaps between
    those ends.  A zero total sends nothing.
    """
    if components and len(components[0][0]) == 1:
        width = components[0][0][0][1]
        row = []
        for segs, target in components:  # a loop, not a comprehension: no frame
            if len(segs) != 1 or segs[0][1] != width:
                break
            row.append((target, segs[0][0]))
        else:
            return [(width, tuple(row))] if width else []
    ends: set[int] = set()
    totals: set[int] = set()
    for segs, _ in components:
        pos = 0
        for _, n in segs:
            pos += n
            ends.add(pos)
        totals.add(pos)
    ends.discard(0)  # a leading zero-length pair ends no interval
    if len(totals) != 1:
        raise ValueError(f"XOR components must have equal total length, got {totals}")
    if not totals.pop():
        return []
    bounds = sorted(ends)
    columns = []
    for segs, target in components:  # a loop, not a comprehension: no frame each
        column = []
        for _, _, (a, _) in cut_segments(segs, bounds):
            column.append((target, a))
        columns.append(column)
    widths = [b - a for a, b in zip([0] + bounds, bounds)]
    return list(zip(widths, zip(*columns, strict=True), strict=True))


# ---------------------------------------------------------------------------
# Placement and delivery construction
# ---------------------------------------------------------------------------


def _layers(level: Level, window: Window) -> list[tuple[str, int, int, int]]:
    """(layer, t, start, length) of each memory-sharing layer of the window
    (s, w, E) at level (t_int, a, D), as numerators over E*D: alpha takes
    [s*D, s*D + w*a), beta the rest.  Beta is absent when a = D."""
    t, a, D = level
    s, w, _ = window
    layers = ((ALPHA, t, s * D, w * a), (BETA, t + 1, s * D + w * a, w * (D - a)))
    return [layer for layer in layers if layer[3]]


def window_unit(K: int, level: Level, window: Window = WHOLE) -> int:
    """The coarsest unit in which ``equal_placement`` at ``level``, over K
    users, lays out ``window`` in whole units: every layer's start, and its
    share of each of its C(K, t) subfiles."""
    den = window[2] * level[2]
    unit = 1
    for _, t, start, length in _layers(level, window):
        share = den * binom(K, t)
        unit = math.lcm(unit, den // math.gcd(start, den), share // math.gcd(length, share))
    return unit


def equal_placement(
    N: int,
    K: int,
    M,
    ground: UserSet | None = None,
    window: Window = WHOLE,
    also: UserSet = (),
    unit: int | None = None,
) -> Placement:
    """Both memory-sharing layers of the equal-cache placement for cache size M.

    ``ground`` restricts the placement to a subset of the K users (all of
    them by default); the scheme is then the one for |ground| users.  The
    placement fills the window (s, w, E), the span [s/E, (s + w)/E) of every
    file (the whole file by default): the alpha layer its first alpha share,
    the beta layer the rest.  Each layer, at owner-set size t, is one block of
    C(|ground|, t) equal subfiles, one per size-t subset T of ``ground`` in
    subset-lexicographic order; the subfile of T is owned by T and by the
    users ``also``, who cache the whole window besides, and its
    ``stage1_set`` is T.  Offsets are whole units of F/``unit``, by default
    ``window_unit``'s; a unit that does not cut the window evenly raises
    ``ValueError``.
    """
    ground = users_range(K) if ground is None else ground
    level = sharing_level(N, len(ground), M)
    if unit is None:
        unit = window_unit(len(ground), level, window)
    den = window[2] * level[2]
    blocks = []
    for layer, t, layer_start, length in _layers(level, window):
        subsets = enumerate_subsets(ground, t)
        a = divide(layer_start * unit, den)
        size = divide(length * unit, den * len(subsets))
        blocks.append(tuple(
            Subfile(layer, T, user_set(T + also) if also else T, a + j * size, size)
            for j, T in enumerate(subsets)
        ))
    return Placement(N, K, unit, tuple(blocks))


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
    content: Mapping[UserSet, Sequence[Span]], subsets: Iterable[UserSet]
) -> list[Row]:
    """XOR delivery over the given user subsets, as template rows.

    For each subset S, in order: the XOR over s in S of the piece owned by
    S - {s}, looked up as content[S - {s}], for user s.
    """
    out: list[Row] = []
    for S in subsets:
        out.extend(aligned_transmissions([
            (content[S[:i] + S[i + 1:]], s) for i, s in enumerate(S)
        ]))
    return out


def equal_delivery(
    content: Mapping[UserSet, Sequence[Span]], ground: UserSet
) -> list[Row]:
    """XOR delivery of an equal-cache layout over ``ground``: every subset
    ``delivery_subsets`` lists."""
    return xor_delivery(content, delivery_subsets(content, ground))
