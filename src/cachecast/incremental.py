"""The pooled refinement: grow a cache layout without moving bits.

``refine_pool`` is the only refinement.  A subfile owned by user set T can be
split into equal parts, one per user of the pool outside T; handing part j to
user j yields, after regrouping by T + {j}, the owner-subset placement with
parameter t+1 while every already-placed bit stays where it was.  Repeating
the step, and splitting a final level into a kept and a promoted share,
reaches any memory-sharing target (t2_int, alpha2).  The two-level scheme
runs it on the large-cache group; with the pool set to every user it is one
plain refinement step of an equal-cache placement.  Every file is laid out
alike, so the refinement runs once, on the one file a ``Placement`` stores.
Besides the refined placement it returns the pool's content keyed by owner
set, which ``equal_cache.equal_delivery`` serves like any equal-cache layout.

The kept/promoted split uses a uniform keep fraction across the merged level
content; the source only fixes sizes, so the specific byte choice is ours and
is made deterministically (first pieces keep, remainder promotes; promoted
parts go to candidate users in increasing index order).
"""

from __future__ import annotations

from fractions import Fraction

from .core import Rational, UserSet, user_set
from .equal_cache import ZERO, Placement, Segment, Subfile, split_segments

# A refinement piece: one contiguous segment, tagged with the stage-1 subfile
# it was cut from.  Its owner set is the key it is filed under in a State.
Piece = tuple[Subfile, Segment]
State = dict[UserSet, list[Piece]]


def _pieces_length(pieces: list[Piece]) -> Rational:
    return sum((seg.length for _, seg in pieces), ZERO)


def _promote_once(
    state: State, ground: UserSet, keep_fraction: Rational
) -> tuple[State, State]:
    """Split every owner set's content into kept and promoted shares.

    The promoted share of set T is divided into |ground - T| equal parts;
    part r is added to the cache of the r-th user of ground - T (ascending),
    moving that content's owner set to T + {j}.  Returns (kept, promoted).
    """
    kept: State = {}
    promoted: State = {}
    for T in sorted(state):
        pieces = state[T]
        total = _pieces_length(pieces)
        if total == 0:
            continue
        rest = pieces
        if keep_fraction > 0:
            kept[T], rest = split_segments(pieces, [keep_fraction * total])
        others = [u for u in ground if u not in T]
        if not others:
            raise ValueError("nothing to refine: owner sets already cover the pool")
        rest_total = total - keep_fraction * total
        cuts = [rest_total * Fraction(i, len(others)) for i in range(1, len(others))]
        for j, part in zip(others, split_segments(rest, cuts)):
            promoted.setdefault(user_set(T + (j,)), []).extend(part)
    return kept, promoted


def _merge_states(base: State, additions: State) -> State:
    out: State = {T: list(pieces) for T, pieces in base.items()}
    for T, pieces in additions.items():
        out.setdefault(T, []).extend(pieces)
    return out


def refine_pool(
    placement: Placement,
    pool_users: UserSet,
    t2_int: int,
    alpha2: Rational,
) -> tuple[Placement, dict[UserSet, tuple[Segment, ...]]]:
    """Refine the intra-pool subfiles toward a memory-sharing target.

    Subfiles entirely owned inside ``pool_users`` form a pooled file placed
    at one or two consecutive owner-set sizes.  Whole levels are promoted
    until the lower level reaches t2_int, then a uniform alpha2/p share of
    each subfile is kept there and the remainder promoted once more.
    Content never moves; each user in the pool gains exactly the same length.

    Returns the refined placement and the pool as an equal-cache layout over
    the pool users: a map from owner set to the ordered segments it owns,
    the same in every file.  Owner sets of size t2_int hold the kept level,
    those of size t2_int + 1 (present when alpha2 < 1) the promoted one,
    whatever stage-1 layer the bits came from.
    """
    pool = user_set(pool_users)
    members = set(pool)
    rest = tuple(
        tuple(sf for sf in block if not members.issuperset(sf.owners))
        for block in placement.blocks
    )
    pool_sfs = [sf for sf in placement.layout if members.issuperset(sf.owners)]
    if not pool_sfs:
        raise ValueError("empty pool: no subfile is owned entirely inside the pool")

    levels = sorted({len(sf.owners) for sf in pool_sfs})
    if len(levels) > 2 or (len(levels) == 2 and levels[1] != levels[0] + 1):
        raise ValueError(f"pool is not a memory-sharing placement, levels {levels}")
    s0 = levels[0]
    if not 0 <= t2_int <= len(pool) or not 0 < alpha2 <= 1:
        raise ValueError(f"invalid refinement target ({t2_int}, {alpha2})")

    pool_total = sum((sf.length for sf in pool_sfs), ZERO)
    low0 = sum((sf.length for sf in pool_sfs if len(sf.owners) == s0), ZERO)
    t_pool = s0 + (1 - low0 / pool_total)
    t_target = t2_int + 1 - alpha2
    if t_target < t_pool:
        raise ValueError(
            f"cannot shrink placement: target t'={t_target} below current {t_pool}"
        )

    low: State = {}
    high: State = {}
    for sf in pool_sfs:
        target = low if len(sf.owners) == s0 else high
        target.setdefault(sf.owners, []).extend((sf, seg) for seg in sf.segments)
    for _ in range(s0, t2_int):
        _, promoted = _promote_once(low, pool, ZERO)
        low, high = _merge_states(high, promoted), {}
    low_length = _pieces_length([pc for pieces in low.values() for pc in pieces])
    p_frac = low_length / pool_total
    if p_frac < alpha2:
        raise ValueError("inconsistent refinement target")  # ruled out by budget
    if p_frac > alpha2:
        low, promoted = _promote_once(low, pool, alpha2 / p_frac)
        high = _merge_states(high, promoted)

    refined_block: list[Subfile] = []
    content: dict[UserSet, tuple[Segment, ...]] = {}
    for state in (low, high):
        for T in sorted(state):
            pieces = state[T]
            refined_block.extend(
                Subfile(sf.layer, sf.stage1_set, T, (seg,)) for sf, seg in pieces
            )
            content[T] = tuple(seg for _, seg in pieces)

    refined = Placement(placement.N, placement.K, rest + (tuple(refined_block),))
    return refined, content
