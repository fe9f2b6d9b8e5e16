"""The pooled refinement: grow a cache layout without moving bits.

``refine_pool`` is the only refinement.  A subfile owned by user set T can be
split into equal parts, one per user of the pool outside T; handing part j to
user j yields, after regrouping by T + {j}, the owner-subset placement with
parameter t+1 while every already-placed bit stays where it was.  Repeating
the step, and splitting a final level into a kept and a promoted share,
reaches any memory-sharing level (t2_int, a2, D2), alpha = a2/D2, as
``equal_cache.sharing_level`` reads it.  The two-level scheme
runs it on the large-cache group; with the pool set to every user it is one
plain refinement step of an equal-cache placement.  Every file is laid out
alike, so the refinement runs once, on the one file a ``Placement`` stores.
Every offset and length is an integer in the placement's unit.  Each
promotion cuts an owner set's (offset, length) pieces with one
``equal_cache.cut_segments`` walk and appends every part straight to the
next level's owner set; each piece ends as one refined subfile.  Besides the
refined placement it returns the pool's content keyed by owner set, which
``equal_cache.equal_delivery`` serves like any equal-cache layout.

The kept/promoted split uses a uniform keep fraction across the merged level
content; the source only fixes sizes, so the specific byte choice is ours and
is made deterministically (first pieces keep, remainder promotes; promoted
parts go to candidate users in increasing index order).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import UserSet, binom, divide, user_set
from .equal_cache import Level, Placement, Span, Subfile, cut_segments

# A refinement piece: one (offset, length) run, tagged with the stage-1
# subfile it was cut from.  Its owner set is the key it is filed under in a
# State.
Piece = tuple[Subfile, Span]
State = dict[UserSet, list[Piece]]


def _pieces_length(pieces: list[Piece]) -> int:
    return sum(n for _, (_, n) in pieces)


def split_factor(pool_size: int, s0: int, level: Level) -> int:
    """What the refinement of a pool of ``pool_size`` users, from owner-set
    size s0 to the level (t2_int, a2, D2), divides its pieces' lengths by.

    Each whole-level promotion from size s cuts every owner set's content
    into pool_size - s parts; a final split keeps a2/D2 of the pool at
    t2_int, C(pool_size, t2_int) sets, and cuts the rest into
    pool_size - t2_int parts.  A pool whose stage-1 pieces are multiples of
    this factor is refined in whole units.
    """
    t2_int, a2, D2 = level
    factor = math.prod(pool_size - s for s in range(s0, t2_int))
    if a2 < D2:
        factor *= D2 * binom(pool_size, t2_int) * (pool_size - t2_int)
    return factor


def _promote_once(
    state: State, ground: UserSet, keep: tuple[int, int], promoted: State
) -> State:
    """Keep the fraction keep[0]/keep[1] of every owner set's content and
    promote the rest.

    The promoted share of set T is divided into |ground - T| equal parts;
    part r is appended to promoted[T + {j}] for the r-th user j of ground - T
    (ascending), so it joins the next level's state.  One ``cut_segments``
    walk per set cuts the kept share and every part.  Returns the kept shares.
    """
    kept: State = {}
    for T in sorted(state):
        pieces = state[T]
        total = _pieces_length(pieces)
        if total == 0:
            continue
        others = [u for u in ground if u not in T]
        kept_length = divide(total * keep[0], keep[1])
        width = divide(total - kept_length, len(others))
        bounds = [kept_length + width * r for r in range(len(others) + 1)]
        shares = [kept.setdefault(T, [])]
        shares += (promoted.setdefault(user_set(T + (j,)), []) for j in others)
        for k, i, span in cut_segments([span for _, span in pieces], bounds):
            shares[k].append((pieces[i][0], span))
    return kept


def refine_pool(
    placement: Placement,
    pool_users: UserSet,
    level: Level,
) -> tuple[Placement, dict[UserSet, tuple[Span, ...]]]:
    """Refine the intra-pool subfiles toward the memory-sharing level
    (t2_int, a2, D2), with alpha = a2/D2 at t2_int.

    Subfiles entirely owned inside ``pool_users`` form a pooled file placed
    at one or two consecutive owner-set sizes.  Whole levels are promoted
    until the lower level reaches t2_int, then a uniform share (a2/D2)/p of
    each subfile is kept there and the remainder promoted once more.
    Content never moves; each user in the pool gains exactly the same length.
    Every cut is a whole number of the placement's unit: the caller lays the
    pool out in a unit that ``split_factor`` divides, and a cut that does not
    divide it raises ``ValueError``.

    Returns the refined placement and the pool as an equal-cache layout over
    the pool users: a map from owner set to the ordered (offset, length)
    pairs it owns, the same in every file.  Owner sets of size t2_int hold
    the kept level, those of size t2_int + 1 (present when a2 < D2) the
    promoted one, whatever stage-1 layer the bits came from.
    """
    pool = user_set(pool_users)
    members = set(pool)
    pool_sfs = [sf for sf in placement.layout if members.issuperset(sf.owners)]
    if not pool_sfs:
        raise ValueError("empty pool: no subfile is owned entirely inside the pool")

    levels = sorted({len(sf.owners) for sf in pool_sfs})
    if len(levels) > 2 or (len(levels) == 2 and levels[1] != levels[0] + 1):
        raise ValueError(f"pool is not a memory-sharing placement, levels {levels}")
    s0 = levels[0]
    t2_int, a2, D2 = level
    if not 0 <= t2_int <= len(pool) or not 0 < a2 <= D2:
        raise ValueError(f"invalid refinement target ({t2_int}, {a2}, {D2})")

    # the pool is at t = t_pool/pool_total and the target at t' = t_target/D2,
    # compared by cross-multiplying
    pool_total = sum(sf.n for sf in pool_sfs)
    low0 = sum(sf.n for sf in pool_sfs if len(sf.owners) == s0)
    t_pool = (s0 + 1) * pool_total - low0
    t_target = (t2_int + 1) * D2 - a2
    if t_target * pool_total < t_pool * D2:
        raise ValueError(
            f"cannot shrink placement: target t'={Fraction(t_target, D2)} below "
            f"current {Fraction(t_pool, pool_total)}"
        )
    if t_target > len(pool) * D2:
        raise ValueError("nothing to refine: owner sets already cover the pool")

    rest = tuple(
        tuple(sf for sf in block if not members.issuperset(sf.owners))
        for block in placement.blocks
    )

    low: State = {}
    high: State = {}
    for sf in pool_sfs:
        target = low if len(sf.owners) == s0 else high
        target.setdefault(sf.owners, []).append((sf, (sf.a, sf.n)))
    for _ in range(s0, t2_int):
        _promote_once(low, pool, (0, 1), high)
        low, high = high, {}
    low_length = _pieces_length([pc for pieces in low.values() for pc in pieces])
    if low_length * D2 < a2 * pool_total:
        raise ValueError("inconsistent refinement target")  # ruled out by budget
    if low_length * D2 > a2 * pool_total:
        # keep (a2/D2) / (low_length/pool_total) of the level
        low = _promote_once(low, pool, (a2 * pool_total, D2 * low_length), high)

    refined_block: list[Subfile] = []
    content: dict[UserSet, tuple[Span, ...]] = {}
    for state in (low, high):
        for T in sorted(state):
            pieces = state[T]
            refined_block.extend(
                Subfile(sf.layer, sf.stage1_set, T, a, n) for sf, (a, n) in pieces
            )
            content[T] = tuple(span for _, span in pieces)

    refined = Placement(placement.N, placement.K, placement.unit,
                        rest + (tuple(refined_block),))
    return refined, content
