"""Two-level caching: L users with a large cache, K - L with a small one.

The placement runs in two stages (``build_two_stage``).  Stage one ignores
the extra cache and lays out the equal-cache placement for (N, K, M)
(``equal_cache.equal_placement``).  Stage two pools the subfiles owned
entirely inside the large-cache group: in every file alike, that pool
behaves like a single file of length F' placed over L users, and the extra
cache is filled by the pooled refinement (``incremental.refine_pool``) to
the equal-cache layout for the derived cache size M' (see
``unequal_params``).  Both levels are delivered by one rule,
``equal_cache.delivery_subsets``: for every owner-set size k of a layout,
one XOR per (k+1)-subset of its users.  Stage one keeps the subsets that
reach a small-cache user; the pool's own ``equal_delivery`` replaces the
rest.

When M' would exceed N (scenario 2, the first branch of ``build_two_stage``),
files are split: a gamma share runs the construction at the boundary cache
size Phi (where M' = N and the pool delivery disappears), and on the
remaining share the large users store everything and drop out, leaving an
equal-cache system over the K - L small users.

``build_two_stage`` builds one file's layout and the template plan once,
whatever N is; ``TwoStageContext.plan`` hands the template to
``equal_cache.retarget``, the one place a demand enters a plan.

``SchemeInstance`` is one scheme at one parameter point, and the one place
a scheme name is dispatched on: its ``RateReport`` and, but for scheme 1,
the placement and plans that ``simulator`` turns into bits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .baselines import scheme1_optimize
from .core import Rational, UserSet, binom, user_set, users_range
from .equal_cache import (
    ZERO,
    DeliveryPlan,
    EqualCacheParams,
    Part,
    Placement,
    Segment,
    Subfile,
    Transmission,
    check_demands,
    delivery_subsets,
    equal_delivery,
    equal_params,
    equal_placement,
    rate_eq,
    retarget,
    xor_delivery,
)
from .incremental import refine_pool


@dataclass(frozen=True)
class UnequalConfig:
    """System shape: users 1..L hold Mhat, users L+1..K hold M (Mhat >= M)."""

    N: int
    K: int
    L: int
    Mhat: Rational
    M: Rational

    def __post_init__(self) -> None:
        object.__setattr__(self, "Mhat", Fraction(self.Mhat))
        object.__setattr__(self, "M", Fraction(self.M))
        if self.K < 1 or self.N < self.K:
            raise ValueError(f"need N >= K >= 1, got N={self.N}, K={self.K}")
        if not 1 <= self.L < self.K:
            raise ValueError(f"need 1 <= L < K, got L={self.L}, K={self.K}")
        if self.Mhat < self.M:
            raise ValueError(f"large cache below small cache: {self.Mhat} < {self.M}")
        if self.M < 0 or self.Mhat > self.N:
            raise ValueError("cache sizes must lie in [0, N]")

    @property
    def large_users(self) -> UserSet:
        return tuple(range(1, self.L + 1))

    @property
    def small_users(self) -> UserSet:
        return tuple(range(self.L + 1, self.K + 1))


@dataclass(frozen=True)
class UnequalParams:
    """Derived quantities of the two-stage construction."""

    base: EqualCacheParams
    L: int
    Mhat: Rational
    Fprime: Rational        # pooled intra-group length per file, units of F
    occupied: Rational      # pool content already cached per large user after stage 1
    Rprime: Rational        # stage-1 load of purely intra-group transmissions
    Mprime: Rational | None  # second-level cache size, units of F'; None if no pool
    scenario: int
    Phi: Rational | None
    gamma: Rational | None
    pool_empty: bool


def unequal_params(cfg: UnequalConfig) -> UnequalParams:
    """Second-level parameters F', M', R' and the scenario split."""
    base = equal_params(cfg.N, cfg.K, cfg.M)
    N, K, L = cfg.N, cfg.K, cfg.L
    ti, aw = base.t_int, base.alpha
    bw = 1 - aw

    fprime = aw * Fraction(binom(L, ti), binom(K, ti))
    occupied = aw * Fraction(binom(L - 1, ti - 1), binom(K, ti)) * N
    rprime = aw * Fraction(binom(L, ti + 1), binom(K, ti))
    if bw:
        fprime += bw * Fraction(binom(L, ti + 1), binom(K, ti + 1))
        occupied += bw * Fraction(binom(L - 1, ti), binom(K, ti + 1)) * N
        rprime += bw * Fraction(binom(L, ti + 2), binom(K, ti + 1))

    # fprime == 0: t exceeds the pool, no subfile lives entirely inside the
    # large group, so the extra cache is unusable by this construction.
    mprime = phi = gamma = None
    if fprime:
        mprime = (occupied + cfg.Mhat - cfg.M) / fprime
        if mprime > N:
            phi = cfg.M - occupied + N * fprime
            gamma = Fraction(N - cfg.Mhat, N - phi)
    return UnequalParams(
        base=base, L=L, Mhat=cfg.Mhat, Fprime=fprime, occupied=occupied,
        Rprime=rprime, Mprime=mprime, scenario=1 if phi is None else 2, Phi=phi,
        gamma=gamma, pool_empty=fprime == 0,
    )


@dataclass(frozen=True)
class RateReport:
    """Achieved rate with every intermediate the CLI and tests care about."""

    scheme: str
    N: int
    K: int
    M: Rational
    rate: Rational
    L: int | None = None
    Mhat: Rational | None = None
    t: Rational | None = None
    t_int: int | None = None
    alpha: Rational | None = None
    Fprime: Rational | None = None
    Mprime: Rational | None = None
    Rprime: Rational | None = None
    Phi: Rational | None = None
    gamma: Rational | None = None
    scenario: int | None = None
    pool_empty: bool = False


def rate_ueq(cfg: UnequalConfig) -> RateReport:
    """Worst-case rate of the two-level scheme, with all intermediates."""
    p = unequal_params(cfg)
    base_rate = rate_eq(cfg.N, cfg.K, cfg.M)
    if p.pool_empty:
        rate = base_rate
    elif p.scenario == 1:
        rate = base_rate - p.Rprime + rate_eq(cfg.N, cfg.L, p.Mprime) * p.Fprime
    else:
        rate = p.gamma * (base_rate - p.Rprime) + (1 - p.gamma) * rate_eq(
            cfg.N, cfg.K - cfg.L, cfg.M
        )
    return RateReport(
        scheme="proposed", N=cfg.N, K=cfg.K, M=cfg.M, rate=rate,
        L=cfg.L, Mhat=cfg.Mhat, t=p.base.t, t_int=p.base.t_int, alpha=p.base.alpha,
        Fprime=p.Fprime, Mprime=p.Mprime, Rprime=p.Rprime, Phi=p.Phi, gamma=p.gamma,
        scenario=p.scenario, pool_empty=p.pool_empty,
    )


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _share(
    placement: Placement,
    txs: Sequence[Transmission],
    factor: Rational,
    offset: Rational,
    add_owners: UserSet = (),
) -> tuple[tuple[tuple[Subfile, ...], ...], list[Transmission]]:
    """A placement's blocks and its template, squeezed into the share
    [offset, offset + factor) of every file."""
    if factor == 0:
        return (), []

    def scale(seg: Segment) -> Segment:
        return Segment(offset + factor * seg.start, factor * seg.length)

    blocks = tuple(
        tuple(
            replace(sf, owners=user_set(sf.owners + add_owners),
                    segments=tuple(map(scale, sf.segments)))
            for sf in block
        )
        for block in placement.blocks
    )
    return blocks, [
        Transmission(tuple(Part(scale(p.segment), p.target) for p in tx.parts))
        for tx in txs
    ]


@dataclass(frozen=True)
class TwoStageContext:
    """Canonical placement of a config and its identity-demand plan."""

    cfg: UnequalConfig
    placement: Placement
    template: DeliveryPlan

    def plan(self, d: Sequence[int]) -> DeliveryPlan:
        return retarget(self.template, check_demands(d, self.cfg.N, self.cfg.K))


def build_two_stage(cfg: UnequalConfig) -> TwoStageContext:
    """Construct the canonical two-stage placement and its identity-demand plan."""
    p = unequal_params(cfg)
    if p.scenario == 2:
        # gamma share at the boundary cache size Phi, remainder share with the
        # large users caching everything and an equal-cache system left over
        # the small users.
        sub = build_two_stage(replace(cfg, Mhat=p.Phi))
        rest_placement = equal_placement(cfg.N, cfg.K, cfg.M, ground=cfg.small_users)
        rest_txs = equal_delivery(rest_placement.stage1_content, cfg.small_users)
        sub_blocks, sub_txs = _share(
            sub.placement, sub.template.transmissions, p.gamma, ZERO
        )
        rest_blocks, rest_txs = _share(
            rest_placement, rest_txs, 1 - p.gamma, p.gamma, cfg.large_users
        )
        return TwoStageContext(
            cfg, Placement(cfg.N, cfg.K, sub_blocks + rest_blocks),
            DeliveryPlan(tuple(sub_txs + rest_txs)),
        )

    # Stage 1: every transmission that serves a small-cache user, i.e. whose
    # (sorted) subset S ends above L.  Those inside the large-cache group are
    # replaced by the pool's delivery.
    placement = equal_placement(cfg.N, cfg.K, cfg.M)
    content = placement.stage1_content
    subsets = delivery_subsets(content, users_range(cfg.K))
    txs = xor_delivery(content, [S for S in subsets if S[-1] > cfg.L])
    if not p.pool_empty:
        second = equal_params(cfg.N, cfg.L, p.Mprime)
        placement, pool = refine_pool(
            placement, cfg.large_users, second.t_int, second.alpha
        )
        txs.extend(equal_delivery(pool, cfg.large_users))
    return TwoStageContext(cfg, placement, DeliveryPlan(tuple(txs)))


# ---------------------------------------------------------------------------
# One scheme at one parameter point
# ---------------------------------------------------------------------------

SCHEMES = ("equal", "proposed", "scheme1")


@dataclass(frozen=True)
class SchemeInstance:
    """One (scheme, parameter point): its rate report, placement and plans.

    The equal and proposed schemes build their plan once, for the identity
    demand (user k wants file k), and ``plan`` retargets it to any demand
    with ``equal_cache.retarget``.  Scheme 1 is a rate only: its
    ``placement`` and ``plan`` raise ``ValueError``.
    """

    scheme: str  # one of SCHEMES
    N: int
    K: int
    M: Rational
    L: int | None = None
    Mhat: Rational | None = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; "
                             f"expected one of {SCHEMES}")
        if self.scheme != "equal" and (self.L is None or self.Mhat is None):
            raise ValueError(f"scheme {self.scheme} needs --L and --Mhat")

    def _config(self) -> UnequalConfig:
        return UnequalConfig(self.N, self.K, self.L, self.Mhat, self.M)

    @cached_property
    def report(self) -> RateReport:
        N, K, M = self.N, self.K, self.M
        if self.scheme == "equal":
            p = equal_params(N, K, M)
            return RateReport(scheme="equal", N=N, K=K, M=p.M, rate=rate_eq(N, K, M),
                              t=p.t, t_int=p.t_int, alpha=p.alpha)
        if self.scheme == "proposed":
            return rate_ueq(self._config())
        _, rate = scheme1_optimize(N, K, [self.Mhat] * self.L + [M] * (K - self.L))
        return RateReport(scheme="scheme1", N=N, K=K, M=M, L=self.L, Mhat=self.Mhat,
                          rate=rate)

    @cached_property
    def _built(self) -> tuple[Placement, DeliveryPlan]:
        """The placement and its identity-demand plan."""
        if self.scheme == "equal":
            placement = equal_placement(self.N, self.K, self.M)
            return placement, DeliveryPlan(tuple(equal_delivery(
                placement.stage1_content, users_range(self.K)
            )))
        if self.scheme == "proposed":
            ctx = build_two_stage(self._config())
            return ctx.placement, ctx.template
        raise ValueError(f"scheme {self.scheme} has a rate only, no placement or plan")

    @property
    def formula_rate(self) -> Rational:
        return self.report.rate

    @property
    def placement(self) -> Placement:
        return self._built[0]

    def plan(self, d: Sequence[int]) -> DeliveryPlan:
        return retarget(self._built[1], check_demands(d, self.N, self.K))
