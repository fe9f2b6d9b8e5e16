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

``build_two_stage`` takes one path: it splits every file at gamma, and
``rate_ueq`` sums the rate over that split without building anything.  The
share [0, gamma) holds stage 1 and the pooled refinement to min(M', N); the
share [gamma, 1) holds an equal-cache system over the K - L small users,
which the large users store whole.  When M' would exceed N (scenario 2),
gamma < 1 and the first share is the construction at the boundary cache
size Phi, where M' = N and the pool delivery disappears; in scenario 1, or
with an empty pool, gamma = 1 and the second share is empty.  The builders
take the share they fill (``equal_placement``'s window and ``also``), so
each share is laid out at its final offsets in one pass, in integers of one
unit fixed from the parameters first, and no placement or plan is rescaled
once built.  The layout and the template plan are one file's, whatever N
is.  A build is that pair and nothing else,
``TwoStageContext(placement, template)``; ``SchemeInstance.plan`` binds a
demand to the template (``equal_cache.BoundPlan``) without copying it.

``unequal_params`` and ``rate_ueq`` compute in integers, as the construction
does: each reads the numerators and denominators of the values it combines,
and makes each value it returns one ``Fraction``.

``SchemeInstance`` is one scheme at one parameter point, and the library's
one dispatch on a scheme name: its cache sizes, ``RateReport`` and, but for
scheme 1, the placement and plans that ``simulator`` turns into bits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from .baselines import scheme1_optimize
from .core import Rational, UserSet, binom, users_range
from .equal_cache import (
    BoundPlan,
    DeliveryPlan,
    EqualCacheParams,
    Placement,
    check_demands,
    delivery_subsets,
    equal_delivery,
    equal_params,
    equal_placement,
    rate_eq,
    sharing_level,
    window_unit,
    xor_delivery,
)
from .incremental import refine_pool, split_factor


class _UnequalConfig(NamedTuple):
    N: int
    K: int
    L: int
    Mhat: Rational
    M: Rational


class UnequalConfig(_UnequalConfig):
    """System shape: users 1..L hold Mhat, users L+1..K hold M (Mhat >= M)."""

    __slots__ = ()

    def __new__(cls, N: int, K: int, L: int, Mhat, M):
        Mhat = Mhat if isinstance(Mhat, Fraction) else Fraction(Mhat)
        M = M if isinstance(M, Fraction) else Fraction(M)
        if K < 1 or N < K:
            raise ValueError(f"need N >= K >= 1, got N={N}, K={K}")
        if not 1 <= L < K:
            raise ValueError(f"need 1 <= L < K, got L={L}, K={K}")
        if Mhat < M:
            raise ValueError(f"large cache below small cache: {Mhat} < {M}")
        if M < 0 or Mhat > N:
            raise ValueError("cache sizes must lie in [0, N]")
        return _UnequalConfig.__new__(cls, N, K, L, Mhat, M)

    @property
    def large_users(self) -> UserSet:
        return tuple(range(1, self.L + 1))

    @property
    def small_users(self) -> UserSet:
        return tuple(range(self.L + 1, self.K + 1))


class UnequalParams(NamedTuple):
    """Derived quantities of the two-stage construction."""

    base: EqualCacheParams
    Fprime: Rational        # pooled intra-group length per file, units of F
    occupied: Rational      # pool content already cached per large user after stage 1
    Rprime: Rational        # stage-1 load of purely intra-group transmissions
    Mprime: Rational | None  # second-level cache size, units of F'; None if no pool
    scenario: int
    Phi: Rational | None
    gamma: Rational | None
    pool_empty: bool


def unequal_params(cfg: UnequalConfig) -> UnequalParams:
    """Second-level parameters F', M', R' and the scenario split, each made
    one fraction from integer numerators.

    F', the pool content cached per large user and R' are sums of an alpha
    term over C(K, t_int) and, when alpha < 1, a 1-alpha term over
    C(K, t_int+1), with binomials of L over t_int, t_int+1 and t_int+2.  As
    C(n, t+1) = C(n, t)(n-t)/(t+1), each is C(L, t_int)/C(K, t_int) times a
    small rational: with t_int and alpha = a/D read from ``equal_params``, one
    integer numerator over D*(K-t_int)*C(K, t_int) times small factors, the
    1-alpha term and K-t_int dropping out at a = D.  M' =
    (occupied + Mhat - M)/F', and in scenario 2 Phi = M - occupied + N*F' and
    gamma = (N - Mhat)/(N - Phi), reuse the fields already made in lowest
    terms, F' and occupied over the lcm of their denominators.
    """
    base = equal_params(cfg.N, cfg.K, cfg.M)
    N, K, L = cfg.N, cfg.K, cfg.L
    ti, a, D = base.t_int, base.alpha.numerator, base.alpha.denominator
    k1 = K - ti if a < D else 1  # alpha = 1: no second term
    B, den = binom(L, ti), D * k1 * binom(K, ti)
    b, l1 = D - a, L - ti
    fprime = Fraction(B * (a * k1 + b * l1), den)
    occupied = Fraction(N * B * (a * ti * k1 + b * l1 * (ti + 1)), den * L)
    rprime = Fraction(B * l1 * (a * (ti + 2) * k1 + b * (l1 - 1) * (ti + 1)),
                      den * (ti + 1) * (ti + 2))

    # fprime == 0: t exceeds the pool, no subfile lives entirely inside the
    # large group, so the extra cache is unusable by this construction.
    mprime = phi = gamma = None
    fp, fq = fprime.numerator, fprime.denominator
    if fp:
        op, oq = occupied.numerator, occupied.denominator
        mp, mq = cfg.M.numerator, cfg.M.denominator
        hp, hq = cfg.Mhat.numerator, cfg.Mhat.denominator
        g = math.gcd(oq, fq)  # both divide den*L: their lcm keeps sums small
        xn, xd = hp * mq - mp * hq, hq * mq  # the extra cache Mhat - M
        mprime = Fraction((op * xd + xn * oq) * (fq // g), oq // g * xd * fp)
        if mprime.numerator > N * mprime.denominator:
            lcm = oq * (fq // g)
            phi = Fraction(mp * lcm + mq * (N * fp * (oq // g) - op * (fq // g)), mq * lcm)
            pp, pq = phi.numerator, phi.denominator
            gamma = Fraction((N * hq - hp) * pq, hq * (N * pq - pp))
    return UnequalParams(
        base=base, Fprime=fprime, occupied=occupied, Rprime=rprime, Mprime=mprime,
        scenario=1 if phi is None else 2, Phi=phi, gamma=gamma, pool_empty=not fp,
    )


class RateReport(NamedTuple):
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


def rate_ueq(cfg: UnequalConfig, params: UnequalParams | None = None) -> RateReport:
    """Worst-case rate of the two-level scheme, with all intermediates.

    The build's split at gamma: on [0, gamma), stage 1's rate less R' plus F'
    times the pool's rate at min(M', N), 0 for an empty pool; on [gamma, 1), the
    small users' rate.  Each rate is ``rate_eq``'s, and it and each field are
    read as a numerator and a denominator and made one fraction.  R' and F' are
    summed over the lcm of their denominators, and gamma's numerator is
    cancelled against the [0, gamma) denominator before the split, as
    ``Fraction``'s own sum and product would: at large K both share thousands
    of digits.  ``params`` is ``unequal_params(cfg)``, if known.
    """
    p = unequal_params(cfg) if params is None else params
    N = cfg.N
    stage1 = rate_eq(N, cfg.K, cfg.M)
    pool = p.Fprime and rate_eq(N, cfg.L, min(p.Mprime, N))  # empty: F' itself, 0
    sn, sd = stage1.numerator, stage1.denominator
    rn, rd = p.Rprime.numerator, p.Rprime.denominator
    fn, fd = p.Fprime.numerator, p.Fprime.denominator
    pn, pd = pool.numerator, pool.denominator
    c = math.gcd(rd, fd)  # both divide D*(K-t_int)*C(K, t_int)*(t_int+1)*(t_int+2)
    num = (sn * rd - rn * sd) * (fd // c) * pd + fn * pn * sd * (rd // c)
    den = sd * rd * (fd // c) * pd
    if p.gamma is not None:
        small = rate_eq(N, cfg.K - cfg.L, cfg.M)
        g, G = p.gamma.numerator, p.gamma.denominator
        c = math.gcd(g, den)  # at large K gamma's numerator shares most of den
        num = g // c * num * small.denominator + (G - g) * small.numerator * (den // c)
        den = den // c * G * small.denominator
    return RateReport(
        scheme="proposed", N=N, K=cfg.K, M=cfg.M, rate=Fraction(num, den),
        L=cfg.L, Mhat=cfg.Mhat, t=p.base.t, t_int=p.base.t_int, alpha=p.base.alpha,
        Fprime=p.Fprime, Mprime=p.Mprime, Rprime=p.Rprime, Phi=p.Phi, gamma=p.gamma,
        scenario=p.scenario, pool_empty=p.pool_empty,
    )


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


class TwoStageContext(NamedTuple):
    """A build: the placement and its template plan, in one unit."""

    placement: Placement
    template: DeliveryPlan

    def plan(self, d: Sequence[int]) -> BoundPlan:
        return BoundPlan(self.template, check_demands(d, self.placement.N, self.placement.K))


def build_two_stage(cfg: UnequalConfig,
                    params: UnequalParams | None = None) -> TwoStageContext:
    """Construct the canonical two-stage placement and its template plan.

    ``params`` is ``unequal_params(cfg)`` when the caller has it already.
    Every file is split at gamma = g/G (1 in scenario 1 or with an empty
    pool) into the windows (0, g, G) and (g, G - g, G): [0, gamma) is stage
    1 with its pool refined to the equal-cache level of min(M', N) over the
    large users, and [gamma, 1) the equal-cache placement over the small
    users, which the large users own whole.  The one unit is fixed first:
    stage 1's over [0, gamma) times the refinement's ``split_factor``, so
    that no pool piece needs a finer unit, and the small users' over
    [gamma, 1).  Each window, and the pool's level, is made once and serves
    both the unit and the builder.
    """
    p = unequal_params(cfg) if params is None else params
    N, K, L = cfg.N, cfg.K, cfg.L
    g, G = (1, 1) if p.gamma is None else (p.gamma.numerator, p.gamma.denominator)
    first, second = (0, g, G), (g, G - g, G)  # [0, gamma) and [gamma, 1)
    unit = 1
    if g:
        unit = window_unit(K, sharing_level(N, K, cfg.M), first)
        if not p.pool_empty:
            pool_level = sharing_level(N, L, min(p.Mprime, N))
            unit *= split_factor(L, p.base.t_int, pool_level)
    if g < G:
        small = sharing_level(N, K - L, cfg.M)
        unit = math.lcm(unit, window_unit(K - L, small, second))

    blocks, txs = (), []
    if g:
        # Stage 1 on [0, gamma): every transmission that serves a small-cache
        # user, i.e. whose (sorted) subset S ends above L.  Those inside the
        # large-cache group are replaced by the pooled refinement's delivery.
        placement = equal_placement(N, K, cfg.M, window=first, unit=unit)
        content = placement.stage1_content
        txs = xor_delivery(content, [S for S in delivery_subsets(content, users_range(K))
                                     if S[-1] > L])
        if not p.pool_empty:
            placement, pool = refine_pool(placement, cfg.large_users, pool_level)
            txs.extend(equal_delivery(pool, cfg.large_users))
        blocks = placement.blocks
    if g < G:  # [gamma, 1): the equal-cache scheme over the small users
        rest = equal_placement(N, K, cfg.M, cfg.small_users, window=second,
                               also=cfg.large_users, unit=unit)
        blocks += rest.blocks
        txs.extend(equal_delivery(rest.stage1_content, cfg.small_users))
    return TwoStageContext(Placement(N, K, unit, blocks), DeliveryPlan(unit, tuple(txs)))


# ---------------------------------------------------------------------------
# One scheme at one parameter point
# ---------------------------------------------------------------------------

SCHEMES = ("equal", "proposed", "scheme1")


class SchemeInstance:
    """One (scheme, parameter point): its rate report, placement and plans.

    The equal and proposed schemes build their template plan once, and
    ``plan`` binds it to any demand (``equal_cache.BoundPlan``), so a demand
    costs no construction and every bound plan shares the template's
    compiled bits.  Scheme 1 is a rate only: its ``placement`` and ``plan``
    raise ``ValueError``.
    """

    def __init__(self, scheme: str, N: int, K: int, M: Rational,
                 L: int | None = None, Mhat: Rational | None = None):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
        if scheme != "equal" and (L is None or Mhat is None):
            raise ValueError(f"scheme {scheme} needs --L and --Mhat")
        self.scheme, self.N, self.K, self.M, self.L, self.Mhat = scheme, N, K, M, L, Mhat

    @cached_property
    def _config(self) -> UnequalConfig:
        return UnequalConfig(self.N, self.K, self.L, self.Mhat, self.M)

    @cached_property
    def _params(self) -> UnequalParams:
        """The proposed scheme's derived parameters, shared by its rate and
        its construction."""
        return unequal_params(self._config)

    @cached_property
    def cache_sizes(self) -> tuple[Rational, ...]:
        """Users 1..K's cache sizes: Mhat for 1..L of an unequal scheme, else M."""
        if self.scheme == "equal":
            return (self.M,) * self.K
        cfg = self._config  # checks (N, K, L, Mhat, M)
        return (cfg.Mhat,) * cfg.L + (cfg.M,) * (cfg.K - cfg.L)

    @cached_property
    def cache_fill(self) -> tuple[Rational, ...]:
        """What users 1..K's caches hold, read from the rate side: their sizes,
        but M for every user of a proposed build whose pool is empty, since
        its extra cache has no use."""
        if self.scheme == "proposed" and self._params.pool_empty:
            return (self._config.M,) * self.K
        return self.cache_sizes

    @cached_property
    def report(self) -> RateReport:
        N, K, M = self.N, self.K, self.M
        if self.scheme == "equal":
            p = equal_params(N, K, M)
            return RateReport(scheme="equal", N=N, K=K, M=p.M, rate=rate_eq(N, K, M),
                              t=p.t, t_int=p.t_int, alpha=p.alpha)
        if self.scheme == "proposed":
            return rate_ueq(self._config, self._params)
        _, rate = scheme1_optimize(N, K, self.cache_sizes)
        return RateReport(scheme="scheme1", N=N, K=K, M=M, L=self.L, Mhat=self.Mhat,
                          rate=rate)

    @cached_property
    def _built(self) -> tuple[Placement, DeliveryPlan]:
        """The build: the placement and its template plan."""
        if self.scheme == "equal":
            placement = equal_placement(self.N, self.K, self.M)
            txs = equal_delivery(placement.stage1_content, users_range(self.K))
            return placement, DeliveryPlan(placement.unit, tuple(txs))
        if self.scheme == "proposed":
            return build_two_stage(self._config, self._params)
        raise ValueError(f"scheme {self.scheme} has a rate only, no placement or plan")

    @property
    def formula_rate(self) -> Rational:
        return self.report.rate

    @property
    def placement(self) -> Placement:
        return self._built[0]

    def plan(self, d: Sequence[int]) -> BoundPlan:
        return BoundPlan(self._built[1], check_demands(d, self.N, self.K))
