"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all);
all comparisons between formula rates and simulated loads are exact rational
equality, never approximate.
"""

from fractions import Fraction
from pathlib import Path

from cachecast.baselines import scheme1_optimize
from cachecast.core import users_range
from cachecast.equal_cache import equal_placement, rate_eq, sharing_level, window_unit
from cachecast.incremental import refine_pool, split_factor
from cachecast.simulator import SchemeInstance, verify_demands
from cachecast.unequal import UnequalConfig, build_two_stage, rate_ueq, unequal_params

from views import bound_parts

GRID_N = (4, 5, 6)
GRID_K = (3, 4)


def _emit(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {text}")


def quarter_grid(N):
    return [Fraction(q, 4) for q in range(0, 4 * N + 1)]


def test_criterion_1_worked_example_exactness():
    ok = rate_eq(4, 4, 1) == Fraction(3, 2)
    ok = ok and rate_ueq(UnequalConfig(4, 4, 3, 2, 1)).rate == 1
    _emit(1, ok, "rate_eq(4,4,1) = 3/2 and rate_ueq(4,4,3,2,1) = 1, exactly")
    assert ok


def test_criterion_2_delivery_reproduction():
    ctx = build_two_stage(UnequalConfig(4, 4, 3, 2, 1))
    plan = ctx.plan((1, 2, 3, 4))
    # each part as (file, start, length, target)
    got = {frozenset(tx) for tx in bound_parts(plan)}
    q, e = Fraction(1, 4), Fraction(1, 8)
    expected = {
        # pairs serving user 4, unchanged from the single-level scheme
        frozenset({(1, 3 * q, q, 1), (4, 0 * q, q, 4)}),
        frozenset({(2, 3 * q, q, 2), (4, 1 * q, q, 4)}),
        frozenset({(3, 3 * q, q, 3), (4, 2 * q, q, 4)}),
        # three-way XORs inside the large-cache group
        frozenset({(1, 3 * e, e, 1), (2, 1 * e, e, 2), (3, 0 * e, e, 3)}),
        frozenset({(1, 5 * e, e, 1), (2, 4 * e, e, 2), (3, 2 * e, e, 3)}),
    }
    ok = got == expected and len(plan.template.transmissions) == 5
    _emit(2, ok, "(4,4,3,2,1) plan is 3 user-4 pairs + 2 intra-group triples")
    assert ok


def test_criterion_3_oracle_equivalence_grid():
    # every distinct demand is decoded bit-exactly; a report passes only if
    # its measured load also equals the formula rate
    def matches(inst):
        return all(r.passed for r in verify_demands(inst, mode="distinct"))

    mismatches = []
    for N in GRID_N:
        for K in GRID_K:
            ms = quarter_grid(N)
            for M in ms:
                if not matches(SchemeInstance("equal", N, K, M)):
                    mismatches.append(("equal", N, K, M))
            for L in range(1, K):
                for M in ms:
                    for Mhat in ms:
                        if Mhat < M:
                            continue
                        inst = SchemeInstance("proposed", N, K, M, L=L, Mhat=Mhat)
                        if not matches(inst):
                            mismatches.append(("proposed", N, K, L, Mhat, M))
    ok = not mismatches
    _emit(3, ok, f"every distinct demand decodes, at a load equal to the formula "
                 f"rate, on the full grid ({'no mismatches' if ok else mismatches[:3]})")
    assert ok


def test_criterion_4_exhaustive_decodability():
    equal_points = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2),
                    Fraction(2), Fraction(4)]
    proposed_points = [
        (3, Fraction(2), Fraction(1)),
        (2, Fraction(5, 2), Fraction(1, 2)),
        (1, Fraction(4), Fraction(3)),
        (3, Fraction(7, 2), Fraction(1)),
        (2, Fraction(2), Fraction(2)),
        (2, Fraction(3), Fraction(1, 4)),
    ]
    failures = []
    for M in equal_points:
        reports = verify_demands(SchemeInstance("equal", 4, 4, M), mode="exhaustive")
        if len(reports) != 256 or not all(r.passed for r in reports):
            failures.append(("equal", M))
    for L, Mhat, M in proposed_points:
        inst = SchemeInstance("proposed", 4, 4, M, L=L, Mhat=Mhat)
        reports = verify_demands(inst, mode="exhaustive")
        if len(reports) != 256 or not all(r.passed for r in reports):
            failures.append(("proposed", L, Mhat, M))
    ok = not failures
    _emit(4, ok, f"all 256 demand vectors decode at "
                 f"{len(equal_points) + len(proposed_points)} cache points")
    assert ok


def test_criterion_5_incremental_merge_equivalence():
    def content_sets(placement, user):
        totals = {}
        for sf in placement.subfiles:
            if user in sf.owners:
                key = (sf.file, sf.owners)
                totals[key] = totals.get(key, 0) + sf.n
        return {(f, o, Fraction(n, placement.unit)) for (f, o), n in totals.items()}

    # the layout and its refinement do not depend on N, and sharing_level
    # refuses K > N: K <= N still reaches every (K, t) with t < K <= 5
    bad = []
    for N in range(1, 6):
        for K in range(1, N + 1):
            for t in range(0, K):
                M = Fraction(t * N, K)
                unit = window_unit(K, sharing_level(N, K, M)) * split_factor(
                    K, t, (t + 1, 1, 1))
                refined, _ = refine_pool(
                    equal_placement(N, K, M, unit=unit), users_range(K), (t + 1, 1, 1))
                direct = equal_placement(N, K, Fraction((t + 1) * N, K))
                for user in range(1, K + 1):
                    if content_sets(refined, user) != content_sets(direct, user):
                        bad.append((N, K, t, user))
    ok = not bad
    _emit(5, ok, "merged refinement equals the direct (t+1)-placement "
                 "for all t < K <= N <= 5")
    assert ok


def test_criterion_6_degenerate_limit_identities():
    bad = []
    for N in GRID_N:
        for K in GRID_K:
            if rate_eq(N, K, N) != 0:
                bad.append(("full-cache", N, K))
            if rate_eq(N, K, 0) != K:
                bad.append(("zero-cache", N, K))
            for L in range(1, K):
                for M in quarter_grid(N):
                    if rate_ueq(UnequalConfig(N, K, L, M, M)).rate != rate_eq(N, K, M):
                        bad.append(("degenerate", N, K, L, M))
                    # scenario boundary: at Mhat = Phi the scenario-1 rate must
                    # equal the scenario-2 formula evaluated at gamma = 1
                    hi = unequal_params(UnequalConfig(N, K, L, N, M))
                    if hi.pool_empty or hi.scenario != 2:
                        continue
                    phi = hi.Phi
                    if not (M <= phi <= N):
                        bad.append(("phi-range", N, K, L, M, phi))
                        continue
                    at_phi = rate_ueq(UnequalConfig(N, K, L, phi, M))
                    limit = rate_eq(N, K, M) - hi.Rprime
                    if at_phi.scenario != 1 or at_phi.rate != limit:
                        bad.append(("continuity", N, K, L, M))
    ok = not bad
    _emit(6, ok, f"degenerate limits and scenario-boundary continuity "
                 f"({'all exact' if ok else bad[:3]})")
    assert ok


def test_criterion_7_scheme_ordering_fig5_sweep():
    violations = []
    points = [Fraction(q, 4) for q in range(0, 14)] + [Fraction(10, 3)]
    scheme1 = {}
    for M in points:
        Mhat = 3 * M
        prop = rate_ueq(UnequalConfig(10, 4, 2, Mhat, M)).rate
        _, scheme1[M] = scheme1_optimize(10, 4, [Mhat, Mhat, M, M])
        if prop > scheme1[M]:
            violations.append((M, prop, scheme1[M]))
    pinned = {Fraction(7, 4): Fraction(49, 30), Fraction(2): Fraction(23, 15),
              Fraction(10, 3): Fraction(10, 9)}
    ok = not violations and all(scheme1[M] == v for M, v in pinned.items())
    _emit(7, ok, f"proposed <= exact scheme1 at all {len(points)} sweep points "
                 f"(N=10, K=4, L=2, Mhat=3M)")
    assert ok


def test_criterion_8_external_comparison_documented_not_asserted():
    # The 1.11 comparison needs rates from an external optimisation this
    # package does not implement; the README must say so, and the import
    # path for external rates must exist.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    documented = "1.11" in text and "external" in text.lower()
    from cachecast.baselines import import_external_rates

    importable = callable(import_external_rates)
    ok = documented and importable
    _emit(8, ok, "1.11 ratio documented as import-only, not asserted")
    assert ok
