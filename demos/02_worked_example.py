#!/usr/bin/env python3
"""A four-user system with caches (2F, 2F, 2F, F), end to end.

Ignoring the extra cache of the first three users gives the equal-cache rate
3/2.  The two-stage placement spends that extra cache on the transmissions
that only those users needed, and the rate drops to 1: three pair XORs keep
serving user 4, and two three-way XORs replace the three intra-group pairs.
"""

from fractions import Fraction

from cachecast import (
    UnequalConfig,
    rate_eq,
    rate_ueq,
    unequal_params,
)
from cachecast.simulator import SchemeInstance, verify_demands
from cachecast.unequal import build_two_stage

cfg = UnequalConfig(N=4, K=4, L=3, Mhat=2, M=1)

print("equal-cache rate ignoring the extra cache:", rate_eq(4, 4, 1))
p = unequal_params(cfg)
print(f"pool per file F' = {p.Fprime}, second-level cache M' = {p.Mprime}, "
      f"intra-group stage-1 load R' = {p.Rprime}")
report = rate_ueq(cfg)
print("two-level rate:", report.rate, f"(scenario {report.scenario})")

ctx = build_two_stage(cfg)
print("\ncache contents (merged [start, stop) ranges per file):")
unit = ctx.placement.unit
for user in range(1, 5):
    # every file is cached alike: merge the user's subfiles of one layout,
    # each n units from offset a, in units of F/unit
    ranges = []
    for a, b in sorted((sf.a, sf.a + sf.n) for sf in ctx.placement.layout
                       if user in sf.owners):
        if ranges and a <= ranges[-1][1]:
            ranges[-1] = (ranges[-1][0], max(ranges[-1][1], b))
        else:
            ranges.append((a, b))
    pretty = " ".join(f"[{Fraction(a, unit)},{Fraction(b, unit)})" for a, b in ranges)
    print(f"  user {user}: {pretty} of every file "
          f"(total {ctx.placement.user_load(user)}F)")

print("\ndelivery plan for demands (W1, W2, W3, W4):")
plan = ctx.plan((1, 2, 3, 4))
unit = plan.template.unit
for width, row in plan.template.transmissions:
    desc = " XOR ".join(
        f"W{plan.demand[target - 1]}[{Fraction(offset, unit)},"
        f"{Fraction(offset + width, unit)})"
        for target, offset in row
    )
    targets = ",".join(str(target) for target, _ in row)
    print(f"  {desc}   (serves users {targets})")
print("total load:", plan.total_load)

inst = SchemeInstance("proposed", 4, 4, Fraction(1), L=3, Mhat=Fraction(2))
# one decode at demand (1,2,3,4) decides every demand vector: caches hold
# every file alike, so a demand only picks which file each part reads
verdict = verify_demands(inst, mode="exhaustive")
passed = len(verdict) if verdict.passed else 0
print(f"\nbit-exact check: {passed}/{len(verdict)} "
      "demand vectors decode with the formula load")
