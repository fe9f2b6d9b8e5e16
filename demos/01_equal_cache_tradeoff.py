#!/usr/bin/env python3
"""The equal-cache rate-memory trade-off, and the plans behind its corners.

Sweeps the cache size M from 0 to N for a small system and prints the exact
worst-case rate next to its decimal value.  At the integer points t = K*M/N
the scheme is a single placement; in between, memory sharing mixes the two
neighbouring integer schemes, which is why the curve is piecewise linear.
"""

from fractions import Fraction

from cachecast import SchemeInstance, rate_eq

N, K = 10, 4

print(f"rate-memory trade-off for N={N} files, K={K} equal caches")
print(f"{'M':>8} {'t=KM/N':>8} {'rate':>10} {'decimal':>10}")
M = Fraction(0)
while M <= N:
    r = rate_eq(N, K, M)
    print(f"{str(M):>8} {str(Fraction(K, N) * M):>8} {str(r):>10} {float(r):>10.4f}")
    M += Fraction(5, 4)

# The corner at t = 1: every file is split into C(4,1) = 4 subfiles and each
# transmission serves t + 1 = 2 users at once.
M = Fraction(N, K)
inst = SchemeInstance("equal", N, K, M)
plan = inst.plan((1, 2, 3, 4))
unit, txs = plan.template.unit, plan.template.transmissions
print(f"\nat M = {M} (t = 1): {len(inst.placement.layout) * N} placed subfiles,")
print(f"{len(txs)} transmissions of length "
      f"{Fraction(txs[0][0], unit)} each, total load {plan.total_load}")

print("\nfirst three transmissions (file, [start, stop), for user):")
for width, row in txs[:3]:
    # a row is (width, ((target, offset), ...)) in units of F/unit; the part
    # for user k reads file d[k-1] of the demand the plan is bound to
    desc = " XOR ".join(
        f"W{plan.demand[target - 1]}[{Fraction(offset, unit)},"
        f"{Fraction(offset + width, unit)})->{target}"
        for target, offset in row
    )
    print("  " + desc)
