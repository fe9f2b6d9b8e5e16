#!/usr/bin/env python3
"""Comparison sweep: two-level scheme vs the layered baseline.

Reproduces the shape of the usual comparison figure: N=10 files, K=4 users,
the first two caches three times larger than the last two, M sweeping the
feasible range.  The proposed scheme should never lose to scheme 1, whose
value is its exact optimum over the file shares beta.

Rates from schemes not implemented here (e.g. the exponential-size LP) can
be attached via `cachecast sweep --external-rates`; see the README.
"""

from fractions import Fraction

from cachecast import UnequalConfig, rate_eq, rate_ueq
from cachecast.baselines import scheme1_optimize

N, K, L = 10, 4, 2

print(f"N={N} K={K} caches (3M, 3M, M, M)")
print(f"{'M':>6} {'Mhat':>6} {'equal(M)':>10} {'proposed':>12} {'scheme1':>12}")
M = Fraction(0)
while 3 * M <= N:
    Mhat = 3 * M
    eq = rate_eq(N, K, M)
    prop = rate_ueq(UnequalConfig(N, K, L, Mhat, M)).rate
    _, s1 = scheme1_optimize(N, K, [Mhat, Mhat, M, M])
    marker = "" if prop <= s1 else "  <-- ordering violated!"
    print(f"{str(M):>6} {str(Mhat):>6} {float(eq):>10.4f} "
          f"{float(prop):>12.4f} {float(s1):>12.4f}{marker}")
    M += Fraction(1, 2)

print("\nexact values at M = 3:",
      rate_ueq(UnequalConfig(N, K, L, 9, 3)).rate, "vs",
      scheme1_optimize(N, K, [9, 9, 3, 3])[1])
