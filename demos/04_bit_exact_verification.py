#!/usr/bin/env python3
"""Inside the simulator: files as bits, XOR payloads, decoding, and a fault.

Files are materialized as seeded random bit strings whose width is the LCM of
every segment denominator, so rational offsets land on integer bits and the
measured load can be compared to the formula rate with exact equality.  A
file is packed bytes and each payload one int, both printed first bit first.  The
decoder is honest: a user reads only what its cache covers, cancels it from
each received XOR, and the reassembled file must match the server's copy
bit for bit - so flipping a single transmitted bit must be caught.
"""

from fractions import Fraction

from cachecast import UnequalConfig
from cachecast.simulator import decode_all, execute_delivery, materialize, required_bits
from cachecast.unequal import build_two_stage


def bits(value: int, width: int) -> str:
    """The ``width`` low bits of ``value``, lowest first."""
    return "".join(str(value >> i & 1) for i in range(width))


ctx = build_two_stage(UnequalConfig(N=4, K=4, L=3, Mhat=2, M=1))
demands = (1, 2, 3, 4)
plan = ctx.plan(demands)

F = required_bits(ctx.placement, plan)
print(f"smallest exact realization: F = {F} bits per file")

store, caches = materialize(ctx.placement, plan, seed=2024)
for file in range(1, 5):
    print(f"  W{file} = {bits(int.from_bytes(store.files[file - 1], 'little'), F)}")

print("\ncache coverage (1 = cached bit), user x file:")
masks = caches.masks.tolist()
for user in range(1, 5):
    # every file is cached alike: one interval list per user, shown as the
    # mask row it builds on request, serves all four files
    row = "".join("1" if b else "." for b in masks[user - 1])
    print(f"  user {user}: " + "  ".join([row] * 4))

log = execute_delivery(store, plan)
print(f"\ntransmitted payloads ({log.total_bits} bits total, rate "
      f"{Fraction(log.total_bits, F)}):")
unit = plan.template.unit
for (width, row), payload, n in zip(plan.template.transmissions, log.payloads,
                                    log.widths):
    desc = " XOR ".join(f"W{demands[target - 1]}[{Fraction(offset, unit)},"
                        f"{Fraction(offset + width, unit)})"
                        for target, offset in row)
    print(f"  {bits(payload, n)}  = {desc}")

report = decode_all(caches, log, demands, plan, store)
print("\ndecode:", report.line())

# flip one transmitted bit; the affected user must fail, loudly
corrupted = log._replace(payloads=(log.payloads[0] ^ 1, *log.payloads[1:]))
bad = decode_all(caches, corrupted, demands, plan, store)
print("after flipping one bit:", bad.line())
assert not bad.passed, "the verifier must catch a corrupted transmission"
print("fault caught, as required")
