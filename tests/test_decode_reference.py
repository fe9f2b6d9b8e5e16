"""The interval decoder against the per-part decoder it replaced.

``simulator._decode`` walks each user's cache intervals once against the
compiled plan's part boundaries (``CompiledPlan.edges``), and reads every
(user, part) count as a difference of two prefix sums.
``reference_decode`` below is the decoder it replaced, which reduced
(K, F_bits) cache masks once per part; it is kept as the reference.  Over
random rational points (K <= 6, N <= 9, cache-size denominators at most 9),
random demands, toggled cache bits and flipped payload bits (derandomized),
``decode_all``, handed the toggled masks as intervals by
``views.cache_from_masks``, must give every user the reference's outcome.
"""

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecast import simulator
from cachecast.simulator import (
    CompiledPlan, SchemeInstance, TransmissionLog, decode_all, execute_delivery,
    materialize,
)

from views import cache_from_masks

PROFILE = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def reference_decode(cp: CompiledPlan, masks: np.ndarray, log: TransmissionLog,
                     clean: list[int]) -> list[bool]:
    """Decode outcome per user, transmission by transmission.

    A user reads its own part of a transmission only if its cache covers
    every other part, and that part fills the bits its cache lacks there.
    What it reads is wrong wherever the received payload differs from
    ``clean``, the XOR of the server's parts.  A user decodes when nothing
    is missing and nothing it read was wrong.
    """
    missing = [masks.shape[1] - np.count_nonzero(row) for row in masks]
    wrong = [False] * len(missing)
    for t, cells in enumerate(cp.parts):
        parts = [(user, cp.edges[i], cp.edges[j]) for user, i, j in cells]
        corrupt = log.payloads[t] != clean[t]
        covered = [masks[:, a:b].all(axis=1).tolist() for _, a, b in parts]
        read = set()
        for i, (user, a, b) in enumerate(parts):
            if user in read:
                continue
            read.add(user)
            if all(c[user] for j, c in enumerate(covered) if j != i):
                missing[user] -= b - a - np.count_nonzero(masks[user, a:b])
                wrong[user] |= corrupt
    return [not m and not w for m, w in zip(missing, wrong)]


@st.composite
def points(draw):
    """(N, K, L, Mhat, M) with K <= 6, N <= 9 and denominators at most 9."""
    K = draw(st.integers(2, 6))
    N = draw(st.integers(K, 9))
    L = draw(st.integers(1, K - 1))
    q = draw(st.integers(1, 9))
    M = Fraction(draw(st.integers(0, N * q)), q)
    q = draw(st.integers(1, 9))
    Mhat = Fraction(draw(st.integers(math.ceil(M * q), N * q)), q)
    return N, K, L, Mhat, M


@PROFILE
@given(points(), st.data())
def test_decoder_matches_reference(point, data):
    N, K, L, Mhat, M = point
    inst = SchemeInstance("proposed", N, K, M, L=L, Mhat=Mhat)
    d = tuple(data.draw(st.lists(st.integers(1, N), min_size=K, max_size=K)))
    plan = inst.plan(d)
    store, caches = materialize(inst.placement, plan,
                                seed=data.draw(st.integers(0, 2**16)))
    F = store.F_bits
    log = execute_delivery(store, plan)
    masks = np.array(caches.masks)
    for user, bit in data.draw(st.lists(
            st.tuples(st.integers(0, K - 1), st.integers(0, F - 1)), max_size=3)):
        masks[user, bit] ^= True
    cp = plan.template.compiled[F]
    payloads = list(log.payloads)
    if log.total_bits:
        starts = list(accumulate(cp.widths, initial=0))  # first bit of each payload
        for bit in data.draw(st.lists(st.integers(0, log.total_bits - 1), max_size=2)):
            t = next(t for t in range(len(payloads)) if bit < starts[t + 1])
            payloads[t] ^= 1 << (bit - starts[t])
    log = log._replace(payloads=tuple(payloads))
    expected = reference_decode(cp, masks, log, simulator._xor(cp, store, d))
    report = decode_all(cache_from_masks(N, masks), log, d, plan, store)
    assert report.user_ok == tuple(expected)
