"""Bit-exact realization of placements and delivery plans.

Files become pseudo-random bit arrays whose length is a multiple of every
segment denominator, so each rational offset lands on an integer bit and no
rounding ever happens: measured loads are compared to formula rates with
exact equality.

``compile_plan`` is the one step that turns a plan's rational segments into
bits, each transmission's parts as (target, file, bit range), once per plan
and file size.  ``execute_delivery`` XORs the parts out of the files and
``decode_all`` decodes the log one transmission at a time, as the paper
does; ``verify_demands`` is these steps at the identity demand.  One decode
speaks for every demand: a demand enters a plan only through
``equal_cache.retarget``, which picks the files its parts read, while
transmission widths are fixed when the plan is compiled and caches are one
mask row per user, since a placement lays out every file alike.  So which
parts a user can cancel, and whether they complete its file, depend on no
demand, and a received payload differs from the XOR of the server's parts
only where the log was corrupted.  ``verify_demands`` therefore returns one
``Verdict``: the identity demand's report over a ``DemandSet`` that is
counted arithmetically, with per-demand reports built only on request.

This module holds only bits and is the only one that imports numpy; the
placement, plan and rate it checks come from ``unequal.SchemeInstance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, permutations, product, repeat
from typing import Iterator, Sequence

import numpy as np

from .core import (
    MAX_ENUMERATION, Rational, count_text, excess, format_rational, lcm_denominators,
    users_range,
)
from .equal_cache import DeliveryPlan, Placement, check_demands
from .unequal import SchemeInstance
# bound here for perfbench's TRACER_PROBE, which asserts the binding is traced
from .unequal import build_two_stage  # noqa: F401


# Most bytes materialize may allocate: K*F_bits of masks, one row per user
# for every file alike, and N*F_bits of files.
MAX_MATERIALIZE_BYTES = 2**30


def required_bits(placement: Placement, *plans: DeliveryPlan) -> int:
    """Smallest file size in bits realizing every segment boundary exactly."""
    segs = [seg for sf in placement.layout for seg in sf.segments] + [
        part.segment for plan in plans for tx in plan.transmissions for part in tx.parts
    ]
    fracs = [x for seg in segs for x in (seg.start, seg.length)]
    return lcm_denominators(fracs) if fracs else 1


@dataclass(frozen=True)
class FileStore:
    """N files as rows of a {0,1} uint8 array of width F_bits."""

    bits: np.ndarray

    @property
    def N(self) -> int:
        return self.bits.shape[0]

    @property
    def F_bits(self) -> int:
        return self.bits.shape[1]


@dataclass(frozen=True)
class CacheImage:
    """Per-user boolean coverage masks, one row for all N files alike."""

    N: int
    masks: np.ndarray  # shape (K, F_bits)

    def user_bits(self, user: int) -> int:
        """Bits ``user`` caches over all N files."""
        return self.N * int(self.masks[user - 1].sum())


def _bit_range(seg, F_bits: int) -> tuple[int, int]:
    # in lowest terms, x * F_bits is an integer iff x's denominator divides F_bits
    start, length = seg.start, seg.length
    if F_bits % start.denominator or F_bits % length.denominator:
        raise ValueError(
            f"F_bits={F_bits} cannot realize the file segment "
            f"[{seg.start}, {seg.stop}): boundaries must be integer bits"
        )
    a = start.numerator * (F_bits // start.denominator)
    return a, a + length.numerator * (F_bits // length.denominator)


def materialize(
    placement: Placement,
    plan: DeliveryPlan | None = None,
    F_bits: int | None = None,
    seed: int = 0,
) -> tuple[FileStore, CacheImage]:
    """Draw file contents from ``seed`` and fill caches per the placement."""
    if F_bits is None:
        F_bits = required_bits(placement, *([] if plan is None else [plan]))
    nbytes = (placement.K + placement.N) * F_bits
    if nbytes > MAX_MATERIALIZE_BYTES:
        raise ValueError(
            f"{excess('F_bits', [F_bits], 0)} needs {count_text(nbytes)} bytes of masks "
            f"and file store (limit {MAX_MATERIALIZE_BYTES})")
    rng = np.random.default_rng(seed)
    store = FileStore(rng.integers(0, 2, size=(placement.N, F_bits), dtype=np.uint8))
    masks = np.zeros((placement.K, F_bits), dtype=bool)
    for sf in placement.layout:
        for seg in sf.segments:
            a, b = _bit_range(seg, F_bits)
            for owner in sf.owners:
                masks[owner - 1, a:b] = True
    return store, CacheImage(placement.N, masks)


@dataclass(frozen=True, eq=False)
class CompiledPlan:
    """A delivery plan's bit geometry at one file size.

    ``parts[t]`` lists transmission t's parts as (target user, file, a, b):
    0-based user and file, bit range [a, b).  Every part of a transmission
    has the transmission's width, so the widths, and with them the load, are
    fixed here; which file a part reads is the plan's own choice, the file
    its target wants.  A user decodes with its *own* part, its first part in
    a transmission, and cancels the others.
    """

    F_bits: int
    parts: list[list[tuple[int, int, int, int]]]
    sent: list[int]  # transmission t sends payload bits sent[t]:sent[t+1]

    @property
    def total_bits(self) -> int:
        return self.sent[-1]


def compile_plan(plan: DeliveryPlan, F_bits: int) -> CompiledPlan:
    """Fix a plan's bit geometry at ``F_bits``, checking it once.

    Every transmission must have parts, every part boundary must be an
    integer bit, every part of a transmission must have the same width, and
    no user may be sent a bit twice, in any of its parts, so one user's own
    parts never overlap.  This is the only place delivery turns rational
    offsets into bits.
    """
    parts, sent, ranges = [], [0], []
    for t, tx in enumerate(plan.transmissions):
        if not tx.parts:
            raise ValueError(f"transmission {t} has no parts")
        compiled, width = [], None
        for part in tx.parts:
            lo, hi = _bit_range(part.segment, F_bits)
            if width is None:
                width = hi - lo
            elif hi - lo != width:
                raise ValueError("unequal segment lengths inside one transmission")
            user = part.target - 1
            if width:
                ranges.append((user, lo, hi))
            compiled.append((user, part.segment.file - 1, lo, hi))
        parts.append(compiled)
        sent.append(sent[-1] + width)
    ranges.sort(key=lambda r: r[:2])
    for (u, _, b), (v, a, b2) in zip(ranges, ranges[1:]):
        if u == v and a < b:
            raise ValueError(f"plan sends user {v + 1} bits "
                             f"[{a}, {min(b, b2)}) of its file twice")
    return CompiledPlan(F_bits, parts, sent)


def _xor(cp: CompiledPlan, store: FileStore) -> np.ndarray:
    """Payload bits of every transmission: the XOR of its parts, each read
    from the file the plan gives it in the server's store."""
    sent = np.zeros(cp.total_bits, dtype=np.uint8)
    for t, parts in enumerate(cp.parts):
        payload = sent[cp.sent[t]:cp.sent[t + 1]]
        for _, f, a, b in parts:
            payload ^= store.bits[f, a:b]
    return sent


def _decode(cp: CompiledPlan, masks: np.ndarray, log: TransmissionLog,
            clean: np.ndarray) -> list[bool]:
    """Decode outcome per user, transmission by transmission.

    A user reads its own part of a transmission only if its cache covers
    every other part, and that part fills the bits its cache lacks there.
    What it reads is wrong exactly where the received payload differs from
    ``clean``, the XOR of the server's parts.  A user decodes when nothing
    is missing and nothing it read was wrong.
    """
    missing = [masks.shape[1] - np.count_nonzero(row) for row in masks]
    wrong = [False] * len(missing)
    differs = np.concatenate([np.zeros(0, dtype=np.uint8), *log.payloads]) != clean
    for t, parts in enumerate(cp.parts):
        lo, hi = cp.sent[t], cp.sent[t + 1]
        if lo == hi:
            continue
        corrupt = bool(differs[lo:hi].any())
        covered = [masks[:, a:b].all(axis=1).tolist() for _, _, a, b in parts]
        read = set()
        for i, (user, _, a, b) in enumerate(parts):
            if user in read:
                continue
            read.add(user)
            if all(c[user] for j, c in enumerate(covered) if j != i):
                missing[user] -= b - a - np.count_nonzero(masks[user, a:b])
                wrong[user] |= corrupt
    return [not m and not w for m, w in zip(missing, wrong)]


def _formula_bits(rate: Rational, F_bits: int) -> int:
    scaled = rate * F_bits
    if scaled.denominator != 1:
        raise ValueError(
            f"F_bits={F_bits} cannot realize the formula rate "
            f"{format_rational(rate)}: {scaled} bits is not an integer"
        )
    return int(scaled)


@dataclass(frozen=True)
class TransmissionLog:
    """Payloads actually sent, aligned with a plan's transmission list."""

    payloads: tuple[np.ndarray, ...]

    @property
    def total_bits(self) -> int:
        return sum(len(p) for p in self.payloads)


def execute_delivery(store: FileStore, plan: DeliveryPlan) -> TransmissionLog:
    """XOR each transmission's parts out of the server's files."""
    cp = compile_plan(plan, store.F_bits)
    sent = _xor(cp, store)
    return TransmissionLog(tuple(sent[lo:hi] for lo, hi in zip(cp.sent, cp.sent[1:])))


@dataclass(frozen=True)
class VerificationReport:
    demand: tuple[int, ...]
    user_ok: tuple[bool, ...]
    measured_load_bits: int
    formula_load_bits: int
    F_bits: int

    @property
    def passed(self) -> bool:
        return all(self.user_ok) and self.measured_load_bits == self.formula_load_bits

    @property
    def measured_load(self) -> Rational:
        return Fraction(self.measured_load_bits, self.F_bits)

    def outcome(self) -> str:
        """Per-user status and measured load: the record after the demand."""
        status = ",".join("ok" if ok else "FAIL" for ok in self.user_ok)
        return f"status={status} load={format_rational(self.measured_load)}"

    def line(self) -> str:
        return _record(self.demand, self.outcome())


def _record(demand: Sequence[int], outcome: str) -> str:
    return f"demand={','.join(map(str, demand))} {outcome}"


def decode_all(
    caches: CacheImage,
    log: TransmissionLog,
    d: Sequence[int],
    plan: DeliveryPlan,
    store: FileStore,
    formula_rate: Rational | None = None,
) -> VerificationReport:
    """Run every user's decoder on ``log`` and check it against the server.

    A user cancels a transmission's other parts only where its own cache
    covers them, and every bit it recovers must equal the server's copy, so
    any corruption in the log surfaces as a failed user, never as a silent
    pass.
    """
    F = store.F_bits
    d = check_demands(d, store.N, caches.masks.shape[0])
    cp = compile_plan(plan, F)
    for user, f, _, _ in (q for parts in cp.parts for q in parts):
        if f != d[user] - 1:
            raise ValueError(f"plan does not serve demand {d}: a part for user "
                             f"{user + 1} carries file {f + 1}")
    if [len(p) for p in log.payloads] != [b - a for a, b in zip(cp.sent, cp.sent[1:])]:
        raise ValueError("transmission log does not match the plan's widths")
    ok = _decode(cp, caches.masks, log, _xor(cp, store))
    return VerificationReport(
        demand=tuple(d),
        user_ok=tuple(ok),
        measured_load_bits=log.total_bits,
        formula_load_bits=(log.total_bits if formula_rate is None
                           else _formula_bits(formula_rate, F)),
        F_bits=F,
    )


# ---------------------------------------------------------------------------
# Demand enumeration and verification
# ---------------------------------------------------------------------------


class DemandSet(Sequence[tuple[int, ...]]):
    """The demand vectors of one mode, counted arithmetically.

    Exhaustive mode holds all N^K vectors, distinct mode the N!/(N-K)!
    assignments of distinct files, both in lexicographic order.  Nothing is
    listed until the set is iterated or indexed.
    """

    def __init__(self, N: int, K: int, exhaustive: bool):
        self.N, self.K, self.exhaustive = N, K, exhaustive

    def __len__(self) -> int:
        return self.N ** self.K if self.exhaustive else math.perm(self.N, self.K)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        files = range(1, self.N + 1)
        if self.exhaustive:
            return product(files, repeat=self.K)
        return permutations(files, self.K)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        size = len(self)
        i = index + size if index < 0 else index
        if not 0 <= i < size:
            raise IndexError("demand index out of range")
        return next(islice(iter(self), i, None))


def enumerate_demands(
    N: int, K: int, mode: str, max_demands: int = MAX_ENUMERATION
) -> DemandSet:
    """Demand vectors to test: all N^K of them, or all distinct assignments.

    Either way 1 <= K <= N and the count against ``max_demands`` are
    checked first, so an oversized request fails at once.
    """
    if not 1 <= K <= N:
        raise ValueError(f"need N >= K >= 1, got N={N}, K={K}")
    if mode == "exhaustive":
        if count := excess("N^K", repeat(N, K), max_demands):
            raise ValueError(
                f"{count} demands is too many for exhaustive mode "
                f"(limit {max_demands}); use distinct-demand mode"
            )
        return DemandSet(N, K, exhaustive=True)
    if mode == "distinct":
        if count := excess("N!/(N-K)!", range(N, N - K, -1), max_demands):
            raise ValueError(
                f"{count} distinct demands is too many (limit {max_demands})"
            )
        return DemandSet(N, K, exhaustive=False)
    raise ValueError(f"unknown demand mode {mode!r}")


class Verdict(Sequence[VerificationReport]):
    """One decode's verdict over a demand set.

    ``report`` is ``decode_all``'s report at the identity demand, and it
    speaks for every demand in ``demands``.  As a sequence the verdict
    yields one ``VerificationReport`` per demand, in enumeration order,
    each built only when it is asked for.
    """

    def __init__(self, report: VerificationReport, demands: DemandSet):
        self.report, self.demands = report, demands

    @property
    def passed(self) -> bool:
        return self.report.passed

    def _for(self, demand: tuple[int, ...]) -> VerificationReport:
        r = self.report
        return VerificationReport(demand, r.user_ok, r.measured_load_bits,
                                  r.formula_load_bits, r.F_bits)

    def __len__(self) -> int:
        return len(self.demands)

    def __iter__(self) -> Iterator[VerificationReport]:
        return map(self._for, self.demands)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(self._for, self.demands[index]))
        return self._for(self.demands[index])


def verify_demands(
    inst: SchemeInstance,
    mode: str = "distinct",
    seed: int = 0,
    max_demands: int = MAX_ENUMERATION,
    flip_bit: tuple[int, int] | None = None,
) -> Verdict:
    """Decode verification for every demand of ``mode``, from one decode.

    The demand set is counted first, so an oversized count is refused
    before any work.  Then the identity-demand plan is materialized,
    executed and decoded by ``decode_all``, and that one verdict covers the
    whole demand set: a demand only chooses which file each part reads (the
    part for user k reads file d[k], as in ``equal_cache.retarget``), while
    what a user can cancel, the widths, and with them the load, are the same
    for every file.  Per-demand reports are built only when the verdict is
    iterated or indexed.

    ``flip_bit`` = (transmission index, bit index) corrupts the log before
    decoding, for fault-injection tests of the verifier itself.
    """
    demands = enumerate_demands(inst.N, inst.K, mode, max_demands)
    identity = users_range(inst.K)
    plan = inst.plan(identity)
    store, caches = materialize(inst.placement, plan, seed=seed)
    log = execute_delivery(store, plan)
    if flip_bit is not None:
        t, bit = flip_bit
        if not log.total_bits:
            raise ValueError("no transmitted bit to flip")
        if not (0 <= t < len(log.payloads) and 0 <= bit < len(log.payloads[t])):
            raise ValueError(f"transmission {t} has no bit {bit}")
        payloads = list(log.payloads)
        payloads[t] = payloads[t].copy()
        payloads[t][bit] ^= 1
        log = TransmissionLog(tuple(payloads))
    report = decode_all(caches, log, identity, plan, store, inst.formula_rate)
    return Verdict(report, demands)


def report_lines(verdict: Verdict) -> list[str]:
    """Line-oriented serialization: one record per demand vector, the
    verdict's status and load formatted once."""
    outcome = verdict.report.outcome()
    return [_record(d, outcome) for d in verdict.demands]
