"""Bit-exact realization of placements and delivery plans.

Files become pseudo-random bit arrays whose length is a multiple of every
segment denominator, so each rational offset lands on an integer bit and no
rounding ever happens: measured loads are compared to formula rates with
exact equality.  Decoding is genuinely adversarial — a user only reads bits
its cache covers, cancels them from the received XOR, and the reassembled
file is compared bit-for-bit against the server's copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import permutations, product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    MAX_ENUMERATION, Rational, format_rational, lcm_denominators, users_range,
)
from .equal_cache import (
    DeliveryPlan,
    Part,
    Placement,
    Transmission,
    check_demands,
    equal_delivery,
    equal_params,
    equal_placement,
    rate_eq,
)
from .unequal import (
    RateReport,
    UnequalConfig,
    build_two_stage,
    equal_rate_report,
    rate_ueq,
)


# Most bytes materialize may allocate: K*N*F_bits of masks, N*F_bits of files.
MAX_MATERIALIZE_BYTES = 2**30


def required_bits(placement: Placement, *plans: DeliveryPlan) -> int:
    """Smallest file size in bits realizing every segment boundary exactly."""
    fracs: list[Fraction] = []
    for sf in placement.subfiles:
        for seg in sf.segments:
            fracs.extend((seg.start, seg.length))
    for plan in plans:
        for tx in plan.transmissions:
            for part in tx.parts:
                fracs.extend((part.segment.start, part.segment.length))
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

    def segment_bits(self, file: int, a: int, b: int) -> np.ndarray:
        return self.bits[file - 1, a:b]


@dataclass(frozen=True)
class CacheImage:
    """Per-user boolean coverage masks over (file, bit position)."""

    masks: np.ndarray  # shape (K, N, F_bits)

    def covers(self, user: int, file: int, a: int, b: int) -> bool:
        return bool(self.masks[user - 1, file - 1, a:b].all())

    def user_bits(self, user: int) -> int:
        return int(self.masks[user - 1].sum())


def _bit_range(seg, F_bits: int) -> tuple[int, int]:
    a = seg.start * F_bits
    b = seg.stop * F_bits
    if a.denominator != 1 or b.denominator != 1:
        raise ValueError(
            f"F_bits={F_bits} cannot realize segment of file {seg.file} at "
            f"[{seg.start}, {seg.stop}): boundaries must be integer bits"
        )
    return int(a), int(b)


def materialize(
    placement: Placement,
    plan: DeliveryPlan | None = None,
    F_bits: int | None = None,
    seed: int = 0,
) -> tuple[FileStore, CacheImage]:
    """Draw file contents from ``seed`` and fill caches per the placement."""
    needed = required_bits(placement, *( [plan] if plan is not None else [] ))
    if F_bits is None:
        F_bits = needed
    nbytes = (placement.K + 1) * placement.N * F_bits
    if nbytes > MAX_MATERIALIZE_BYTES:
        raise ValueError(f"F_bits = {F_bits} needs {nbytes} bytes of masks and "
                         f"file store (limit {MAX_MATERIALIZE_BYTES})")
    rng = np.random.default_rng(seed)
    store = FileStore(rng.integers(0, 2, size=(placement.N, F_bits), dtype=np.uint8))
    masks = np.zeros((placement.K, placement.N, F_bits), dtype=bool)
    for sf in placement.subfiles:
        for seg in sf.segments:
            a, b = _bit_range(seg, F_bits)
            for owner in sf.owners:
                masks[owner - 1, sf.file - 1, a:b] = True
    return store, CacheImage(masks)


@dataclass(frozen=True)
class TransmissionLog:
    """Payloads actually sent, aligned with a plan's transmission list."""

    payloads: tuple[np.ndarray, ...]

    @property
    def total_bits(self) -> int:
        return sum(len(p) for p in self.payloads)


def execute_delivery(store: FileStore, plan: DeliveryPlan) -> TransmissionLog:
    """XOR each transmission's parts out of the server's files."""
    payloads = []
    for tx in plan.transmissions:
        acc: np.ndarray | None = None
        width = None
        for part in tx.parts:
            a, b = _bit_range(part.segment, store.F_bits)
            if width is None:
                width = b - a
            elif width != b - a:
                raise ValueError("unequal segment lengths inside one transmission")
            piece = store.segment_bits(part.segment.file, a, b)
            acc = piece.copy() if acc is None else acc ^ piece
        payloads.append(acc if acc is not None else np.zeros(0, dtype=np.uint8))
    return TransmissionLog(tuple(payloads))


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

    def line(self) -> str:
        status = ",".join("ok" if ok else "FAIL" for ok in self.user_ok)
        return (
            f"demand={','.join(map(str, self.demand))} status={status} "
            f"load={format_rational(self.measured_load)}"
        )


def decode_all(
    caches: CacheImage,
    log: TransmissionLog,
    d: Sequence[int],
    plan: DeliveryPlan,
    store: FileStore,
    formula_rate: Rational | None = None,
) -> VerificationReport:
    """Run every user's decoder and compare reassembled files to the truth.

    A user cancels a transmission's other parts only where its own cache
    covers them; recovered ranges overwrite the assembled file, so any
    corruption in the log surfaces as a bit mismatch, never as a silent pass.
    """
    F = store.F_bits
    K = caches.masks.shape[0]
    d = check_demands(d, store.N, K)
    user_ok = []
    for user in range(1, K + 1):
        want = d[user - 1]
        covered = caches.masks[user - 1, want - 1].copy()
        assembled = np.where(covered, store.bits[want - 1], 0).astype(np.uint8)
        for tx, payload in zip(plan.transmissions, log.payloads):
            mine = [p for p in tx.parts if p.target == user]
            if not mine:
                continue
            seg = mine[0].segment
            acc = payload.copy()
            usable = True
            for part in tx.parts:
                if part is mine[0]:
                    continue
                a, b = _bit_range(part.segment, F)
                if not caches.covers(user, part.segment.file, a, b):
                    usable = False
                    break
                acc ^= store.segment_bits(part.segment.file, a, b)
            if not usable:
                continue
            a, b = _bit_range(seg, F)
            assembled[a:b] = acc
            covered[a:b] = True
        ok = bool(covered.all()) and bool(
            np.array_equal(assembled, store.bits[want - 1])
        )
        user_ok.append(ok)
    if formula_rate is not None:
        scaled = formula_rate * F
        if scaled.denominator != 1:
            raise ValueError(
                f"F_bits={F} cannot realize the formula rate "
                f"{format_rational(formula_rate)}: {scaled} bits is not an integer"
            )
        formula_bits = int(scaled)
    else:
        formula_bits = log.total_bits
    return VerificationReport(
        demand=tuple(d),
        user_ok=tuple(user_ok),
        measured_load_bits=log.total_bits,
        formula_load_bits=formula_bits,
        F_bits=F,
    )


# ---------------------------------------------------------------------------
# Scheme dispatch and demand enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemeInstance:
    """One (scheme, parameter point): placement, plans, and the formula rate.

    Plans for arbitrary demands come from a template built at the identity
    demand vector (1..K): every XOR part is destined to exactly one user and
    carries that user's file, so retargeting is a pure file substitution.
    """

    scheme: str  # "equal" | "proposed"
    N: int
    K: int
    M: Rational
    L: int | None = None
    Mhat: Rational | None = None

    @cached_property
    def _impl(self):
        ident = tuple(range(1, self.K + 1))
        if self.scheme == "equal":
            params = equal_params(self.N, self.K, self.M)
            placement = equal_placement(self.N, self.K, self.M)
            template = DeliveryPlan(tuple(equal_delivery(
                placement.stage1_content, users_range(self.K),
                params.t_int, params.alpha, ident,
            )))
            rate = rate_eq(self.N, self.K, self.M)
            report = equal_rate_report(self.N, self.K, self.M)
        elif self.scheme == "proposed":
            if self.L is None or self.Mhat is None:
                raise ValueError("proposed scheme needs L and Mhat")
            cfg = UnequalConfig(self.N, self.K, self.L, self.Mhat, self.M)
            ctx = build_two_stage(cfg)
            placement = ctx.placement
            template = ctx.plan(ident)
            report = rate_ueq(cfg)
            rate = report.rate
        else:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        for tx in template.transmissions:
            for part in tx.parts:
                if part.segment.file != part.target:
                    raise ValueError(
                        f"template is not retargetable: part for user {part.target} "
                        f"carries file {part.segment.file}"
                    )
        return placement, template, rate, report

    @property
    def placement(self) -> Placement:
        return self._impl[0]

    @property
    def formula_rate(self) -> Rational:
        return self._impl[2]

    @property
    def report(self) -> RateReport:
        return self._impl[3]

    def plan(self, d: Sequence[int]) -> DeliveryPlan:
        d = check_demands(d, self.N, self.K)
        template = self._impl[1]
        return DeliveryPlan(tuple(
            Transmission(tuple(
                Part(replace(p.segment, file=d[p.target - 1]), p.target)
                for p in tx.parts
            ))
            for tx in template.transmissions
        ))


def enumerate_demands(
    N: int, K: int, mode: str, max_demands: int = MAX_ENUMERATION
) -> Iterator[tuple[int, ...]]:
    """Demand vectors to test: all N^K of them, or all distinct assignments.

    Either way the count is checked against ``max_demands`` before anything
    is enumerated, so an oversized request fails at once.
    """
    if mode == "exhaustive":
        if N**K > max_demands:
            raise ValueError(
                f"N^K = {N**K} demands is too many for exhaustive mode "
                f"(limit {max_demands}); use distinct-demand mode"
            )
        return product(range(1, N + 1), repeat=K)
    if mode == "distinct":
        count = math.perm(N, K)
        if count > max_demands:
            raise ValueError(
                f"N!/(N-K)! = {count} distinct demands is too many "
                f"(limit {max_demands})"
            )
        return permutations(range(1, N + 1), K)
    raise ValueError(f"unknown demand mode {mode!r}")


def worst_case_load(
    inst: SchemeInstance,
    mode: str = "distinct",
    seed: int = 0,
    max_demands: int = MAX_ENUMERATION,
) -> Rational:
    """Max over enumerated demands of actually-transmitted bits / F_bits.

    Transmissions are executed for real (bits XORed out of the store); only
    decoding is skipped, since the load does not depend on it.
    """
    demands = enumerate_demands(inst.N, inst.K, mode, max_demands)
    placement = inst.placement
    template = inst.plan(tuple(range(1, inst.K + 1)))
    store, _ = materialize(placement, template, seed=seed)
    F = store.F_bits
    # Geometry is demand-independent: precompute per-part bit ranges once.
    geometry = [
        [(p.target, *_bit_range(p.segment, F)) for p in tx.parts]
        for tx in template.transmissions
    ]
    worst = None
    for d in demands:
        bits = 0
        for parts in geometry:
            acc: np.ndarray | None = None
            for target, a, b in parts:
                piece = store.segment_bits(d[target - 1], a, b)
                acc = piece.copy() if acc is None else acc ^ piece
            bits += 0 if acc is None else len(acc)
        load = Fraction(bits, F)
        if worst is None or load > worst:
            worst = load
    if worst is None:
        raise ValueError("no demands enumerated")
    return worst


def verify_demands(
    inst: SchemeInstance,
    mode: str = "distinct",
    seed: int = 0,
    max_demands: int = MAX_ENUMERATION,
    flip_bit: tuple[int, int] | None = None,
) -> list[VerificationReport]:
    """Full decode verification over enumerated demands.

    ``flip_bit`` = (transmission index, bit index) corrupts the log before
    decoding, for fault-injection tests of the verifier itself.
    """
    demands = enumerate_demands(inst.N, inst.K, mode, max_demands)
    placement = inst.placement
    template = inst.plan(tuple(range(1, inst.K + 1)))
    store, caches = materialize(placement, template, seed=seed)
    reports = []
    for d in demands:
        plan = inst.plan(d)
        log = execute_delivery(store, plan)
        if flip_bit is not None:
            t_idx, b_idx = flip_bit
            payloads = list(log.payloads)
            corrupted = payloads[t_idx].copy()
            corrupted[b_idx] ^= 1
            payloads[t_idx] = corrupted
            log = TransmissionLog(tuple(payloads))
        reports.append(
            decode_all(caches, log, d, plan, store, formula_rate=inst.formula_rate)
        )
    return reports


def report_lines(reports: Iterable[VerificationReport]) -> list[str]:
    """Line-oriented serialization: one demand vector per record."""
    return [r.line() for r in reports]
