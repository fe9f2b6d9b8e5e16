"""Bit-exact realization of placements and delivery plans, in the standard
library alone.

Files become pseudo-random bit strings whose length puts every integer
offset and length of the placement and the plan, each in its unit of the
file, on an integer bit, so no rounding ever happens: measured loads are
compared to formula rates with exact equality.  A file is immutable
``bytes``, 8 bits to a byte, a run of its bits is read as one int, and a
payload is one int, so the server's XOR and the decoder's residue are int
XORs.  ``materialize`` draws the N files from one seeded ``random.Random``
and turns each subfile, (offset, length) in the placement's unit, into one
bit range of every owner's cache: a cache is that user's bit ranges sorted
and merged into integer intervals (``CacheImage``).

``compile_plan`` turns a template's integer rows into bits once per
template and file size, and every plan bound from the template
(``equal_cache.BoundPlan``) reuses the result: each distinct part boundary
is scaled to a bit once, and each part held once, as a user and a run of
the cells between those boundaries.  ``execute_delivery`` XORs the parts
out of the files, reading the part for user k from file d[k-1].
``decode_all`` decodes the log one transmission at a time, as the paper
does: it XORs each part, read from the files, out of the received payload,
and a reader recovers its own part exactly where that residue is zero;
coverage is counted in one walk of each user's intervals below every part
boundary.  ``verify_demands`` is these steps at the identity demand, with
each cache held to its fill.  One decode speaks for every demand: a demand
only picks the files its parts read, while transmission widths are fixed
when the template is compiled and caches are one interval list per user,
since a placement lays out every file alike.  So ``verify_demands`` returns
one ``Verdict``: the identity demand's report over a ``DemandSet`` counted
arithmetically, and refused above ``core.MAX_ENUMERATION`` before any work.
The placement, plan, rate and cache fills it checks come from
``SchemeInstance``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain, permutations, product, repeat
from random import Random
from typing import Iterator, NamedTuple, Sequence

from .core import (
    MAX_ENUMERATION, Rational, count_text, excess, format_rational, users_range,
)
from .equal_cache import BoundPlan, DeliveryPlan, Placement, check_demands
from .unequal import SchemeInstance
# bound here for perfbench's TRACER_PROBE, which asserts the binding is traced
from .unequal import build_two_stage  # noqa: F401


# The bound on materialize, counted as (K+N)*F_bits bytes: a byte per bit of
# every file and of one cache mask row per user.  It overcounts what
# materialize allocates: the files are packed 8 bits to a byte, and caches
# are held as intervals, whose (K, F_bits) mask rows are built only on request.
MAX_MATERIALIZE_BYTES = 2**30


def _template(plan: DeliveryPlan | BoundPlan) -> DeliveryPlan:
    return plan.template if isinstance(plan, BoundPlan) else plan


def required_bits(placement: Placement, *plans: DeliveryPlan | BoundPlan) -> int:
    """Smallest file size in bits realizing every boundary exactly.

    Offsets and lengths are whole units of F/unit, one unit per placement
    and plan, so each needs its unit divided by the gcd of that unit and
    its integers, and the file size is the lcm of those.  A bound plan is
    read through its template.
    """
    layout = placement.layout
    runs = [(placement.unit, chain.from_iterable((sf.a, sf.n) for sf in layout))]
    runs += [(plan.unit, chain.from_iterable((width, *(offset for _, offset in row))
                                             for width, row in plan.transmissions))
             for plan in map(_template, plans)]
    return math.lcm(*(unit // math.gcd(unit, *xs) for unit, xs in runs))


class _FileStore(NamedTuple):
    files: tuple[bytes, ...]
    F_bits: int


class FileStore(_FileStore):
    """N files of ``F_bits`` bits each, as immutable ``bytes``.

    Bit i of a file is bit i & 7 of its byte i >> 3, so each file takes
    ceil(F_bits / 8) bytes, and any other length is refused.  A part, bits
    [a, b), is read as one int whose lowest bit is bit a (``_read``).
    """

    __slots__ = ()

    def __new__(cls, files, F_bits: int):
        files = tuple(map(bytes, files))
        size = -(-F_bits // 8)
        for f, buf in enumerate(files, 1):
            if len(buf) != size:
                raise ValueError(f"file {f} holds {len(buf)} bytes, not the {size} "
                                 f"of {F_bits} bits")
        return _FileStore.__new__(cls, files, F_bits)

    @property
    def N(self) -> int:
        return len(self.files)


def _read(buf: bytes, a: int, b: int) -> int:
    """Bits [a, b) of a packed file as an int, bit a the lowest."""
    run = int.from_bytes(buf[a >> 3:(b + 7) >> 3], "little")
    return (run >> (a & 7)) & ((1 << (b - a)) - 1)


class _CacheImage(NamedTuple):
    N: int
    F_bits: int
    ranges: tuple[tuple[tuple[int, int], ...], ...]


class CacheImage(_CacheImage):
    """Each user's cached bits, one interval list for all N files alike.

    ``ranges[k]`` lists user k+1's cached bits of every file as (start,
    end) intervals of [0, F_bits): non-empty, sorted, and merged, so that
    an uncached bit separates any two; any other list is refused.
    ``masks`` builds the (K, F_bits) bool rows on request, for display.
    """

    __slots__ = ()

    def __new__(cls, N: int, F_bits: int, ranges):
        for user, own in enumerate(ranges, 1):
            ends = [x for r in own for x in r]
            if ends and not (0 <= ends[0] and ends[-1] <= F_bits
                             and all(x < y for x, y in zip(ends, ends[1:]))):
                raise ValueError(
                    f"user {user} caches bits {list(own)}: cache ranges must be "
                    f"non-empty, sorted, merged intervals of [0, {F_bits})")
        return _CacheImage.__new__(cls, N, F_bits, ranges)

    @property
    def masks(self) -> memoryview:
        """The (K, F_bits) bool coverage rows, built on each request, as a
        read-only view of one byte per bit: ``tolist()`` gives the rows."""
        F, K = self.F_bits, len(self.ranges)
        rows = bytearray(K * F)
        for k, ranges in enumerate(self.ranges):
            for a, b in ranges:
                rows[k * F + a:k * F + b] = b"\1" * (b - a)
        return memoryview(rows).cast("?", (K, F)).toreadonly()

    def user_bits(self, user: int) -> int:
        """Bits ``user`` caches over all N files."""
        return self.N * sum(b - a for a, b in self.ranges[user - 1])


def _merged(ranges: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Sorted bit ranges with every overlapping or touching pair joined and
    empty ones dropped."""
    out: list[tuple[int, int]] = []
    last = -1
    for a, b in sorted(ranges):
        if last < a < b:
            out.append((a, b))
            last = b
        elif a <= last < b:
            out[-1] = (out[-1][0], b)
            last = b
    return tuple(out)


def _bit_range(a: int, n: int, unit: int, F_bits: int) -> tuple[int, int]:
    """The bits of the run of ``n`` units from offset ``a`` in units of
    F/``unit``, refused unless both ends are whole bits."""
    start, rest_a = divmod(a * F_bits, unit)
    length, rest_n = divmod(n * F_bits, unit)
    if rest_a or rest_n:
        raise ValueError(f"F_bits={F_bits} cannot realize the file segment "
                         f"[{Fraction(a, unit)}, {Fraction(a + n, unit)}): "
                         "boundaries must be integer bits")
    return start, start + length


def materialize(
    placement: Placement,
    plan: DeliveryPlan | BoundPlan | None = None,
    F_bits: int | None = None,
    seed: int = 0,
) -> tuple[FileStore, CacheImage]:
    """Draw file contents from ``seed`` and fill caches per the placement.

    File f is the f-th ``getrandbits(F_bits)`` of one ``random.Random(seed)``,
    packed little-endian into ceil(F_bits / 8) bytes, so the bits past
    ``F_bits`` are zero.  Each subfile's bit range is appended to every
    owner's list, and each list is sorted and merged into that user's cache
    intervals, so nothing is allocated but the packed files.
    """
    if F_bits is None:
        F_bits = required_bits(placement, *([] if plan is None else [plan]))
    if F_bits < 1:
        raise ValueError(f"F_bits must be at least 1, got {F_bits}")
    nbytes = (placement.K + placement.N) * F_bits
    if nbytes > MAX_MATERIALIZE_BYTES:
        raise ValueError(
            f"{excess('F_bits', [F_bits], 0)} needs {count_text(nbytes)} bytes "
            f"(limit {MAX_MATERIALIZE_BYTES})")
    rng, size = Random(seed), -(-F_bits // 8)
    store = FileStore([rng.getrandbits(F_bits).to_bytes(size, "little")
                       for _ in range(placement.N)], F_bits)
    owned: list[list[tuple[int, int]]] = [[] for _ in range(placement.K)]
    for sf in placement.layout:
        run = _bit_range(sf.a, sf.n, placement.unit, F_bits)
        for owner in sf.owners:
            owned[owner - 1].append(run)
    return store, CacheImage(placement.N, F_bits, tuple(map(_merged, owned)))


class CompiledPlan(NamedTuple):
    """A template's bit geometry at one file size.

    ``edges`` lists the distinct part boundaries in bits, ascending, and
    ends at the file size: cell i is bits edges[i]:edges[i+1], and every
    part is a run of whole cells.  ``parts[t]`` lists transmission t's parts
    as (user, first cell, end cell): 0-based user and bits
    edges[first]:edges[end] of the file that user wants.  Transmission t
    sends payload bits sent[t]:sent[t+1], as wide as each of its parts, so
    the widths, and with them the load, are fixed here, for every demand.
    A transmission names each user once: a user decodes with its own part
    and cancels the others.
    """

    parts: list[list[tuple[int, int, int]]]
    sent: list[int]
    edges: list[int]

    @property
    def total_bits(self) -> int:
        return self.sent[-1]


def compile_plan(plan: DeliveryPlan | BoundPlan, F_bits: int) -> CompiledPlan:
    """Fix a template's bit geometry at ``F_bits``, checking it once.

    Every transmission must have parts and a width, every part boundary
    must be an integer bit, no user may be sent a bit twice, in any of its
    parts, so one user's own parts never overlap, and no transmission may
    name a user twice, so each target has one part to read.  This is the only
    place delivery turns a plan's integer offsets into bits: each distinct
    boundary is scaled once.  A bound plan is compiled through its template.
    """
    template = _template(plan)
    unit, txs = template.unit, template.transmissions
    ranges, bounds = [], {unit}
    for t, (width, row) in enumerate(txs):
        if not row:
            raise ValueError(f"transmission {t} has no parts")
        if not width:
            raise ValueError(f"transmission {t} sends no bits")
        for target, offset in row:
            ranges.append((target - 1, offset, offset + width))
            bounds.add(offset)
            bounds.add(offset + width)
    cell, edges = {}, []
    for x in sorted(bounds):
        bit, rest = divmod(x * F_bits, unit)
        if rest:
            raise ValueError(f"F_bits={F_bits} cannot realize the part boundary "
                             f"{Fraction(x, unit)}: boundaries must be integer bits")
        cell[x] = len(edges)
        edges.append(bit)
    ranges.sort()
    for (u, _, b), (v, a, b2) in zip(ranges, ranges[1:]):
        if u == v and a < b:
            raise ValueError(f"plan sends user {v + 1} bits [{edges[cell[a]]}, "
                             f"{edges[cell[min(b, b2)]]}) of its file twice")
    for t, (_, row) in enumerate(txs):
        if len(dict(row)) < len(row):  # a row's (target, offset) pairs, keyed by target
            twice = next(u for i, (u, _) in enumerate(row) if u in dict(row[:i]))
            raise ValueError(f"transmission {t} names user {twice} twice")
    parts = [[(target - 1, cell[offset], cell[offset + width]) for target, offset in row]
             for width, row in txs]
    sent = list(accumulate((width * F_bits // unit for width, _ in txs), initial=0))
    return CompiledPlan(parts, sent, edges)


def _compiled(plan: BoundPlan, F_bits: int) -> CompiledPlan:
    """The bound plan's template compiled at ``F_bits``: ``compile_plan``
    runs on the first call per template and file size, and every later
    plan bound from the template reuses its result."""
    if not isinstance(plan, BoundPlan):
        raise ValueError("delivery needs a plan bound to a demand, "
                         f"got {type(plan).__name__}")
    cache = plan.template.compiled
    if F_bits not in cache:
        cache[F_bits] = compile_plan(plan.template, F_bits)
    return cache[F_bits]


def _xor(cp: CompiledPlan, store: FileStore, d: Sequence[int]) -> list[int]:
    """Payload of every transmission: the XOR of its parts, the part for user
    k read from file d[k-1] of the server's store."""
    files, edges = [store.files[f - 1] for f in d], cp.edges
    payloads = []
    for parts in cp.parts:
        payload = 0
        for user, i, j in parts:
            payload ^= _read(files[user], edges[i], edges[j])
        payloads.append(payload)
    return payloads


def _decode(cp: CompiledPlan, caches: CacheImage, log: TransmissionLog,
            store: FileStore, d: tuple[int, ...]) -> list[bool]:
    """Decode outcome per user, transmission by transmission.

    Each target reads its one part of a transmission wherever its cache
    covers every other part, and that part fills the bits its cache lacks.
    A transmission's residue is its received payload XOR each of its parts,
    the part for user k read from file d[k-1] of ``store``: what a reader
    recovers, the payload XOR the other parts, is its own part exactly where
    the residue is zero, so it reads wrong bits where the residue is not,
    or where the payload holds a bit at or past its width.  A user decodes
    when nothing is missing and nothing it read was wrong.

    Coverage is counted in one walk of each user's cache intervals against
    ``cp.edges``: ``cached[u][j]`` is the number of bits user u caches below
    edge j, the intervals wholly below it plus the part of the one it cuts,
    so user u caches cached[u][j] - cached[u][i] bits of a part spanning
    cells i:j.
    """
    F = caches.F_bits
    missing = [F - sum(b - a for a, b in ranges) for ranges in caches.ranges]
    cached = []
    for ranges in caches.ranges:
        counts, below, k = [], 0, 0
        walk = ranges + ((F + 1, F + 1),)  # ends past every edge
        start, end = walk[0]
        for edge in cp.edges:
            while end <= edge:
                below += end - start
                k += 1
                start, end = walk[k]
            counts.append(below + edge - start if edge > start else below)
        cached.append(counts)
    wrong = [False] * len(missing)
    edges, wants = cp.edges, [store.files[f - 1] for f in d]
    for lo, hi, parts, residue in zip(cp.sent, cp.sent[1:], cp.parts, log.payloads):
        for user, a, b in parts:
            residue ^= _read(wants[user], edges[a], edges[b])
        bad = residue != 0
        width = hi - lo
        for user, a, b in parts:
            row = cached[user]
            if all(row[b2] - row[a2] == width
                   for other, a2, b2 in parts if other != user):
                missing[user] -= width - (row[b] - row[a])
                wrong[user] |= bad
    return [not m and not w for m, w in zip(missing, wrong)]


def _formula_bits(rate: Rational, F_bits: int) -> int:
    scaled = rate * F_bits
    if scaled.denominator != 1:
        raise ValueError(f"F_bits={F_bits} cannot realize the formula rate "
                         f"{format_rational(rate)}: {scaled} bits is not an integer")
    return int(scaled)


class TransmissionLog(NamedTuple):
    """Payloads actually sent, aligned with a plan's transmission list.

    ``payloads[t]`` is transmission t as one int, its first bit the lowest,
    and ``widths[t]`` is the number of bits it sends; nothing stops a payload
    from holding a bit at or past its width, which decoding then refuses.
    """

    payloads: tuple[int, ...]
    widths: tuple[int, ...]

    @property
    def total_bits(self) -> int:
        return sum(self.widths)


def execute_delivery(store: FileStore, plan: BoundPlan) -> TransmissionLog:
    """XOR each transmission's parts out of the server's files, each read
    from the file its target wants under the plan's demand."""
    cp = _compiled(plan, store.F_bits)
    payloads = _xor(cp, store, check_demands(plan.demand, store.N, len(plan.demand)))
    return TransmissionLog(tuple(payloads),
                           tuple(b - a for a, b in zip(cp.sent, cp.sent[1:])))


class VerificationReport(NamedTuple):
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
    plan: BoundPlan,
    store: FileStore,
    formula_rate: Rational | None = None,
) -> VerificationReport:
    """Run every user's decoder on ``log`` and check it against the files.

    A user cancels a transmission's other parts only where its own cache
    covers them, and every bit it recovers must equal its file's bits in
    ``store``, so a log corrupted in transit or XORed wrong by the server
    fails a user, never passes silently; nothing else is consulted.
    ``plan`` must be bound to ``d``, and ``caches`` must hold as many files
    of as many bits as ``store``.
    """
    F = store.F_bits
    if caches.F_bits != F or caches.N != store.N:
        raise ValueError(
            f"cache image of {caches.N} files of {caches.F_bits} bits does "
            f"not fit the store's {store.N} files of {F} bits")
    d = check_demands(d, store.N, len(caches.ranges))
    cp = _compiled(plan, F)
    if tuple(plan.demand) != d:
        raise ValueError(f"plan does not serve demand {d}: it is bound to "
                         f"demand {plan.demand}")
    widths = [b - a for a, b in zip(cp.sent, cp.sent[1:])]
    if list(log.widths) != widths or len(log.payloads) != len(widths):
        raise ValueError("transmission log does not match the plan's widths")
    ok = _decode(cp, caches, log, store, d)
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


class DemandSet:
    """The demand vectors of one mode, counted arithmetically.

    Exhaustive mode holds all N^K vectors, distinct mode the N!/(N-K)!
    assignments of distinct files, both listed in lexicographic order.
    ``count`` is the size as an int of any magnitude; nothing is listed
    until the set is iterated.
    """

    def __init__(self, N: int, K: int, exhaustive: bool):
        self.N, self.K, self.exhaustive = N, K, exhaustive
        self.count = N ** K if exhaustive else math.perm(N, K)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        files = range(1, self.N + 1)
        if self.exhaustive:
            return product(files, repeat=self.K)
        return permutations(files, self.K)


def enumerate_demands(N: int, K: int, mode: str) -> DemandSet:
    """Demand vectors to test: all N^K of them, or all distinct assignments.

    Either way 1 <= K <= N and the count against ``MAX_ENUMERATION`` are
    checked first, so an oversized request fails at once.
    """
    if not 1 <= K <= N:
        raise ValueError(f"need N >= K >= 1, got N={N}, K={K}")
    if mode == "exhaustive":
        if count := excess("N^K", repeat(N, K), MAX_ENUMERATION):
            raise ValueError(f"{count} demands is too many for exhaustive mode "
                             f"(limit {MAX_ENUMERATION}); use distinct-demand mode")
        return DemandSet(N, K, exhaustive=True)
    if mode == "distinct":
        if count := excess("N!/(N-K)!", range(N, N - K, -1), MAX_ENUMERATION):
            raise ValueError(f"{count} distinct demands is too many "
                             f"(limit {MAX_ENUMERATION})")
        return DemandSet(N, K, exhaustive=False)
    raise ValueError(f"unknown demand mode {mode!r}")


class Verdict:
    """One decode's verdict over a demand set.

    ``report`` is ``decode_all``'s report at the identity demand, and it
    speaks for every demand in ``demands``.  ``len()`` is the demand count;
    iterating yields one ``VerificationReport`` per demand, in enumeration
    order, each built as it is reached.
    """

    def __init__(self, report: VerificationReport, demands: DemandSet):
        self.report, self.demands = report, demands

    @property
    def passed(self) -> bool:
        return self.report.passed

    def __len__(self) -> int:
        return self.demands.count

    def __iter__(self) -> Iterator[VerificationReport]:
        return (self.report._replace(demand=d) for d in self.demands)


def verify_demands(
    inst: SchemeInstance,
    mode: str = "distinct",
    seed: int = 0,
    flip_bit: tuple[int, int] | None = None,
) -> Verdict:
    """Decode verification for every demand of ``mode``, from one decode.

    The demand set is counted first, so an oversized count is refused
    before any work.  Then the identity-demand plan is materialized,
    executed and decoded by ``decode_all``, and that one verdict covers the
    whole demand set: a demand only chooses which file each part reads,
    while what a user can cancel, the widths and the load are the same for
    every file.  A user whose cache holds other than its fill in
    ``inst.cache_fill`` times ``F_bits`` bits of all N files fails too.

    ``flip_bit`` = (transmission index, bit index) corrupts the log before
    decoding, for fault-injection tests of the verifier itself.
    """
    demands = enumerate_demands(inst.N, inst.K, mode)
    identity = users_range(inst.K)
    plan = inst.plan(identity)
    store, caches = materialize(inst.placement, plan, seed=seed)
    log = execute_delivery(store, plan)
    if flip_bit is not None:
        t, bit = flip_bit
        if not log.total_bits:
            raise ValueError("no transmitted bit to flip")
        if not (0 <= t < len(log.widths) and 0 <= bit < log.widths[t]):
            raise ValueError(f"transmission {t} has no bit {bit}")
        payloads = list(log.payloads)
        payloads[t] ^= 1 << bit
        log = log._replace(payloads=tuple(payloads))
    report = decode_all(caches, log, identity, plan, store, inst.formula_rate)
    ok = [ok and caches.user_bits(user) == fill * store.F_bits
          for user, (ok, fill) in enumerate(zip(report.user_ok, inst.cache_fill), 1)]
    return Verdict(report._replace(user_ok=tuple(ok)), demands)


def report_lines(verdict: Verdict) -> list[str]:
    """Line-oriented serialization: one record per demand vector, the
    verdict's status and load formatted once."""
    outcome = verdict.report.outcome()
    return [_record(d, outcome) for d in verdict.demands]
