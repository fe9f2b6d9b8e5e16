import inspect
import math
import re
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice
from random import Random

import pytest

from cachecast import cli, simulator
from cachecast.equal_cache import BoundPlan, DeliveryPlan, equal_placement
from cachecast.simulator import (
    CacheImage,
    DemandSet,
    SchemeInstance,
    TransmissionLog,
    decode_all,
    enumerate_demands,
    execute_delivery,
    materialize,
    report_lines,
    required_bits,
    verify_demands,
)
from cachecast.unequal import UnequalConfig, build_two_stage

from views import bound_parts, cache_from_masks, read_bits

WORKED = SchemeInstance("proposed", 4, 4, Fraction(1), L=3, Mhat=Fraction(2))
# per-user outcomes at the worked example's identity demand, with a bit of
# transmission t wrong, or t dropped
DECODE_OUTCOMES = {0: (False, True, True, False), 3: (False, False, False, True)}


def worked_system(seed=0):
    ctx = build_two_stage(UnequalConfig(4, 4, 3, 2, 1))
    plan = ctx.plan((1, 2, 3, 4))
    store, caches = materialize(ctx.placement, plan, seed=seed)
    return ctx, plan, store, caches


class TestMaterialize:
    def test_deterministic_for_fixed_seed(self):
        _, _, store_a, _ = worked_system(seed=42)
        _, _, store_b, _ = worked_system(seed=42)
        assert store_a.files == store_b.files

    def test_seed_changes_content(self):
        _, _, store_a, _ = worked_system(seed=1)
        _, _, store_b, _ = worked_system(seed=2)
        assert store_a.files != store_b.files

    def test_worked_example_needs_eight_bits(self):
        ctx, plan, store, _ = worked_system()
        assert required_bits(ctx.placement, plan) == 8
        assert store.F_bits == 8

    def test_zero_cache_empty_image(self):
        placement = equal_placement(3, 3, 0)
        _, caches = materialize(placement)
        assert not any(map(any, caches.masks.tolist()))

    def test_rejects_indivisible_bit_width(self):
        placement = equal_placement(4, 4, 1)
        with pytest.raises(ValueError, match="file"):
            materialize(placement, F_bits=3)

    def test_rejects_a_subfile_boundary_off_the_bits(self):
        # the equal scheme at (4, 4, 1) cuts files in quarters: 2 bits is too few
        placement = SchemeInstance("equal", 4, 4, 1).placement
        with pytest.raises(ValueError, match=r"^F_bits=2 cannot realize the file segment "
                                             r"\[0, 1/4\): boundaries must be integer "
                                             r"bits$"):
            materialize(placement, F_bits=2)

    def test_cache_budget_in_bits(self):
        _, _, store, caches = worked_system()
        budgets = {1: 2, 2: 2, 3: 2, 4: 1}
        for user, m in budgets.items():
            assert caches.user_bits(user) == m * store.F_bits

    def test_a_size_of_exactly_the_limit_is_accepted(self, monkeypatch):
        # (K + N) * F_bits = 64 bytes counted: taken at a limit of 64, refused
        # at 63, with the limit patched small so nothing near it is drawn
        placement = equal_placement(4, 4, 1)
        monkeypatch.setattr(simulator, "MAX_MATERIALIZE_BYTES", 64)
        assert materialize(placement, F_bits=8)[0].F_bits == 8
        monkeypatch.setattr(simulator, "MAX_MATERIALIZE_BYTES", 63)
        with pytest.raises(ValueError, match=r"^F_bits = 8 needs 64 bytes \(limit 63\)$"):
            materialize(placement, F_bits=8)

    @pytest.mark.parametrize("F_bits", [0, -3])
    def test_refuses_fewer_than_one_bit(self, F_bits):
        placement = equal_placement(4, 4, 1)
        with pytest.raises(ValueError, match=f"^F_bits must be at least 1, got {F_bits}$"):
            materialize(placement, F_bits=F_bits)

    @pytest.mark.parametrize("N,F_bits", [(1, 1), (3, 1), (2, 3), (3, 7), (5, 8),
                                          (4, 13), (10, 2400), (7, 1001)])
    @pytest.mark.parametrize("seed", [0, 1, 2024, 2**31 - 1])
    def test_draw_is_the_generators_integers(self, N, F_bits, seed):
        # file f is the generator's f-th F_bits-bit integer, whole bytes or not,
        # and no bit past F_bits is set
        store, _ = materialize(equal_placement(N, 1, 0), F_bits=F_bits, seed=seed)
        rng = Random(seed)
        expect = [rng.getrandbits(F_bits) for _ in range(N)]
        assert [int.from_bytes(buf, "little") for buf in store.files] == expect
        assert {len(buf) for buf in store.files} == {math.ceil(F_bits / 8)}

    def test_store_is_read_only(self):
        # the files are bytes: a bytearray is copied in, never shared
        _, _, store, _ = worked_system()
        assert {type(buf) for buf in store.files} == {bytes}
        buf = bytearray(1)
        copied = simulator.FileStore([buf], 8)
        buf[0] = 1
        assert copied.files == (b"\0",)

    @pytest.mark.parametrize("size", [0, 2])
    def test_store_refuses_a_file_of_another_length(self, size):
        with pytest.raises(ValueError, match=rf"^file 2 holds {size} bytes, not the 1 "
                                             r"of 7 bits$"):
            simulator.FileStore([b"\0", bytes(size)], 7)

    def test_caches_allocate_nothing_K_by_F_bits(self):
        # the draw takes N*F_bits bytes; (K, F_bits) masks would add K*F_bits
        N, K = 20, 14
        inst = SchemeInstance("proposed", N, K, Fraction(5, 2), L=7, Mhat=7)
        plan = inst.plan(tuple(range(1, K + 1)))
        tracemalloc.start()
        try:
            store, _ = materialize(inst.placement, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert store.F_bits == 43680
        assert peak < (2 * N + K // 2) * store.F_bits


class TestCacheImage:
    def test_caches_are_merged_bit_intervals(self):
        # the worked example's 8-bit files: users 1-3 cache 4 bits of each
        # file and user 4 two, as runs with an uncached bit between any two
        _, _, _, caches = worked_system()
        assert (caches.N, caches.F_bits) == (4, 8)
        assert caches.ranges == (((0, 3), (4, 5)), ((0, 1), (2, 4), (5, 6)),
                                 ((1, 2), (3, 6)), ((6, 8),))

    def test_masks_are_built_from_the_intervals(self):
        caches = CacheImage(2, 6, (((0, 2), (4, 5)), ()))
        assert caches.masks.tolist() == [[True, True, False, False, True, False],
                                         [False] * 6]
        assert [caches.user_bits(u) for u in (1, 2)] == [6, 0]

    @pytest.mark.parametrize("ranges", [
        ((2, 4), (0, 1)), ((0, 4), (2, 6)), ((0, 2), (2, 4)), ((3, 3),), ((1, 0),),
        ((-1, 2),), ((4, 9),)],
        ids=["unsorted", "overlapping", "adjacent", "empty", "reversed", "below-0",
             "past-F_bits"])
    def test_refuses_ranges_that_are_not_merged_intervals(self, ranges):
        with pytest.raises(ValueError, match=(
                rf"^user 2 caches bits {re.escape(str(list(ranges)))}: cache ranges "
                r"must be non-empty, sorted, merged intervals of \[0, 8\)$")):
            CacheImage(4, 8, (((0, 8),), ranges))


class TestExecuteDelivery:
    def test_single_part_is_plaintext(self):
        inst = SchemeInstance("equal", 4, 1, 1)
        plan = inst.plan((2,))
        store, _ = materialize(inst.placement, plan)
        log = execute_delivery(store, plan)
        ((file, start, length, _),) = bound_parts(plan)[0]
        a = int(start * store.F_bits)
        b = int((start + length) * store.F_bits)
        assert log.payloads[0] == read_bits(store, file, a, b)

    def test_xor_of_two_parts(self):
        inst = SchemeInstance("equal", 4, 4, 1)
        (block,) = inst.placement.blocks
        assert [(sf.owners, Fraction(sf.n, inst.placement.unit)) for sf in block] == [
            ((u,), Fraction(1, 4)) for u in range(1, 5)]
        plan = inst.plan((1, 2, 3, 4))
        store, _ = materialize(inst.placement, plan)
        log = execute_delivery(store, plan)
        (f1, a1, n1, _), (f2, a2, n2, _) = bound_parts(plan)[0]  # A2 xor B1
        F = store.F_bits
        expect = (read_bits(store, f1, int(a1 * F), int((a1 + n1) * F))
                  ^ read_bits(store, f2, int(a2 * F), int((a2 + n2) * F)))
        assert log.payloads[0] == expect

    def test_worked_example_log_is_one_file(self):
        _, plan, store, _ = worked_system()
        log = execute_delivery(store, plan)
        assert log.total_bits == store.F_bits  # rate exactly 1

    def test_load_additivity(self):
        _, plan, store, _ = worked_system()
        log = execute_delivery(store, plan)
        per_tx = sum(
            int(Fraction(width, plan.template.unit) * store.F_bits)
            for width, _ in plan.template.transmissions
        )
        assert log.total_bits == per_tx

    def test_log_carries_the_compiled_widths(self):
        # the widths are computed once, when the template is compiled, and
        # the log holds that same tuple for every demand
        _, plan, store, _ = worked_system()
        log = execute_delivery(store, plan)
        cp = plan.template.compiled[store.F_bits]
        assert cp._fields == ("parts", "widths", "edges")
        assert type(cp.widths) is tuple and log.widths is cp.widths
        other = BoundPlan(plan.template, (4, 4, 1, 2))
        assert execute_delivery(store, other).widths is cp.widths


class TestDecodeAll:
    def test_equal_scheme_distinct_demands(self):
        inst = SchemeInstance("equal", 4, 4, Fraction(1))
        reports = verify_demands(inst, mode="distinct")
        assert all(r.passed for r in reports)
        assert all(r.measured_load == Fraction(3, 2) for r in reports)

    def test_corrupted_log_fails(self):
        ctx, plan, store, caches = worked_system()
        log = execute_delivery(store, plan)
        report = decode_all(caches, flipped(log, 0, 0), (1, 2, 3, 4), plan, store)
        assert not report.passed
        assert not all(report.user_ok)

    @pytest.mark.parametrize("inst,user", [
        (WORKED, 1), (WORKED, 4), (SchemeInstance("equal", 4, 4, Fraction(1)), 2),
    ], ids=["large-user", "small-user", "equal-scheme"])
    def test_over_full_cache_fails_verify(self, monkeypatch, inst, user):
        # a user handed every bit still decodes, but its cache is over budget
        def overfilled(*args, **kwargs):
            store, caches = materialize(*args, **kwargs)
            ranges = list(caches.ranges)
            ranges[user - 1] = ((0, caches.F_bits),)
            return store, CacheImage(caches.N, caches.F_bits, tuple(ranges))

        monkeypatch.setattr(simulator, "materialize", overfilled)
        verdict = verify_demands(inst)
        assert verdict.report.user_ok == tuple(u != user for u in range(1, 5))
        assert not verdict.passed

    def test_coverage_is_counted_one_mask_row_at_a_time(self):
        # nothing K*F_bits wide is allocated: an int64 copy of (K, F_bits)
        # cache masks alone would take 8*K*F_bits bytes
        inst = SchemeInstance("proposed", 20, 14, Fraction(5, 2), L=7, Mhat=7)
        plan = inst.plan(tuple(range(1, 15)))
        store, caches = materialize(inst.placement, plan)
        log = execute_delivery(store, plan)
        tracemalloc.start()
        try:
            report = decode_all(caches, log, plan.demand, plan, store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 8 * 14 * store.F_bits

    def test_unrealizable_formula_rate_raises(self):
        _, plan, store, caches = worked_system()  # F_bits = 8
        log = execute_delivery(store, plan)
        with pytest.raises(ValueError, match="formula rate"):
            decode_all(caches, log, (1, 2, 3, 4), plan, store,
                       formula_rate=Fraction(1, 3))

    @pytest.mark.parametrize("N,extra", [(4, 8), (4, -8), (5, 0)],
                             ids=["wider", "narrower", "more-files"])
    def test_cache_image_of_another_size_refused(self, N, extra):
        inst = SchemeInstance("proposed", 10, 4, Fraction(11, 4), L=2,
                              Mhat=Fraction(33, 4))
        plan = inst.plan((1, 2, 3, 4))
        store, caches = materialize(inst.placement, plan, F_bits=2400)
        masks = [row[:2400 + extra] + [True] * extra for row in caches.masks.tolist()]
        log = execute_delivery(store, plan)
        with pytest.raises(ValueError, match=(
                rf"^cache image of {N} files of {2400 + extra} bits does not fit "
                r"the store's 10 files of 2400 bits$")):
            decode_all(cache_from_masks(N, masks), log, (1, 2, 3, 4), plan, store)

    def test_log_of_other_widths_refused(self):
        _, plan, store, caches = worked_system()
        log = execute_delivery(store, plan)
        short = TransmissionLog(log.payloads[:-1], log.widths[:-1])
        with pytest.raises(ValueError, match="^transmission log does not match "
                                             "the plan's widths$"):
            decode_all(caches, short, (1, 2, 3, 4), plan, store)

    def test_log_short_of_payloads_refused(self):
        # every width is the plan's, but the last payload is missing
        _, plan, store, caches = worked_system()
        log = execute_delivery(store, plan)
        with pytest.raises(ValueError, match="^transmission log does not match "
                                             "the plan's widths$"):
            decode_all(caches, log._replace(payloads=log.payloads[:-1]), (1, 2, 3, 4),
                       plan, store)

    @pytest.mark.parametrize("t", [0, 3])
    def test_payload_bit_past_its_width_fails(self, t):
        # the residue reads each part to its width, so a set bit past it shows
        _, plan, store, caches = worked_system()
        log = execute_delivery(store, plan)
        clean = decode_all(caches, log, (1, 2, 3, 4), plan, store).user_ok
        for bit in (log.widths[t], log.widths[t] + 9):
            report = decode_all(caches, flipped(log, t, bit), (1, 2, 3, 4), plan, store)
            assert report.user_ok == DECODE_OUTCOMES[t] != clean

    def test_worked_example_exhaustive(self):
        reports = verify_demands(WORKED, mode="exhaustive")
        assert len(reports) == 256
        assert all(r.passed for r in reports)

    def test_report_lines_format(self):
        inst = SchemeInstance("equal", 4, 4, Fraction(1))
        reports = verify_demands(inst, mode="distinct")
        lines = report_lines(reports)
        assert lines[0] == "demand=1,2,3,4 status=ok,ok,ok,ok load=3/2"


def largest_load(inst, **kwargs):
    """Largest measured load over the verified demands."""
    return max(r.measured_load for r in verify_demands(inst, **kwargs))


class TestWorstCaseLoad:
    def test_equal_worked_example(self):
        inst = SchemeInstance("equal", 4, 4, Fraction(1))
        assert largest_load(inst, mode="exhaustive") == Fraction(3, 2)

    def test_proposed_worked_example(self):
        assert largest_load(WORKED, mode="exhaustive") == 1

    def test_full_cache_zero_load(self):
        inst = SchemeInstance("equal", 4, 4, Fraction(4))
        assert largest_load(inst, mode="distinct") == 0

    def test_exhaustive_refuses_large_instances(self):
        # 30^5 = 24,300,000 demands: past MAX_ENUMERATION, refused before any work
        inst = SchemeInstance("equal", 30, 5, Fraction(1))
        with pytest.raises(ValueError, match=r"^N\^K = 24300000 demands is too many "
                                             r"for exhaustive mode \(limit 1000000\); "
                                             "use distinct-demand mode$"):
            verify_demands(inst, mode="exhaustive")

    def test_a_count_of_exactly_the_limit_is_accepted(self):
        # 10^6 = MAX_ENUMERATION: counted, never listed
        assert simulator.MAX_ENUMERATION == 10**6
        assert enumerate_demands(10, 6, "exhaustive").count == 10**6

    def test_distinct_mode_demand_count(self):
        assert len(list(enumerate_demands(4, 3, "distinct"))) == 24
        assert len(list(enumerate_demands(3, 3, "exhaustive"))) == 27

    def test_unknown_mode_refused(self):
        with pytest.raises(ValueError, match="^unknown demand mode 'bogus'$"):
            enumerate_demands(4, 4, "bogus")

    @pytest.mark.parametrize("N,K,mode", [
        (4, 3, "distinct"), (5, 5, "distinct"), (6, 1, "distinct"),
        (3, 3, "exhaustive"), (4, 1, "exhaustive"), (1, 1, "exhaustive"),
    ])
    def test_count_agrees_with_enumeration(self, N, K, mode):
        demands = enumerate_demands(N, K, mode)
        assert demands.count == len(list(demands))

    @pytest.mark.parametrize("exhaustive,count", [
        (True, 30**30), (False, math.factorial(30)),
    ], ids=["exhaustive", "distinct"])
    def test_count_past_the_index_sized_integer(self, exhaustive, count):
        # counted, never listed: no len() could hold this count
        demands = DemandSet(30, 30, exhaustive)
        assert demands.count == count > sys.maxsize


def flipped(log, transmission, bit):
    """``log`` with one bit of one payload flipped."""
    payloads = list(log.payloads)
    payloads[transmission] ^= 1 << bit
    return log._replace(payloads=tuple(payloads))


class TestOneDecode:
    POINTS = [
        (WORKED, "exhaustive"),
        (SchemeInstance("proposed", 6, 4, Fraction(5, 4), L=2, Mhat=Fraction(7, 2)),
         "distinct"),
        (SchemeInstance("equal", 5, 3, Fraction(7, 4)), "exhaustive"),
    ]

    @pytest.mark.parametrize("inst,mode", POINTS)
    @pytest.mark.parametrize("flip_bit", [None, (0, 0), (1, 0)])
    def test_matches_single_demand_decoding(self, inst, mode, flip_bit):
        # each demand decoded on its own plan, with the same bit flipped
        template = inst.plan(tuple(range(1, inst.K + 1)))
        store, caches = materialize(inst.placement, template)
        reports = verify_demands(inst, mode=mode, flip_bit=flip_bit)
        assert len(reports) == len(list(enumerate_demands(inst.N, inst.K, mode)))
        for report in islice(reports, None, None, 7):
            plan = inst.plan(report.demand)
            log = execute_delivery(store, plan)
            if flip_bit is not None:
                log = flipped(log, *flip_bit)
            assert decode_all(caches, log, report.demand, plan, store,
                              formula_rate=inst.formula_rate) == report

    def test_decodes_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return decode_all(*args, **kwargs)

        monkeypatch.setattr(simulator, "decode_all", counted)
        assert len(verify_demands(WORKED, mode="exhaustive")) == 256
        assert calls == [(1, 2, 3, 4)]

    def test_xors_once(self, monkeypatch):
        # the server XORs once; decode_all checks the log against the files
        # without the server's XOR, and nothing a delivery leaves behind
        calls = []
        xor = simulator._xor

        def counted(*args):
            calls.append(args[2])
            return xor(*args)

        monkeypatch.setattr(simulator, "_xor", counted)
        assert verify_demands(WORKED, mode="exhaustive").passed
        assert calls == [(1, 2, 3, 4)]
        _, plan, store, caches = worked_system()
        log = execute_delivery(store, plan)
        report = decode_all(caches, log, (1, 2, 3, 4), plan, store)
        assert report.passed
        # after another delivery from the same store, and with the server's
        # XOR refused, the same log decodes to the same report
        execute_delivery(store, WORKED.plan((2, 1, 4, 3)))
        assert calls == [(1, 2, 3, 4), (1, 2, 3, 4), (2, 1, 4, 3)]

        def refused(*args):
            raise AssertionError("decode_all called the server's XOR")

        monkeypatch.setattr(simulator, "_xor", refused)
        assert decode_all(caches, log, (1, 2, 3, 4), plan, store) == report

    def test_verify_builds_one_report(self, capsys, monkeypatch):
        built = []
        report = simulator.VerificationReport

        def counted(*args, **kwargs):
            built.append((args, kwargs))
            return report(*args, **kwargs)

        def not_listed(*args, **kwargs):
            raise AssertionError("demands listed to count them")

        monkeypatch.setattr(simulator, "VerificationReport", counted)
        monkeypatch.setattr(simulator, "permutations", not_listed)
        assert cli.main(["verify", "--N", "10", "--K", "4", "--L", "2",
                         "--Mhat", "33/4", "--M", "11/4"]) == 0
        assert capsys.readouterr().out.startswith("5040/5040 demands pass")
        assert len(built) <= 1
        point = SchemeInstance("proposed", 10, 4, Fraction(11, 4), L=2,
                               Mhat=Fraction(33, 4))
        assert len(verify_demands(point)) == math.perm(10, 4)

    def test_flip_out_of_range(self):
        with pytest.raises(ValueError, match="transmission 99 has no bit 0"):
            verify_demands(WORKED, flip_bit=(99, 0))

    def test_flip_range_ends_at_the_log(self):
        # the worked example sends 5 transmissions of 2, 2, 2, 1 and 1 bits
        widths = (2, 2, 2, 1, 1)
        _, plan, store, _ = worked_system()
        assert execute_delivery(store, plan).widths == widths
        for t, bit in [(len(widths), 0), (0, widths[0]), (3, widths[3])]:
            with pytest.raises(ValueError, match=f"^transmission {t} has no bit {bit}$"):
                verify_demands(WORKED, flip_bit=(t, bit))
        assert not verify_demands(WORKED, flip_bit=(4, widths[4] - 1)).passed


class TestDecodeOutcomes:
    """Per-user outcomes at the worked example, identity demand."""

    @pytest.mark.parametrize("t,user_ok", DECODE_OUTCOMES.items())
    def test_flipped_or_dropped_transmission(self, t, user_ok):
        _, plan, store, caches = worked_system()
        log = execute_delivery(store, plan)
        d = (1, 2, 3, 4)
        assert decode_all(caches, flipped(log, t, 0), d, plan, store).user_ok == user_ok
        txs = plan.template.transmissions
        dropped = BoundPlan(DeliveryPlan(plan.template.unit, txs[:t] + txs[t + 1:]), d)
        dropped_log = TransmissionLog(log.payloads[:t] + log.payloads[t + 1:],
                                      log.widths[:t] + log.widths[t + 1:])
        assert decode_all(caches, dropped_log, d, dropped, store).user_ok == user_ok

    def test_cleared_cache_bit(self):
        _, plan, store, caches = worked_system()
        masks = caches.masks.tolist()
        masks[3][masks[3].index(True)] = False
        report = decode_all(cache_from_masks(caches.N, masks),
                            execute_delivery(store, plan), (1, 2, 3, 4), plan, store)
        assert report.user_ok == (True, True, True, False)

    def test_part_read_only_where_the_others_are_cancelled(self):
        # user 1 is also sent, in plain, the half of its file it caches; with
        # that half cleared from its cache the plain part refills it, but the
        # XOR, whose other part user 1 no longer caches, gives it nothing
        inst = SchemeInstance("equal", 2, 2, Fraction(1))
        template = inst.plan((1, 2)).template
        (tx,) = template.transmissions
        width, row = tx
        other = next(offset for target, offset in row if target == 2)
        plain = (width, ((1, other),))
        plan = BoundPlan(DeliveryPlan(template.unit, (tx, plain)), (1, 2))
        store, caches = materialize(inst.placement, plan)
        log = execute_delivery(store, plan)
        assert decode_all(caches, log, (1, 2), plan, store).user_ok == (True, True)
        masks = caches.masks.tolist()
        masks[0] = [False] * caches.F_bits
        report = decode_all(cache_from_masks(2, masks), log, (1, 2), plan, store)
        assert report.user_ok == (False, True)

    def test_a_transmission_naming_a_user_twice_is_refused(self):
        # user 1 is sent the half it caches and the half it lacks in one XOR:
        # two parts for one target, which no builder emits, are not decoded
        inst = SchemeInstance("equal", 2, 2, Fraction(1))
        template = inst.plan((1, 2)).template
        ((width, row),) = template.transmissions
        lacks = next(offset for target, offset in row if target == 1)
        has = next(offset for target, offset in row if target == 2)
        plan = BoundPlan(DeliveryPlan(template.unit, ((width, ((1, has), (1, lacks))),)),
                         (1, 2))
        store, _ = materialize(inst.placement, plan)
        message = "^transmission 0 names user 1 twice$"
        with pytest.raises(ValueError, match=message):
            simulator.compile_plan(plan.template, store.F_bits)
        with pytest.raises(ValueError, match=message):
            execute_delivery(store, plan)


class TestCompile:
    def test_takes_the_template_it_reads(self):
        # compile_plan reads a template, and required_bits one optional plan
        params = inspect.signature(simulator.compile_plan).parameters
        assert [(p.name, p.annotation) for p in params.values()] == [
            ("template", "DeliveryPlan"), ("F_bits", "int")]
        params = inspect.signature(required_bits).parameters
        assert [(p.name, p.kind, p.default) for p in params.values()] == [
            ("placement", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
            ("plan", inspect.Parameter.POSITIONAL_OR_KEYWORD, None)]

    def test_rejects_a_transmission_without_parts(self):
        with pytest.raises(ValueError, match="transmission 0 has no parts"):
            simulator.compile_plan(DeliveryPlan(4, ((1, ()),)), 4)

    def test_rejects_a_transmission_without_bits(self):
        # no builder emits a zero-width row, and none is compiled
        plan = DeliveryPlan(4, ((1, ((1, 0),)), (0, ((2, 1),))))
        with pytest.raises(ValueError, match="^transmission 1 sends no bits$"):
            simulator.compile_plan(plan, 4)

    def test_rejects_a_boundary_off_the_bits(self):
        # the worked example's parts are eighths of a file: 4 bits is too few
        _, plan, _, _ = worked_system()
        with pytest.raises(ValueError, match="^F_bits=4 cannot realize the part "
                                             "boundary 1/8: boundaries must be "
                                             "integer bits$"):
            simulator.compile_plan(plan.template, 4)

    def test_rejects_bits_sent_twice(self):
        _, plan, store, _ = worked_system()
        twice = DeliveryPlan(plan.template.unit, plan.template.transmissions[:1] * 2)
        with pytest.raises(ValueError, match="of its file twice"):
            simulator.compile_plan(twice, store.F_bits)

    def test_rejects_a_part_sent_twice_in_one_transmission(self):
        # the second copy is not the user's first part in the transmission
        inst = SchemeInstance("equal", 2, 2, Fraction(1))
        template = inst.plan((1, 2)).template
        ((width, row),) = template.transmissions
        part = next(p for p in row if p[0] == 1)
        once = DeliveryPlan(template.unit, ((width, (part,)),))
        cp = simulator.compile_plan(once, 2)
        assert (cp.parts, cp.edges) == ([[(0, 0, 1)]], [1, 2])  # bits [1, 2)
        twice = DeliveryPlan(template.unit, ((width, (part, part)),))
        with pytest.raises(ValueError, match=r"user 1 bits \[1, 2\) of its file twice"):
            simulator.compile_plan(twice, 2)

    def test_load_is_fixed_at_compile_time(self):
        template = WORKED.plan((1, 2, 3, 4)).template
        F = required_bits(WORKED.placement, template)
        cp = simulator.compile_plan(template, F)
        assert sum(cp.widths) == WORKED.formula_rate * F
        assert all(r.measured_load_bits == sum(cp.widths)
                   for r in verify_demands(WORKED, mode="exhaustive"))

    def test_one_verify_compiles_once(self, monkeypatch):
        # execute_delivery and decode_all share the template's compiled bits,
        # and every plan bound from the template later reuses them
        compiled = []

        def counted(plan, F_bits):
            compiled.append(F_bits)
            return compile_plan(plan, F_bits)

        compile_plan = simulator.compile_plan
        monkeypatch.setattr(simulator, "compile_plan", counted)
        inst = SchemeInstance("proposed", 4, 4, Fraction(1), L=3, Mhat=Fraction(2))
        assert verify_demands(inst, mode="exhaustive").passed
        assert compiled == [8]
        plan = inst.plan((4, 4, 1, 2))
        store, caches = materialize(inst.placement, plan)
        log = execute_delivery(store, plan)
        assert decode_all(caches, log, (4, 4, 1, 2), plan, store).passed
        assert compiled == [8]

    @pytest.mark.parametrize("step", ["execute", "decode"])
    def test_an_unbound_template_is_refused(self, step):
        _, plan, store, caches = worked_system()
        log = execute_delivery(store, plan)
        with pytest.raises(ValueError, match="plan bound to a demand, got DeliveryPlan"):
            if step == "execute":
                execute_delivery(store, plan.template)
            else:
                decode_all(caches, log, (1, 2, 3, 4), plan.template, store)

    def test_decode_refuses_plan_for_another_demand(self):
        _, plan, store, caches = worked_system()
        log = execute_delivery(store, plan)
        with pytest.raises(ValueError, match="does not serve demand"):
            decode_all(caches, log, (2, 2, 3, 4), plan, store)

