import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cachecast import cli, simulator
from cachecast.equal_cache import (
    DeliveryPlan,
    FileSegment,
    Part,
    Transmission,
    equal_placement,
    man_placement,
)
from cachecast.simulator import (
    CacheImage,
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

WORKED = SchemeInstance("proposed", 4, 4, Fraction(1), L=3, Mhat=Fraction(2))


def worked_system(seed=0):
    ctx = build_two_stage(UnequalConfig(4, 4, 3, 2, 1))
    plan = ctx.plan((1, 2, 3, 4))
    store, caches = materialize(ctx.placement, plan, seed=seed)
    return ctx, plan, store, caches


class TestMaterialize:
    def test_deterministic_for_fixed_seed(self):
        _, _, store_a, _ = worked_system(seed=42)
        _, _, store_b, _ = worked_system(seed=42)
        assert np.array_equal(store_a.bits, store_b.bits)

    def test_seed_changes_content(self):
        _, _, store_a, _ = worked_system(seed=1)
        _, _, store_b, _ = worked_system(seed=2)
        assert not np.array_equal(store_a.bits, store_b.bits)

    def test_worked_example_needs_eight_bits(self):
        ctx, plan, store, _ = worked_system()
        assert required_bits(ctx.placement, plan) == 8
        assert store.F_bits == 8

    def test_zero_cache_empty_image(self):
        placement = equal_placement(3, 3, 0)
        _, caches = materialize(placement)
        assert caches.masks.sum() == 0

    def test_rejects_indivisible_bit_width(self):
        placement = equal_placement(4, 4, 1)
        with pytest.raises(ValueError, match="file"):
            materialize(placement, F_bits=3)

    def test_cache_budget_in_bits(self):
        _, _, store, caches = worked_system()
        budgets = {1: 2, 2: 2, 3: 2, 4: 1}
        for user, m in budgets.items():
            assert caches.user_bits(user) == m * store.F_bits


class TestExecuteDelivery:
    def test_single_part_is_plaintext(self):
        inst = SchemeInstance("equal", 4, 1, 1)
        plan = inst.plan((2,))
        store, _ = materialize(inst.placement, plan)
        log = execute_delivery(store, plan)
        seg = plan.transmissions[0].parts[0].segment
        a = int(seg.start * store.F_bits)
        b = int(seg.stop * store.F_bits)
        assert np.array_equal(log.payloads[0], store.bits[seg.file - 1, a:b])

    def test_xor_of_two_parts(self):
        inst = SchemeInstance("equal", 4, 4, 1)
        assert inst.placement == man_placement(4, 4, 1)
        plan = inst.plan((1, 2, 3, 4))
        store, _ = materialize(inst.placement, plan)
        log = execute_delivery(store, plan)
        tx = plan.transmissions[0]  # A2 xor B1
        (s1, s2) = (p.segment for p in tx.parts)
        F = store.F_bits
        expect = (
            store.bits[s1.file - 1, int(s1.start * F): int(s1.stop * F)]
            ^ store.bits[s2.file - 1, int(s2.start * F): int(s2.stop * F)]
        )
        assert np.array_equal(log.payloads[0], expect)

    def test_worked_example_log_is_one_file(self):
        _, plan, store, _ = worked_system()
        log = execute_delivery(store, plan)
        assert log.total_bits == store.F_bits  # rate exactly 1

    def test_load_additivity(self):
        _, plan, store, _ = worked_system()
        log = execute_delivery(store, plan)
        per_tx = sum(
            int(tx.length * store.F_bits) for tx in plan.transmissions
        )
        assert log.total_bits == per_tx


class TestDecodeAll:
    def test_equal_scheme_distinct_demands(self):
        inst = SchemeInstance("equal", 4, 4, Fraction(1))
        reports = verify_demands(inst, mode="distinct")
        assert all(r.passed for r in reports)
        assert all(r.measured_load == Fraction(3, 2) for r in reports)

    def test_corrupted_log_fails(self):
        ctx, plan, store, caches = worked_system()
        log = execute_delivery(store, plan)
        payloads = list(log.payloads)
        corrupted = payloads[0].copy()
        corrupted[0] ^= 1
        payloads[0] = corrupted
        report = decode_all(
            caches, TransmissionLog(tuple(payloads)), (1, 2, 3, 4), plan, store
        )
        assert not report.passed
        assert not all(report.user_ok)

    def test_unrealizable_formula_rate_raises(self):
        _, plan, store, caches = worked_system()  # F_bits = 8
        log = execute_delivery(store, plan)
        with pytest.raises(ValueError, match="formula rate"):
            decode_all(caches, log, (1, 2, 3, 4), plan, store,
                       formula_rate=Fraction(1, 3))

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
        inst = SchemeInstance("equal", 30, 4, Fraction(1))
        with pytest.raises(ValueError, match="distinct"):
            verify_demands(inst, mode="exhaustive", max_demands=10**5)

    def test_distinct_mode_demand_count(self):
        assert len(list(enumerate_demands(4, 3, "distinct"))) == 24
        assert len(list(enumerate_demands(3, 3, "exhaustive"))) == 27

    @pytest.mark.parametrize("N,K,mode", [
        (4, 3, "distinct"), (5, 5, "distinct"), (6, 1, "distinct"),
        (3, 3, "exhaustive"), (4, 1, "exhaustive"), (1, 1, "exhaustive"),
    ])
    def test_indexing_agrees_with_enumeration(self, N, K, mode):
        demands = enumerate_demands(N, K, mode)
        listed = list(demands)
        assert len(demands) == len(listed)
        assert [demands[i] for i in range(len(listed))] == listed
        assert demands[0] == listed[0] and demands[-len(listed)] == listed[0]
        assert demands[-1] == listed[-1] and demands[1::3] == listed[1::3]
        for out_of_range in (len(listed), -len(listed) - 1):
            with pytest.raises(IndexError):
                demands[out_of_range]

    def test_indexing_lists_no_more_than_the_index(self):
        # 20^14 demands: listing them all would never finish
        demands = enumerate_demands(20, 14, "exhaustive", max_demands=20**14)
        assert demands[0] == (1,) * 14
        assert demands[21] == (1,) * 12 + (2, 2)


def flipped(log, transmission, bit):
    """``log`` with one transmitted bit flipped."""
    payloads = [p.copy() for p in log.payloads]
    payloads[transmission][bit] ^= 1
    return TransmissionLog(tuple(payloads))


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
        for report in reports[::7]:
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

    def test_verify_builds_one_report(self, capsys, monkeypatch):
        built = []
        report = simulator.VerificationReport

        def counted(*args, **kwargs):
            built.append((args, kwargs))
            return report(*args, **kwargs)

        monkeypatch.setattr(simulator, "VerificationReport", counted)
        assert cli.main(["verify", "--N", "10", "--K", "4", "--L", "2",
                         "--Mhat", "33/4", "--M", "11/4"]) == 0
        assert capsys.readouterr().out.startswith("5040/5040 demands pass")
        assert len(built) <= 1

        def not_listed(*args, **kwargs):
            raise AssertionError("demands listed to count them")

        monkeypatch.setattr(simulator, "permutations", not_listed)
        point = SchemeInstance("proposed", 10, 4, Fraction(11, 4), L=2,
                               Mhat=Fraction(33, 4))
        assert len(verify_demands(point)) == math.perm(10, 4)

    def test_flip_out_of_range(self):
        with pytest.raises(ValueError, match="transmission 99 has no bit 0"):
            verify_demands(WORKED, flip_bit=(99, 0))


class TestDecodeOutcomes:
    """Per-user outcomes at the worked example, identity demand."""

    @pytest.mark.parametrize("t,user_ok", [
        (0, (False, True, True, False)),
        (3, (False, False, False, True)),
    ])
    def test_flipped_or_dropped_transmission(self, t, user_ok):
        _, plan, store, caches = worked_system()
        log = execute_delivery(store, plan)
        d = (1, 2, 3, 4)
        assert decode_all(caches, flipped(log, t, 0), d, plan, store).user_ok == user_ok
        dropped = DeliveryPlan(plan.transmissions[:t] + plan.transmissions[t + 1:])
        dropped_log = TransmissionLog(log.payloads[:t] + log.payloads[t + 1:])
        assert decode_all(caches, dropped_log, d, dropped, store).user_ok == user_ok

    def test_cleared_cache_bit(self):
        _, plan, store, caches = worked_system()
        masks = caches.masks.copy()
        masks[3, np.flatnonzero(masks[3])[0]] = False
        report = decode_all(CacheImage(caches.N, masks), execute_delivery(store, plan),
                            (1, 2, 3, 4), plan, store)
        assert report.user_ok == (True, True, True, False)

    def test_part_read_only_where_the_others_are_cancelled(self):
        # user 1 is also sent, in plain, the half of its file it caches; with
        # that half cleared from its cache the plain part refills it, but the
        # XOR, whose other part user 1 no longer caches, gives it nothing
        inst = SchemeInstance("equal", 2, 2, Fraction(1))
        (tx,) = inst.plan((1, 2)).transmissions
        other = next(p.segment for p in tx.parts if p.target == 2)
        plain = Transmission((Part(FileSegment(other.start, other.length, 1), 1),))
        plan = DeliveryPlan((tx, plain))
        store, caches = materialize(inst.placement, plan)
        log = execute_delivery(store, plan)
        assert decode_all(caches, log, (1, 2), plan, store).user_ok == (True, True)
        masks = caches.masks.copy()
        masks[0] = False
        report = decode_all(CacheImage(2, masks), log, (1, 2), plan, store)
        assert report.user_ok == (False, True)

    def test_user_reads_only_its_first_part(self):
        # user 1's first part is the half it caches, its second the half it
        # lacks: it would have to cancel the second to read the first
        inst = SchemeInstance("equal", 2, 2, Fraction(1))
        (tx,) = inst.plan((1, 2)).transmissions
        lacks = next(p.segment for p in tx.parts if p.target == 1)
        has = next(p.segment for p in tx.parts if p.target == 2)
        plan = DeliveryPlan((Transmission((
            Part(FileSegment(has.start, has.length, 1), 1), Part(lacks, 1),
        )),))
        store, caches = materialize(inst.placement, plan)
        report = decode_all(caches, execute_delivery(store, plan), (1, 2), plan, store)
        assert report.user_ok == (False, False)


class TestCompile:
    def test_rejects_unequal_widths(self):
        # widths are checked in bits, once, when a plan is compiled; building
        # a Transmission checks nothing
        _, plan, store, _ = worked_system()
        tx = plan.transmissions[0]
        seg = tx.parts[0].segment
        short = Part(replace(seg, length=seg.length / 2), tx.parts[0].target)
        tx = Transmission((short, *tx.parts[1:]))
        with pytest.raises(ValueError, match="unequal segment lengths"):
            simulator.compile_plan(DeliveryPlan((tx,)), store.F_bits)

    def test_rejects_a_transmission_without_parts(self):
        with pytest.raises(ValueError, match="transmission 0 has no parts"):
            simulator.compile_plan(DeliveryPlan((Transmission(()),)), 4)

    def test_rejects_bits_sent_twice(self):
        _, plan, store, _ = worked_system()
        twice = DeliveryPlan(plan.transmissions[:1] * 2)
        with pytest.raises(ValueError, match="of its file twice"):
            simulator.compile_plan(twice, store.F_bits)

    def test_rejects_a_part_sent_twice_in_one_transmission(self):
        # the second copy is not the user's first part in the transmission
        inst = SchemeInstance("equal", 2, 2, Fraction(1))
        part = next(p for p in inst.plan((1, 2)).transmissions[0].parts if p.target == 1)
        once = DeliveryPlan((Transmission((part,)),))
        assert simulator.compile_plan(once, 2).parts == [[(0, 0, 1, 2)]]
        twice = DeliveryPlan((Transmission((part, part)),))
        with pytest.raises(ValueError, match=r"user 1 bits \[1, 2\) of its file twice"):
            simulator.compile_plan(twice, 2)

    def test_load_is_fixed_at_compile_time(self):
        template = WORKED.plan((1, 2, 3, 4))
        F = required_bits(WORKED.placement, template)
        cp = simulator.compile_plan(template, F)
        assert cp.total_bits == WORKED.formula_rate * F
        assert all(r.measured_load_bits == cp.total_bits
                   for r in verify_demands(WORKED, mode="exhaustive"))

    def test_decode_refuses_plan_for_another_demand(self):
        _, plan, store, caches = worked_system()
        log = execute_delivery(store, plan)
        with pytest.raises(ValueError, match="does not serve demand"):
            decode_all(caches, log, (2, 2, 3, 4), plan, store)

