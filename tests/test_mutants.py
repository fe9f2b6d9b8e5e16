"""Mutation gate: each oracle catches a known fault.

Each mutant names a function or method of ``cachecast``, one exact substring
of its source and the text that replaces it.  The test recompiles it from
``inspect.getsource`` with that one edit, puts the result at every place a
``cachecast`` module binds the original function, or on the method's class,
and runs the mutant's oracle, which must now fail.  A substring the source
no longer holds fails the test, so the list follows the code.  Every oracle
passes on the code as it is.
"""

import __future__

import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import tempfile
import textwrap
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import cachecast
from cachecast import baselines, cli, simulator
from cachecast.equal_cache import BoundPlan, DeliveryPlan, rate_eq
from cachecast.simulator import (
    CacheImage, SchemeInstance, decode_all, execute_delivery, materialize,
    verify_demands,
)

MODULES = [cachecast] + [importlib.import_module(f"cachecast.{m.name}")
                         for m in pkgutil.iter_modules(cachecast.__path__)]


# ---------------------------------------------------------------------------
# Oracles: each returns on the code as it is and raises on a fault.  A
# mutated function is called through its module, where the mutant is bound.
# ---------------------------------------------------------------------------


def proposed_scheme_verifies():
    """Bit-exact decode at the formula load: the worked example, memory
    sharing with a refined pool, and scenario 2."""
    for N, K, L, Mhat, M in [(4, 4, 3, 2, 1),
                             (6, 4, 2, Fraction(9, 4), Fraction(3, 2)),
                             (5, 4, 2, Fraction(15, 4), Fraction(5, 4))]:
        inst = SchemeInstance("proposed", N, K, M, L=L, Mhat=Mhat)
        assert verify_demands(inst, "distinct").passed, (N, K, L, Mhat, M)


def proposed_rate_is_between_the_equal_caches():
    """rate_eq(N, K, Mhat) <= proposed <= min(rate_eq(N, K, M), scheme 1), the
    property of tests/test_paper_comparison.py, at two points it drew: an
    empty pool, and scenario 2 with a seven-file library."""
    for N, K, L, Mhat, M in [(5, 3, 1, 4, 4), (7, 4, 2, 5, Fraction(127, 26))]:
        proposed, scheme1 = (SchemeInstance(s, N, K, M, L=L, Mhat=Mhat).formula_rate
                             for s in ("proposed", "scheme1"))
        assert rate_eq(N, K, Mhat) <= proposed <= min(rate_eq(N, K, M), scheme1)


def proposed_caches_fill_their_sizes():
    """Each user of the proposed scheme caches exactly its size, the property
    of tests/test_paper_comparison.py, at the worked example and at a point
    it drew."""
    for N, K, L, Mhat, M in [(4, 4, 3, 2, 1), (9, 5, 2, Fraction(27, 8), 2)]:
        inst = SchemeInstance("proposed", N, K, M, L=L, Mhat=Mhat)
        loads = tuple(inst.placement.user_load(user) for user in range(1, K + 1))
        assert loads == inst.cache_sizes, (N, K, L, Mhat, M)


def flipped_payload_bit_fails():
    inst = SchemeInstance("equal", 4, 4, 1)
    assert not verify_demands(inst, "distinct", flip_bit=(0, 0)).passed


def payloads_fit_their_widths():
    """Each payload of a delivery at a proposed point with a refined pool
    holds no bit at or past its transmission's width."""
    inst = SchemeInstance("proposed", 6, 4, Fraction(3, 2), L=2, Mhat=Fraction(9, 4))
    plan = inst.plan((1, 2, 3, 4))
    store, _ = materialize(inst.placement, plan)
    log = simulator.execute_delivery(store, plan)
    assert all(0 <= p < 1 << w for p, w in zip(log.payloads, log.widths))


def cache_under_its_fill_fails_verify():
    """A user that decodes but caches less than its fill fails: the equal
    scheme at M = 1 held to a fill of 2 for user 1, as a placement that
    leaves part of a large cache empty would be."""
    inst = SchemeInstance("equal", 4, 4, 1)
    inst.cache_fill = (2, 1, 1, 1)
    assert simulator.verify_demands(inst).report.user_ok == (False, True, True, True)


def refuses(make, message):
    try:
        make()
    except ValueError as exc:
        assert message in str(exc)
    else:
        raise AssertionError(f"took what should fail with {message!r}")


def file_of_another_length_is_refused():
    refuses(lambda: simulator.FileStore([b"\0", b"\0\0"], 8), "file 2 holds 2 bytes")


def log_short_of_payloads_is_refused():
    inst = SchemeInstance("equal", 4, 4, 1)
    plan = inst.plan((1, 2, 3, 4))
    store, caches = materialize(inst.placement, plan)
    log = execute_delivery(store, plan)
    short = log._replace(payloads=log.payloads[:-1])
    refuses(lambda: simulator.decode_all(caches, short, (1, 2, 3, 4), plan, store),
            "does not match the plan's widths")


def uncancellable_part_is_not_read():
    """One XOR of two users' uncached files serves neither of them."""
    inst = SchemeInstance("equal", 2, 2, 0)
    template = inst.plan((1, 2)).template
    (width, (a,)), (_, (b,)) = template.transmissions
    plan = BoundPlan(DeliveryPlan(template.unit, ((width, (a, b)),)), (1, 2))
    store, caches = materialize(inst.placement, plan)
    report = decode_all(caches, execute_delivery(store, plan), (1, 2), plan, store)
    assert report.user_ok == (False, False)


def compile_refuses(plan, F_bits, message):
    refuses(lambda: simulator.compile_plan(plan, F_bits), message)


def bit_sent_twice_is_refused():
    template = SchemeInstance("equal", 4, 4, 1).plan((1, 2, 3, 4)).template
    tx = template.transmissions[0]
    compile_refuses(DeliveryPlan(template.unit, (tx, tx)), 4, "twice")


def user_named_twice_is_refused():
    # user 1's two halves, the one it caches and the one it lacks, in one XOR
    template = SchemeInstance("equal", 2, 2, 1).plan((1, 2)).template
    ((width, row),) = template.transmissions
    halves = tuple((1, offset) for _, offset in row)
    compile_refuses(DeliveryPlan(template.unit, ((width, halves),)), 2,
                    "transmission 0 names user 1 twice")


def zero_width_transmission_is_refused():
    compile_refuses(DeliveryPlan(4, ((0, ((1, 0),)),)), 4, "sends no bits")


def boundary_off_the_bits_is_refused():
    # the equal scheme at (4, 4, 1) cuts files in quarters: 2 bits is too few
    template = SchemeInstance("equal", 4, 4, 1).plan((1, 2, 3, 4)).template
    compile_refuses(template, 2, "integer bits")


def subfile_off_the_bits_is_refused():
    # the same quarters, laid out as a placement: its masks need whole bits
    placement = SchemeInstance("equal", 4, 4, 1).placement
    message = ("F_bits=2 cannot realize the file segment [0, 1/4): boundaries "
               "must be integer bits")
    try:
        simulator.materialize(placement, F_bits=2)
    except ValueError as exc:
        assert str(exc) == message
    else:
        raise AssertionError("materialized a placement off the bits")


def unmerged_cache_ranges_are_refused():
    # two overlapping runs, and a run past the file's 8 bits
    for ranges, shown in [(((0, 4), (2, 6)), "[(0, 4), (2, 6)]"),
                          (((4, 9),), "[(4, 9)]")]:
        message = (f"user 1 caches bits {shown}: cache ranges must be non-empty, "
                   "sorted, merged intervals of [0, 8)")
        try:
            CacheImage(4, 8, (ranges,))
        except ValueError as exc:
            assert str(exc) == message
        else:
            raise AssertionError(f"a cache image took the bits {shown}")


def scheme1_ties_go_to_the_lowest_layer():
    # with no cache every layer costs K per unit of share: all pieces tie
    assert baselines.scheme1_optimize(4, 4, [0, 0, 0, 0]) == ((1, 0, 0, 0), 4)


def demand_outside_the_library_is_refused():
    try:
        SchemeInstance("equal", 3, 3, 1).plan((1, 2, 4))
    except ValueError as exc:
        assert "outside 1..3" in str(exc)
    else:
        raise AssertionError("a demand for file 4 of 3 was bound")


def demand_count_over_the_limit_is_refused():
    """Past MAX_ENUMERATION both modes refuse before listing a demand:
    11^6 = 1,771,561 demands, and 11!/3! = 6,652,800 distinct ones."""
    refuses(lambda: simulator.enumerate_demands(11, 6, "exhaustive"),
            "N^K = 1771561 demands is too many")
    refuses(lambda: simulator.enumerate_demands(11, 8, "distinct"),
            "N!/(N-K)! = 6652800 distinct demands is too many")


def config_null_leaves_the_default():
    """A config value of null leaves its key unset: verify runs at seed 0."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        config = Path(tmp, "config.json")
        config.write_text(json.dumps({"seed": None}))
        code = cli.main(["verify", "--scheme", "equal", "--N", "4", "--K", "4", "--M", "1",
                         "--config", str(config)])
    assert code == 0


def sweep_refuses_an_unread_flag():
    """Sweeping Mhat reads --M alone, so --Mhat-factor is refused (main exits
    1 on the ValueError).  The sweep is called through the module, where the
    mutant is bound: the parser is built once and holds the original."""
    args = cli.build_parser().parse_args([
        "sweep", "--N", "4", "--K", "4", "--L", "2", "--sweep-axis", "Mhat", "--M", "1",
        "--Mhat-factor", "3", "--from", "1", "--to", "2", "--step", "1"])
    with contextlib.redirect_stdout(io.StringIO()):
        refuses(lambda: cli.cmd_sweep(cli.Options(args)), "--Mhat-factor is not read")


ORACLES = [proposed_scheme_verifies, proposed_rate_is_between_the_equal_caches,
           proposed_caches_fill_their_sizes, flipped_payload_bit_fails,
           payloads_fit_their_widths,
           cache_under_its_fill_fails_verify, file_of_another_length_is_refused,
           log_short_of_payloads_is_refused,
           uncancellable_part_is_not_read, bit_sent_twice_is_refused,
           user_named_twice_is_refused,
           zero_width_transmission_is_refused, boundary_off_the_bits_is_refused,
           subfile_off_the_bits_is_refused, unmerged_cache_ranges_are_refused,
           scheme1_ties_go_to_the_lowest_layer, demand_outside_the_library_is_refused,
           demand_count_over_the_limit_is_refused, config_null_leaves_the_default,
           sweep_refuses_an_unread_flag]


# ---------------------------------------------------------------------------
# Mutants
# ---------------------------------------------------------------------------


class Mutant(NamedTuple):
    name: str
    function: str  # module.function or module.Class.method inside cachecast
    old: str
    new: str
    oracle: Callable[[], None]


MUTANTS = [
    Mutant("decode-every-own-part-usable", "simulator._decode",
           "if all(row[b2] - row[a2] == width",
           "if True or all(row[b2] - row[a2] == width", uncancellable_part_is_not_read),
    Mutant("decode-ignores-corruption", "simulator._decode",
           "wrong[user] |= bad", "wrong[user] |= False", flipped_payload_bit_fails),
    Mutant("decode-never-fills-missing", "simulator._decode",
           "missing[user] -= width - (row[b] - row[a])", "missing[user] -= 0",
           proposed_scheme_verifies),
    Mutant("decode-drops-partial-interval", "simulator._decode",
           "below + edge - start if edge > start else below", "below",
           proposed_scheme_verifies),
    Mutant("cache-accepts-unmerged-ranges", "simulator.CacheImage.__new__",
           "if ends and not (", "if False and not (", unmerged_cache_ranges_are_refused),
    Mutant("compile-skips-sent-twice", "simulator.compile_plan",
           "if u == v and a < b:", "if False:", bit_sent_twice_is_refused),
    Mutant("compile-allows-a-user-twice", "simulator.compile_plan",
           "if len(dict(row)) < len(row):", "if False:", user_named_twice_is_refused),
    Mutant("compile-sends-zero-widths", "simulator.compile_plan",
           "if not width:", "if False:", zero_width_transmission_is_refused),
    Mutant("compile-floors-boundaries", "simulator.compile_plan",
           "if rest:", "if False:", boundary_off_the_bits_is_refused),
    Mutant("materialize-floors-boundaries", "simulator._bit_range",
           "if rest_a or rest_n:", "if False:", subfile_off_the_bits_is_refused),
    Mutant("cut-one-unit-short", "equal_cache.cut_segments",
           "yield k, i, (a, bound - pos)", "yield k, i, (a, bound - pos - 1)",
           proposed_scheme_verifies),
    Mutant("row-drops-the-last-target", "equal_cache.aligned_transmissions",
           "[(width, tuple(row))]", "[(width, tuple(row[:-1]))]",
           proposed_scheme_verifies),
    Mutant("beta-layer-starts-at-the-window", "equal_cache._layers",
           "s * D + w * a", "s * D", proposed_scheme_verifies),
    Mutant("rate-eq-alpha-swapped", "equal_cache.rate_eq",
           "a * (K - t) * (t + 2) + (D - a) * (K - t - 1) * (t + 1)",
           "(D - a) * (K - t) * (t + 2) + a * (K - t - 1) * (t + 1)",
           proposed_scheme_verifies),
    Mutant("scheme1-ties-to-the-upper-layer", "baselines.scheme1_optimize",
           "in sorted(pieces):", "in sorted(pieces, key=lambda p: (p[0], -p[1])):",
           scheme1_ties_go_to_the_lowest_layer),
    Mutant("split-factor-is-one", "incremental.split_factor",
           "return factor", "return 1", proposed_scheme_verifies),
    Mutant("demands-unchecked-range", "equal_cache.check_demands",
           "if bad:", "if False:", demand_outside_the_library_is_refused),
    Mutant("xor-reads-the-next-file", "simulator._xor",
           "store.files[f - 1]", "store.files[f % store.N]", proposed_scheme_verifies),
    Mutant("read-keeps-bits-past-the-part", "simulator._read",
           " & ((1 << (b - a)) - 1)", "", payloads_fit_their_widths),
    Mutant("verify-holds-caches-only-to-their-sizes", "simulator.verify_demands",
           "== fill * store.F_bits", "<= fill * store.F_bits",
           cache_under_its_fill_fails_verify),
    Mutant("store-takes-a-file-of-any-length", "simulator.FileStore.__new__",
           "if len(buf) != size:", "if False:", file_of_another_length_is_refused),
    Mutant("decode-takes-a-log-short-of-payloads", "simulator.decode_all",
           " or len(log.payloads) != len(cp.widths)", "", log_short_of_payloads_is_refused),
    Mutant("enumeration-takes-any-count", "simulator.enumerate_demands",
           'if count := excess("N^K", (N for _ in range(K)), MAX_ENUMERATION):',
           "if False:", demand_count_over_the_limit_is_refused),
    Mutant("materialize-caches-everything", "simulator.materialize",
           "for owner in sf.owners:", "for owner in range(1, placement.K + 1):",
           proposed_scheme_verifies),
    Mutant("gamma-complemented", "unequal.unequal_params",
           "gamma = Fraction((N * hq - hp) * pq, hq * (N * pq - pp))",
           "gamma = Fraction(hq * (N * pq - pp) - (N * hq - hp) * pq, hq * (N * pq - pp))",
           proposed_rate_is_between_the_equal_caches),
    Mutant("mprime-uses-half-the-extra-cache", "unequal.unequal_params",
           "xn, xd = hp * mq - mp * hq, hq * mq", "xn, xd = hp * mq - mp * hq, 2 * hq * mq",
           proposed_caches_fill_their_sizes),
    Mutant("config-null-is-a-value", "cli.Options.__init__",
           "continue  # null leaves the key unset", "pass", config_null_leaves_the_default),
    Mutant("sweep-reads-every-flag", "cli.cmd_sweep",
           "if key in opts.flags and key != read:", "if False:",
           sweep_refuses_an_unread_flag),
]


def install(monkeypatch, mutant: Mutant) -> None:
    """Recompile ``mutant.function`` with its one edit and bind the result
    on its class if it is a method, else wherever a cachecast module binds
    the original."""
    module_name, qualname = mutant.function.split(".", 1)
    module = importlib.import_module(f"cachecast.{module_name}")
    *classes, name = qualname.split(".")
    owner = module
    for attr in classes:
        owner = getattr(owner, attr)
    original = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(original))
    if source.count(mutant.old) != 1:
        raise AssertionError(f"{mutant.function} holds {mutant.old!r} "
                             f"{source.count(mutant.old)} times, not once")
    code = compile(source.replace(mutant.old, mutant.new),
                   inspect.getsourcefile(original), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    scope: dict = {}
    exec(code, vars(module), scope)
    if classes:
        monkeypatch.setattr(owner, name, scope[name])
        return
    bound = [(mod, attr) for mod in MODULES for attr, value in vars(mod).items()
             if value is original]
    for mod, attr in bound:
        monkeypatch.setattr(mod, attr, scope[name])


@pytest.mark.parametrize("oracle", ORACLES, ids=[o.__name__ for o in ORACLES])
def test_oracle_passes_on_the_code(oracle):
    oracle()


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_caught(monkeypatch, mutant):
    install(monkeypatch, mutant)
    with pytest.raises(Exception):
        mutant.oracle()


def test_verify_fails_a_pool_filled_by_half(monkeypatch, capsys):
    # this fault leaves each large cache short of Mhat, yet every user decodes
    # and the load equals its own formula rate: only the fill check sees it
    install(monkeypatch, next(m for m in MUTANTS
                              if m.name == "mprime-uses-half-the-extra-cache"))
    assert cli.main(["verify", "--N", "4", "--K", "4", "--L", "3", "--Mhat", "2",
                     "--M", "1"]) == 2
    assert capsys.readouterr().out.startswith("0/24 demands pass")
