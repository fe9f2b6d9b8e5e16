"""Rules on the package source itself."""

import ast
import fractions
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import cachecast
from cachecast import equal_cache
from cachecast.simulator import SchemeInstance
from cachecast.unequal import SCHEMES, UnequalConfig, rate_ueq, unequal_params

PACKAGE = Path(cachecast.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
# the tests and demos, which load no numpy either
SCRIPTS = sorted(p for d in ("tests", "demos")
                 for p in Path(__file__).parents[1].joinpath(d).glob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 1


def test_no_assert_statements():
    # correctness checks must be real exceptions: ``python -O`` strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _importers(paths, packages: set[str]) -> list[str]:
    """The files among ``paths`` that import a module of ``packages``."""
    def imports(node: ast.AST) -> bool:
        if isinstance(node, ast.Import):
            return any(a.name.split(".")[0] in packages for a in node.names)
        if isinstance(node, ast.ImportFrom):
            return node.level == 0 and (node.module or "").split(".")[0] in packages
        return False

    return sorted({
        str(path.relative_to(PACKAGE.parents[1]))
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if imports(node)
    })


def test_no_module_imports_numpy():
    # rates and plans are exact rationals, and bits are bytes and ints: the
    # package needs nothing outside the standard library, and the tests and
    # demos read masks as bytes and lists
    assert len(SCRIPTS) > 10
    assert _importers(SOURCES + SCRIPTS, {"numpy"}) == []


def test_no_module_starts_a_process():
    # every command runs in one process: the sweep's process pool never paid
    # for its workers (README, "CLI")
    assert _importers(SOURCES, {"concurrent", "multiprocessing"}) == []


NUMPY_PROBE = """
import sys
import cachecast
from cachecast import cli
assert cli.main(["rate", "--N", "4", "--K", "4", "--L", "3", "--Mhat", "2",
                 "--M", "1"]) == 0
assert cli.main(["sweep", "--N", "4", "--K", "4", "--L", "3", "--sweep-axis", "M",
                 "--from", "0", "--to", "2", "--step", "1",
                 "--scheme", "equal,proposed,scheme1"]) == 0
print("numpy" in sys.modules)
print(cachecast.materialize is cachecast.simulator.materialize)
assert cli.main(["verify", "--N", "10", "--K", "4", "--L", "2", "--Mhat", "33/4",
                 "--M", "11/4"]) == 0
print("numpy" in sys.modules)
"""


def test_rate_and_sweep_load_no_numpy():
    # nor does the simulator, which verify runs
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[-4:-2], lines[-1]) == (["False", "True"], "False")


def test_no_module_imports_dataclasses():
    # records are NamedTuples: dataclasses pulls inspect, ast and tokenize
    # into every process that imports the package
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert found == []


# Run under ``python -S``: a site hook may preload some of these modules and
# hide a regression.  No command needs multiprocessing or numpy; the sweep
# passes --jobs 1, as perfbench's fig5-sweep does.
IMPORT_BUDGET_PROBE = """
import sys
HEAVY = ("dataclasses", "inspect", "pathlib", "multiprocessing", "concurrent.futures",
         "numpy")
import cachecast
print([name for name in HEAVY if name in sys.modules])
from cachecast import cli
assert cli.main(["rate", "--N", "10", "--K", "4", "--L", "2", "--Mhat", "33/4",
                 "--M", "11/4"]) == 0
assert cli.main(["sweep", "--N", "4", "--K", "4", "--L", "3", "--sweep-axis", "M",
                 "--from", "0", "--to", "2", "--step", "1", "--jobs", "1",
                 "--scheme", "equal,proposed,scheme1"]) == 0
assert cli.main(["verify", "--N", "10", "--K", "4", "--L", "2", "--Mhat", "33/4",
                 "--M", "11/4"]) == 0
print([name for name in HEAVY if name in sys.modules])
"""


def test_import_and_serial_commands_stay_in_the_import_budget():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", IMPORT_BUDGET_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()  # the probe's lists, around the commands' output
    assert (lines[0], lines[-1]) == ("[]", "[]")


def _constructors(names: set[str]) -> dict[str, set[str]]:
    """Map each class or function in ``names`` to the functions whose bodies
    call it by name."""
    found: dict[str, set[str]] = {name: set() for name in names}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in names):
                    found[node.func.id].add(func.name)
    return found


def test_one_layered_placement_builder():
    # subfiles are laid out by equal_placement alone and re-owned only by the
    # pooled refinement, each as integers in its placement's one unit, so
    # nothing rescales a built placement
    assert _constructors({"Subfile"}) == {
        "Subfile": {"equal_placement", "refine_pool"},
    }


def test_one_two_level_build_path():
    # the two-level scheme is built along one path: stage 1, the pooled
    # refinement and the scenario-2 split are all laid out in build_two_stage
    found = _constructors({"refine_pool", "equal_placement"})
    assert found == {
        "refine_pool": {"build_two_stage"},
        "equal_placement": {"build_two_stage", "_built"},
    }


def test_one_xor_delivery_builder_and_one_way_to_bits():
    # every XOR row is cut by aligned_transmissions, a template is made only
    # where its unit is fixed, nothing is built per demand, and every plan
    # reaches bits through compile_plan
    assert _constructors({"DeliveryPlan", "CompiledPlan", "_bit_range"}) == {
        "DeliveryPlan": {"build_two_stage", "_built"},
        "CompiledPlan": {"compile_plan"},
        "_bit_range": {"materialize"},
    }


def test_the_decoder_never_borrows_the_server_s_xor():
    # decode_all checks a log against the files with its own XOR, so a fault
    # in the server's XOR cannot hide behind the check
    assert _constructors({"_xor"}) == {"_xor": {"execute_delivery"}}


def _function(name: str, module: str) -> ast.FunctionDef:
    path = PACKAGE / module
    return next(node for node in ast.walk(ast.parse(path.read_text(), str(path)))
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_the_rate_formula_is_one_split_and_builds_nothing():
    # rate_ueq is the build's split at gamma as one expression, with no case
    # per scenario or for an empty pool, and it calls nothing from the
    # construction, so it stays an oracle independent of the build
    func = _function("rate_ueq", "unequal.py")
    ifs = [ast.unparse(node.test) for node in ast.walk(func) if isinstance(node, ast.If)]
    calls = {ast.unparse(node.func) for node in ast.walk(func)
             if isinstance(node, ast.Call)}
    assert ifs == ["p.gamma is not None"]
    assert calls == {"unequal_params", "rate_eq", "min", "math.gcd", "Fraction", "RateReport"}


def test_the_simulator_names_no_scheme():
    # what a user's cache holds is SchemeInstance.cache_fill, which
    # verify_demands reads, so the bits layer never dispatches on a scheme name
    path = PACKAGE / "simulator.py"
    named = [f"simulator.py:{node.lineno} {node.value!r}"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Constant) and node.value in SCHEMES]
    assert named == []
    assert "cache_fill" in {node.attr for node in ast.walk(_function(
        "verify_demands", "simulator.py")) if isinstance(node, ast.Attribute)}


@pytest.mark.parametrize("inst", [
    SchemeInstance("equal", 5, 3, Fraction(7, 4)),
    SchemeInstance("proposed", 6, 4, Fraction(3, 2), L=2, Mhat=Fraction(9, 4)),
    SchemeInstance("proposed", 5, 4, Fraction(5, 4), L=2, Mhat=Fraction(15, 4)),
], ids=["equal", "scenario-1", "scenario-2"])
def test_rows_are_built_only_by_aligned_transmissions(monkeypatch, inst):
    # a row is a plain tuple, so the pin is by identity: every row of a
    # template is an object aligned_transmissions returned, in its order
    made = []
    aligned = equal_cache.aligned_transmissions

    def recorded(components):
        rows = aligned(components)
        made.extend(rows)
        return rows

    monkeypatch.setattr(equal_cache, "aligned_transmissions", recorded)
    rows = inst.plan(tuple(range(1, inst.K + 1))).template.transmissions
    assert made and len(rows) == len(made)
    assert all(row is out for row, out in zip(rows, made))


INTEGER_LAYERS = {"_layers": "equal_cache.py", "window_unit": "equal_cache.py",
                  "equal_placement": "equal_cache.py",
                  "aligned_transmissions": "equal_cache.py",
                  "xor_delivery": "equal_cache.py", "_promote_once": "incremental.py",
                  "split_factor": "incremental.py", "build_two_stage": "unequal.py"}
# checked by the profile alone: its refusal messages may format a Fraction
PROFILED_LAYERS = set(INTEGER_LAYERS) | {"refine_pool"}


def _fractions_made(build) -> tuple[set[str], Counter[str]]:
    """Run ``build`` under a profiler: (the functions it called, how many
    ``Fraction``s were made in each function's own frame, by a call or by
    arithmetic).  A comprehension's frame counts as its caller's."""
    called: set[str] = set()
    made: Counter[str] = Counter()

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename != fractions.__file__:
            called.add(code.co_name)
        elif code.co_name in ("__new__", "_from_coprime_ints"):
            while (frame.f_code.co_filename == fractions.__file__
                   or frame.f_code.co_name.startswith("<")):
                frame = frame.f_back
            made[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        build()
    finally:
        sys.setprofile(None)
    return called, made


def _makes_one_fraction() -> Fraction:
    """The profile's positive control: a function that makes a Fraction."""
    return Fraction(1, 3)


def test_the_construction_layers_compute_in_integers():
    # the window arithmetic, the placement, the XOR rows, the pool's split
    # factor, promotion and refinement, and the two-stage build make no
    # Fraction and read the level without equal_params: checked in the
    # source, and while the equal scheme, both scenarios and an XOR with
    # multi-pair components (at (8,5,2,7/3,5/4)) are built
    for name, module in INTEGER_LAYERS.items():
        calls = {node.func.id for node in ast.walk(_function(name, module))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert not calls & {"Fraction", "equal_params"}, name
    insts = [SchemeInstance("equal", 5, 3, Fraction(7, 4)),
             SchemeInstance("proposed", 6, 4, Fraction(3, 2), L=2, Mhat=Fraction(9, 4)),
             SchemeInstance("proposed", 5, 4, Fraction(5, 4), L=2, Mhat=Fraction(15, 4)),
             SchemeInstance("proposed", 8, 5, Fraction(5, 4), L=2, Mhat=Fraction(7, 3))]
    for inst in insts:
        inst.report  # the rate path makes Fractions; build only
    called, made = _fractions_made(
        lambda: ([inst.placement for inst in insts], _makes_one_fraction()))
    assert PROFILED_LAYERS <= called
    assert "_makes_one_fraction" in made  # the recorder sees a Fraction made
    assert made.keys().isdisjoint(PROFILED_LAYERS)


@pytest.mark.parametrize("cfg, shape", [
    (UnequalConfig(5, 3, 1, 4, 4), (True, 1)),
    (UnequalConfig(6, 4, 2, Fraction(9, 4), Fraction(3, 2)), (False, 1)),
    (UnequalConfig(5, 4, 2, Fraction(15, 4), Fraction(5, 4)), (False, 2)),
], ids=["empty-pool", "scenario-1", "scenario-2"])
def test_the_rate_layer_makes_one_fraction_per_value(cfg, shape):
    # unequal_params makes each field it sets among F', occupied, R', M', Phi
    # and gamma as one Fraction from integers, and rate_ueq the rate alone:
    # Fraction arithmetic in either frame would make more
    p = unequal_params(cfg)
    assert (p.pool_empty, p.scenario) == shape
    fields = (p.Fprime, p.occupied, p.Rprime, p.Mprime, p.Phi, p.gamma)
    _, made = _fractions_made(lambda: (rate_ueq(cfg), _makes_one_fraction()))
    assert made["_makes_one_fraction"] == 1  # the recorder counts each one
    assert made["unequal_params"] == sum(f is not None for f in fields) <= 6
    assert made["rate_ueq"] == 1


def _names(node: ast.AST) -> str | None:
    """The name a node defines or reads, if it is a definition or a name."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.name
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def test_views_and_second_checks_stay_out_of_the_package():
    # the per-demand view, the re-check of scheme 1's shares and the helpers
    # that only tests read live in tests/views.py or nowhere; a plan holds
    # integer rows, not an object per part, and a compiled plan each part
    # once and each transmission's width, not offsets into one payload
    # buffer; a placement holds integer subfiles in one unit, not segments; a
    # build is its placement and template, with no copy of the config, and
    # the derived parameters hold none either; a store keeps no copy of what
    # it delivered; sharing_level is the one reader of t = K*M/N
    gone = {"FileSegment", "BetaAllocation", "user_intervals", "lcm_denominators",
            "Part", "Transmission", "Segment", "_total_length", "_levels"}
    members = {"BoundPlan": {"transmissions"},
               "CompiledPlan": {"live", "sent", "total_bits"},
               "Subfile": {"segments", "length"}, "TwoStageContext": {"cfg"},
               "FileStore": {"delivered"}, "_FileStore": {"delivered"},
               "UnequalParams": {"L", "Mhat"}}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if _names(node) in gone:
                found.append(f"{path.name}:{node.lineno} {_names(node)}")
            if isinstance(node, ast.ClassDef) and node.name in members:
                found += [f"{path.name}:{item.lineno} {node.name}.{_names(item)}"
                          for item in node.body if _names(item) in members[node.name]]
    assert found == []


def test_the_simulator_keeps_widths_not_offsets():
    # each transmission's width is scaled once, in compile_plan; nothing in
    # the simulator accumulates widths into payload offsets
    tree = ast.parse((PACKAGE / "simulator.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "accumulate" not in imported
