"""Rules on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cachecast

PACKAGE = Path(cachecast.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


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


def _imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numpy" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and (node.module or "").split(".")[0] == "numpy"
    return False


def test_only_the_simulator_imports_numpy():
    # rates and plans are exact rationals; numpy is for bits alone
    found = sorted({
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _imports_numpy(node)
    })
    assert found == ["simulator.py"]


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
print("numpy" in sys.modules)
"""


def test_rate_and_sweep_load_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-3:] == ["False", "True", "True"]
