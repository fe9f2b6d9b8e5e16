"""Every layer the benchmark tracer wraps must still exist in the package,
and every count it reads from a layer's return value must still be readable.

The tracer reports an absent layer, or a counter whose value it cannot read,
instead of failing, so a renamed layer function or a changed return value
would silently drop out of the benchmark's per-layer numbers; these tests
fail instead.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = load_layers()


def test_layers_listed():
    assert LAYERS


@pytest.mark.parametrize("mod_name,qualname", LAYERS,
                         ids=[f"{m}.{q}" for m, q in LAYERS])
def test_layer_resolves_to_callable(mod_name, qualname):
    # the lookup ``Tracer.install`` makes: module attribute, or class attribute
    module = importlib.import_module(f"cachecast.{mod_name}")
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    assert owner is not None, f"cachecast.{mod_name} has no {owner_name}"
    assert callable(vars(owner).get(attr)), f"{mod_name}.{qualname} is not callable"


COUNTER_PROBE = """
import itertools, json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import tracer, worker
t = tracer.Tracer()
t.install()
calls = itertools.chain.from_iterable(
    itertools.islice(make(worker.REFERENCE[name]["tiny"], 0), 3)
    for name, make in worker.WORKLOADS.items())
result = worker.closed_loop(calls, 60, t)
summary = t.summary()
print(json.dumps({{"ops": result["ops"], "failed": result["failed"],
                  "count_errors": summary["count_errors"], "absent": summary["absent"]}}))
"""


def test_counters_read_every_workload():
    # three calls of each workload's tiny size under the tracer, in a child
    # process so that this process's package is never wrapped
    code = COUNTER_PROBE.format(src=str(TRACER.parents[1] / "src"), bench=str(TRACER.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["ops"] > 0 and out["failed"] == 0
    assert out["count_errors"] == [] and out["absent"] == []
