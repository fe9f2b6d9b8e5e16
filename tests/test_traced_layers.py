"""Every layer the benchmark tracer wraps must still exist in the package.

The tracer reports an absent layer instead of failing, so a renamed or
deleted layer function would silently drop out of the benchmark's per-layer
numbers; this test fails instead.
"""

import importlib
import importlib.util
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
