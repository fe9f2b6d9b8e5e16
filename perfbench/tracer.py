"""Span tracer that wraps cachecast's layer functions from outside the package.

Each listed function is replaced, at every place a ``cachecast`` module binds
it, by a wrapper that records one span (layer, parent span, start, end) and
reads counts from the return value.  Spans stay in compact in-memory arrays
until the run ends; ``summary`` then turns them into calls, inclusive time and
self time per layer.  A listed name that the package no longer defines is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from array import array

# (module, qualified name) of every traced layer function.
LAYERS = [
    ("cli", "main"),
    ("baselines", "scheme1_optimize"),
    ("baselines", "scheme1_rate_at"),
    ("equal_cache", "rate_eq"),
    ("equal_cache", "equal_placement"),
    ("unequal", "rate_ueq"),
    ("unequal", "build_two_stage"),
    ("unequal", "TwoStageContext.plan"),
    ("incremental", "refine_pool"),
    ("simulator", "SchemeInstance.plan"),
    ("simulator", "required_bits"),
    ("simulator", "materialize"),
    ("simulator", "execute_delivery"),
    ("simulator", "decode_all"),
    ("simulator", "verify_demands"),
]

# Counts read from return values: metric -> (layer, "sum" | "max", extractor,
# unit).  A "_frac" count is divided by the layer's calls when reported.
COUNTERS = {
    "baselines.scheme1_rate_at.infeasible_frac": (
        "baselines.scheme1_rate_at", "sum", lambda r: int(r is None), "ratio"),
    "equal_cache.equal_placement.subfiles": (
        "equal_cache.equal_placement", "sum", lambda r: len(r.subfiles), "count"),
    "incremental.refine_pool.subfiles": (
        "incremental.refine_pool", "sum", lambda r: len(r[0].subfiles), "count"),
    "unequal.build_two_stage.subfiles": (
        "unequal.build_two_stage", "sum", lambda r: len(r.placement.subfiles), "count"),
    "unequal.TwoStageContext.plan.transmissions": (
        "unequal.TwoStageContext.plan", "sum", lambda r: len(r.transmissions), "count"),
    "simulator.required_bits.F_bits_max": (
        "simulator.required_bits", "max", int, "bits"),
    "simulator.materialize.mask_bytes_max": (
        "simulator.materialize", "max", lambda r: int(r[1].masks.nbytes), "bytes"),
    "simulator.execute_delivery.bits_sent": (
        "simulator.execute_delivery", "sum", lambda r: int(r.total_bits), "bits"),
    "simulator.decode_all.users_decoded": (
        "simulator.decode_all", "sum", lambda r: len(r.user_ok), "count"),
    "simulator.decode_all.users_failed": (
        "simulator.decode_all", "sum", lambda r: sum(not ok for ok in r.user_ok), "count"),
    "simulator.verify_demands.demands": (
        "simulator.verify_demands", "sum", len, "count"),
}

HARNESS = "harness"


class Tracer:
    """In-memory span store; span 0 is the harness span around the timed phase."""

    def __init__(self) -> None:
        self.names: list[str] = [HARNESS]
        self.absent: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self.counts: dict[str, int] = {name: 0 for name in COUNTERS}
        self.count_errors: set[str] = set()
        self._stack: list[int] = []
        self._active: list[int] = [0]
        self.clock = time.perf_counter  # worker.closed_loop leaves out calibration time

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(1 if self._active[nid] else 0)
        self.end.append(0.0)
        self._active[nid] += 1
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()
        self._active[nid] -= 1

    def harness_begin(self) -> None:
        if self._stack or len(self.start):
            raise RuntimeError("harness span must be the first, outermost span")
        self._open(0)

    def harness_end(self) -> None:
        self._close(0, 0)

    def wrap(self, layer: str, fn):
        nid = len(self.names)
        self.names.append(layer)
        self._active.append(0)
        counters = [(name, how, extract) for name, (owner, how, extract, _)
                    in COUNTERS.items() if owner == layer]
        counts = self.counts
        errors = self.count_errors
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx, nid)
            for name, how, extract in counters:
                try:
                    value = extract(result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    errors.add(name)
                    continue
                counts[name] = counts[name] + value if how == "sum" else max(
                    counts[name], value)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__qualname__ = getattr(fn, "__qualname__", layer)
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function wherever a cachecast module binds it."""
        package = importlib.import_module("cachecast")
        modules = [package]
        for info in pkgutil.iter_modules(package.__path__):
            modules.append(importlib.import_module(f"cachecast.{info.name}"))
        for mod_name, qualname in LAYERS:
            layer = f"{mod_name}.{qualname}"
            module = sys.modules.get(f"cachecast.{mod_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = module
            if module is not None and owner_name:
                owner = getattr(module, owner_name, None)
            original = None if owner is None else vars(owner).get(attr)
            if not callable(original):
                self.absent.append(layer)
                continue
            traced = self.wrap(layer, original)
            if owner_name:
                setattr(owner, attr, traced)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, traced)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per layer: calls, inclusive time (outermost spans only), self time."""
        import numpy as np

        name_id = np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = np.frombuffer(self.nested, dtype=np.int8)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=len(duration))
        width = len(self.names)
        calls = np.bincount(name_id, minlength=width)
        total = np.bincount(name_id, weights=np.where(nested == 0, duration, 0.0),
                            minlength=width)
        self_time = np.bincount(name_id, weights=duration - child_time,
                                minlength=width)
        layers = {
            name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(self_time[i])}
            for i, name in enumerate(self.names) if i
        }
        return {
            "layers": layers,
            "harness_self_s": float(self_time[0]),
            "wall_s": float(duration[0]) if len(duration) else 0.0,
            "spans": int(len(duration)),
            "counts": dict(self.counts),
            "count_errors": sorted(self.count_errors),
            "absent": list(self.absent),
        }

    def save(self, path) -> None:
        """Write every span to ``path`` as a compressed numpy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
