"""The benchmark's own test: tiny runs of every workload, fault counting,
and the tracer's handling of bindings and missing layers.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_harness():
    assert sorted(WORKLOADS) == sorted(worker.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    table = "\n".join(lines[:-2])
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert any(line.split()[0] == m["name"] and line.split()[-1] == m["unit"]
                   for line in table.splitlines()), m["name"]
    record = json.loads(lines[-2])["record"]
    for key in ("seed", "inputs_digest", "source_digest", "commit", "python",
                "numpy", "nproc", "loadavg_before", "loadavg_after", "ops_total",
                "ops_failed_frac"):
        assert key in record
    assert record["ops_failed_frac"] == 0
    if trace:
        metrics = result["metrics"]
        assert metrics["trace.absent_layers"]["value"] == 0
        assert metrics["cli.main.calls"]["value"] >= 1
        assert metrics["trace.accounted_frac"]["value"] == pytest.approx(1, abs=1e-6)


def test_end_to_end_metrics_are_never_zero_on_tiny_runs():
    proc = bench("--workload", "rate-prove", "--seed", "5", "--seconds", "1",
                 "--trace", "0", "--size", "tiny")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert all(m["value"] > 0 for m in metrics.values())


def test_same_seed_gives_same_inputs():
    ref = worker.REFERENCE["rate-prove"]["tiny"]
    first = [c.inputs for _, c in zip(range(60), worker.rate_calls(ref, 11))]
    again = [c.inputs for _, c in zip(range(60), worker.rate_calls(ref, 11))]
    other = [c.inputs for _, c in zip(range(60), worker.rate_calls(ref, 12))]
    assert first == again != other


def _faulty_result(calls) -> dict:
    result = worker.closed_loop(calls, seconds=0.0)
    result.update(python="x", numpy="x", setup_rss_mb=1.0)
    return result


def test_injected_verify_fault_is_counted_as_failed(capsys):
    ref = worker.REFERENCE["verify-distinct"]["tiny"]
    result = _faulty_result(worker.verify_calls(ref, 0, extra=("--inject-fault",)))
    assert result["ops"] == 24 and result["failed"] == 24
    assert result["errors"][0].startswith("exit 2")
    record = {"workload": "verify-distinct", "seed": 0}
    final = run.report(record, [result], run.end_to_end_values([(0.1, 0.001)], result),
                       run.END_TO_END_UNITS)
    assert final["correct"] is False
    assert (final["attempted"], final["failed"]) == (24, 24)
    assert record["ops_failed_frac"] == 1
    assert "ops_failed_frac=1" in capsys.readouterr().out


def test_calibration_scales_each_stretch_by_the_samples_taken_in_it():
    import calibrate

    ref = calibrate.REFERENCE_KERNEL_S
    sampler = calibrate.Sampler()
    sampler.samples = [ref, ref / 2, ref / 2, ref * 2, ref * 2]
    assert sampler.scale(0, 1) == pytest.approx(1)
    assert sampler.scale(1, 3) == pytest.approx(2)  # a host twice as fast
    assert sampler.scale(3, 5) == pytest.approx(0.5)
    assert sampler.scale(3, 3) == pytest.approx((1 + 2 + 2) / 3)  # no sample: the 3 before
    assert calibrate.kernel() == calibrate.KERNEL_RESULT


def test_tampered_reference_row_is_counted_as_failed():
    ref = json.loads(json.dumps(worker.REFERENCE["fig5-sweep"]["tiny"]))
    ref["points"][1]["proposed"] = ref["points"][1]["proposed"].replace("2/3", "3/5", 1)
    result = _faulty_result(worker.sweep_calls(ref, 0))
    assert (result["ops"], result["failed"]) == (4, 1)
    assert "M=4/3 proposed row" in result["errors"][0]


def test_scheme1_row_above_the_frozen_grid_value_fails():
    ref = json.loads(json.dumps(worker.REFERENCE["fig5-sweep"]["tiny"]))
    ref["points"][0]["scheme1_max"] = "1"
    result = _faulty_result(worker.sweep_calls(ref, 0))
    assert (result["ops"], result["failed"]) == (4, 1)


TRACER_PROBE = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import tracer, worker
tracer.LAYERS.append(("simulator", "no_such_layer"))
t = tracer.Tracer()
t.install()
import cachecast, cachecast.cli
wrapped = [cachecast.materialize, cachecast.simulator.materialize,
           cachecast.cli.scheme1_optimize, cachecast.unequal.equal_placement,
           cachecast.simulator.build_two_stage]
ref = worker.REFERENCE["rate-prove"]["tiny"]
result = worker.closed_loop(worker.rate_calls(ref, 1), 0.3, t)
print(json.dumps({{"wrapped": [hasattr(f, "__wrapped__") for f in wrapped],
                  "failed": result["failed"], "trace": t.summary()}}))
"""


def test_tracer_wraps_every_binding_and_marks_missing_layers_absent():
    code = TRACER_PROBE.format(src=str(ROOT / "src"), here=str(HERE))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(out["wrapped"]) and out["failed"] == 0
    summary = out["trace"]
    assert summary["absent"] == ["simulator.no_such_layer"]
    layers = summary["layers"]
    for layer in ("cli.main", "unequal.build_two_stage", "simulator.materialize",
                  "simulator.decode_all"):
        assert layers[layer]["calls"] > 0
    self_sum = summary["harness_self_s"] + sum(v["self_s"] for v in layers.values())
    assert self_sum == pytest.approx(summary["wall_s"], rel=1e-9)
    assert all(v["self_s"] >= 0 for v in layers.values())


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "rate-prove", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
