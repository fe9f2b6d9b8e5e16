#!/usr/bin/env python3
"""cachecast benchmark: time one workload end to end, or trace it layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload rate-prove --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` in fresh child processes, one at a
time.  With ``--trace 0`` the run measures import time (``setup_s``) and then
one untraced closed loop; with ``--trace 1`` it runs the loop untraced and
traced for half the time each and reports per-layer numbers and the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from tracer import COUNTERS, LAYERS  # noqa: E402
from worker import WORKLOADS  # noqa: E402

DEADLINE_S = 170.0
SETUP_REPEATS = (11, 10)  # fresh imports timed before and after the loop
# A fresh interpreter times ``import cachecast`` in CPU time, then times the
# calibration kernel, and prints both.
SETUP_PROBE = (
    "import time; t = time.process_time(); import cachecast; "
    "t = time.process_time() - t; import statistics, sys; "
    f"sys.path.insert(0, {str(HERE)!r}); import calibrate; calibrate.timed_kernel(); "
    "print(t, statistics.median(calibrate.timed_kernel() for _ in range(9)))"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "setup_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for module, qualname in LAYERS:
        layer = f"{module}.{qualname}"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.total_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    for name, (*_, unit) in COUNTERS.items():
        units[name] = unit
    units.update({
        "harness.self_s": "s",
        "trace.wall_s": "s",
        "trace.accounted_frac": "ratio",
        "trace.spans": "count",
        "trace.absent_layers": "count",
        "trace.throughput_ratio": "ratio",
        "worker.peak_rss_mb": "MB",
    })
    return units


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # Imports are timed against cached bytecode, as for an installed package.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def remaining(started: float) -> float:
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise TimeoutError("benchmark deadline passed")
    return left


def measure_setup(root: Path, env: dict, started: float, repeats: int,
                  warm_up: bool = False) -> list[tuple[float, float]]:
    """Fresh-interpreter ``import cachecast`` CPU times, each with the
    kernel time measured in the same process.  The warm-up import, which
    may write bytecode caches, is not kept."""
    samples = []
    for i in range(repeats + warm_up):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=root, env=env,
            capture_output=True, text=True, timeout=remaining(started),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import cachecast failed: {proc.stderr.strip()}")
        if i >= warm_up:
            import_s, kernel_s = map(float, proc.stdout.split())
            samples.append((import_s, kernel_s))
    return samples


def run_worker(root: Path, env: dict, started: float, args, seconds: float,
               trace: int, spans: Path | None = None) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds), "--size", args.size,
        "--trace", str(trace),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=remaining(started))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def layer_metrics(traced: dict, untraced: dict) -> dict[str, float]:
    summary = traced["trace"]
    values: dict[str, float] = {}
    self_total = summary["harness_self_s"]
    for module, qualname in LAYERS:
        layer = f"{module}.{qualname}"
        rec = summary["layers"].get(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        values[f"{layer}.calls"] = rec["calls"]
        values[f"{layer}.total_s"] = rec["total_s"]
        values[f"{layer}.self_s"] = rec["self_s"]
        self_total += rec["self_s"]
    counts = summary["counts"]
    for name, (layer, *_) in COUNTERS.items():
        values[name] = counts[name]
        if name.endswith("_frac"):
            calls = values[f"{layer}.calls"]
            values[name] = counts[name] / calls if calls else 0.0
    wall = summary["wall_s"]
    values.update({
        "harness.self_s": summary["harness_self_s"],
        "trace.wall_s": wall,
        "trace.accounted_frac": self_total / wall if wall else 0.0,
        "trace.spans": summary["spans"],
        "trace.absent_layers": len(summary["absent"]),
        "trace.throughput_ratio": traced["throughput_ops_s"] / untraced["throughput_ops_s"],
        "worker.peak_rss_mb": untraced["peak_rss_mb"],
    })
    return values


def end_to_end_values(setup: list[tuple[float, float]], result: dict) -> dict[str, float]:
    values = {"setup_s": statistics.median(
        t * calibrate.REFERENCE_KERNEL_S / k for t, k in setup)}
    for name in ("throughput_ops_s", "op_p50_ms", "op_p99_ms", "setup_rss_mb"):
        values[name] = result[name]
    return values


def report(record: dict, runs: list[dict], values: dict, units: dict) -> dict:
    """Print the metric table and the run record; return the result object.

    Every operation of every worker run counts toward ``attempted``; the run
    is correct only when none of them failed.
    """
    result = runs[-1]
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record.update({
        "python": result["python"], "numpy": result["numpy"],
        "inputs_digest": result["inputs_digest"], "ops_total": attempted,
        "ops_failed": failed, "ops_failed_frac": failed / attempted,
        "calls": result["calls"], "latency_samples": result["latency_samples"],
        "peak_rss_mb": result["peak_rss_mb"],
        "scale": result["scale"], "kernel_samples": result["kernel_samples"],
        "raw": result["raw"],
        "errors": [e for r in runs for e in r["errors"]],
    })
    print(f"# {record['workload']} seed={record['seed']} ops_total={attempted} "
          f"ops_failed_frac={failed / attempted:.6g}")
    for name, unit in units.items():
        print(f"{name:48s} {values[name]:>16.6g} {unit}")
    print(json.dumps({"record": record}))
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "cachecast" / "__init__.py").is_file():
        print(f"error: no cachecast source under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    env = child_env(root)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "commit": git_commit(root),
        "source_digest": source_digest(root), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": read_loadavg(),
    }
    try:
        if args.trace:
            spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.npz"
            untraced = run_worker(root, env, started, args, args.seconds / 2, 0)
            result = run_worker(root, env, started, args, args.seconds / 2, 1, spans)
            values = layer_metrics(result, untraced)
            units = per_layer_units()
            record["absent"] = result["trace"]["absent"]
            record["count_errors"] = result["trace"]["count_errors"]
            record["spans_file"] = str(spans.relative_to(root))
            runs = [untraced, result]
        else:
            before, after = SETUP_REPEATS
            setup = measure_setup(root, env, started, before, warm_up=True)
            result = run_worker(root, env, started, args, args.seconds, 0)
            setup += measure_setup(root, env, started, after)
            values = end_to_end_values(setup, result)
            units = END_TO_END_UNITS
            record["setup_samples"] = setup  # (import CPU s, kernel s) pairs
            runs = [result]
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["loadavg_after"] = read_loadavg()
    print(json.dumps(report(record, runs, values, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
