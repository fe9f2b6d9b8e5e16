"""One benchmark run in a fresh process: a closed loop over one workload.

The loop issues one call at a time through cachecast's public entry points,
checks every answer, and stops at the first call that ends after the time
limit.  It prints one JSON object with the counts, latencies and, when
tracing, the per-layer summary.  ``run.py`` starts this file; it is not meant
to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import random
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())
MAX_ERRORS = 5


@dataclass
class Call:
    """One closed-loop request: ``ops`` operations checked by ``run``.

    ``run`` returns the number of failed operations and a message for the
    first failure; an exception or non-zero exit fails every operation.
    """

    ops: int
    inputs: str
    run: Callable[[], tuple[int, str | None]]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    import cachecast.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cachecast.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _exit_failure(ops: int, code: int, err: str) -> tuple[int, str]:
    return ops, f"exit {code}: {err.strip()[-200:]}"


# ---------------------------------------------------------------------------
# fig5-sweep: the Fig-5 family, proposed scheme against scheme 1
# ---------------------------------------------------------------------------


def sweep_calls(ref: dict, seed: int) -> Iterator[Call]:
    fam = ref["family"]
    argv = [
        "sweep", "--N", str(fam["N"]), "--K", str(fam["K"]), "--L", str(fam["L"]),
        "--Mhat-factor", fam["Mhat_factor"], "--from", fam["from"], "--to", fam["to"],
        "--step", fam["step"], "--scheme", "proposed,scheme1", "--format", "csv",
        "--jobs", "1",
    ]
    ops = 2 * len(ref["points"])
    while True:
        yield Call(ops, " ".join(argv), lambda: check_sweep(argv, ref))


def check_sweep(argv: list[str], ref: dict) -> tuple[int, str | None]:
    """Proposed rows must match byte for byte; scheme-1 rows must satisfy
    proposed <= scheme1 <= the frozen grid-search value."""
    ops = 2 * len(ref["points"])
    code, out, err = run_cli(argv)
    if code != 0:
        return _exit_failure(ops, code, err)
    lines = out.splitlines()
    if not lines or lines[0] != ref["header"]:
        return ops, f"CSV header differs: {lines[:1]}"
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        rows[(fields[4], fields[5])] = (line, fields)
    failed, first = 0, None
    for point in ref["points"]:
        m = point["M"]
        prop = rows.get((m, "proposed"))
        if prop is None or prop[0] != point["proposed"]:
            failed += 1
            first = first or f"M={m} proposed row {prop and prop[0]!r}"
        s1 = rows.get((m, "scheme1"))
        ok = s1 is not None and prop is not None
        if ok:
            lower = Fraction(prop[1][6])
            value = Fraction(s1[1][6])
            ok = lower <= value <= Fraction(point["scheme1_max"])
        if not ok:
            failed += 1
            first = first or f"M={m} scheme1 row {s1 and s1[0]!r} out of range"
    if len(lines) - 1 != ops:
        failed = ops
        first = first or f"expected {ops} rows, got {len(lines) - 1}"
    return failed, first


# ---------------------------------------------------------------------------
# verify-distinct: bit-exact decoding over every distinct demand
# ---------------------------------------------------------------------------

SUMMARY = re.compile(
    r"^(\d+)/(\d+) demands pass, load (\S+) \(.*\) = formula rate (\S+)$"
)


def verify_calls(ref: dict, seed: int, extra: tuple[str, ...] = ()) -> Iterator[Call]:
    pt = ref["point"]
    expected = SUMMARY.match(ref["summary"])
    ops = int(expected.group(2))
    rng = random.Random(seed)
    while True:
        argv = [
            "verify", "--N", str(pt["N"]), "--K", str(pt["K"]), "--L", str(pt["L"]),
            "--Mhat", pt["Mhat"], "--M", pt["M"], "--seed", str(rng.randrange(2**31)),
            *extra,
        ]
        yield Call(ops, " ".join(argv),
                   lambda argv=argv: check_verify(argv, expected, ops))


def check_verify(argv: list[str], expected: re.Match, ops: int) -> tuple[int, str | None]:
    """Every demand passes and load and formula rate equal the frozen line's."""
    code, out, err = run_cli(argv)
    if code != 0:
        return _exit_failure(ops, code, err + out)
    lines = out.splitlines()
    got = SUMMARY.match(lines[-1]) if lines else None
    if got is None:
        return ops, f"no summary line in {out[-200:]!r}"
    passed, total = int(got.group(1)), int(got.group(2))
    if total != ops or Fraction(got.group(3)) != Fraction(expected.group(3)) or \
            Fraction(got.group(4)) != Fraction(expected.group(4)):
        return ops, f"summary differs: {lines[-1]!r}"
    if passed != total:
        return total - passed, f"summary reports failures: {lines[-1]!r}"
    return 0, None


# ---------------------------------------------------------------------------
# rate-prove: random points, rate checked against a plan, caches and a decode
# ---------------------------------------------------------------------------


def _rational(rng: random.Random, lo: Fraction, hi: int, qmax: int) -> Fraction:
    q = rng.randint(1, qmax)
    return Fraction(rng.randint(math.ceil(lo * q), hi * q), q)


def rate_calls(ref: dict, seed: int) -> Iterator[Call]:
    """Rounds over every (N, K, L) shape in a seeded order, so each run sees
    the same mix of shapes; cache sizes, demand and file bits are random."""
    rng = random.Random(seed)
    shapes = [(N, K, L) for K in range(2, ref["K_max"] + 1)
              for N in range(K, ref["N_max"] + 1) for L in range(1, K)]
    while True:
        rng.shuffle(shapes)
        for N, K, L in shapes:
            M = _rational(rng, Fraction(0), N, ref["denominator_max"])
            Mhat = _rational(rng, M, N, ref["denominator_max"])
            demand = tuple(rng.randint(1, N) for _ in range(K))
            file_seed = rng.randrange(2**31)
            point = (N, K, L, Mhat, M)
            yield Call(1, f"{point} {demand} {file_seed}",
                       lambda a=(point, demand, file_seed): check_rate(*a))


def check_rate(point, demand, file_seed) -> tuple[int, str | None]:
    """CLI rate = plan load = formula rate, caches within budget, decode exact."""
    import cachecast

    N, K, L, Mhat, M = point
    code, out, err = run_cli([
        "rate", "--N", str(N), "--K", str(K), "--L", str(L),
        "--Mhat", str(Mhat), "--M", str(M), "--scheme", "proposed",
    ])
    if code != 0:
        return _exit_failure(1, code, err)
    printed = Fraction(out.split()[1])
    inst = cachecast.SchemeInstance("proposed", N, K, M, L, Mhat)
    plan = inst.plan(demand)
    if not printed == plan.total_load == inst.formula_rate:
        return 1, (f"{point}: printed {printed}, plan {plan.total_load}, "
                   f"formula {inst.formula_rate}")
    for user in range(1, K + 1):
        budget = Mhat if user <= L else M
        if inst.placement.user_load(user) > budget:
            return 1, f"{point}: user {user} caches {inst.placement.user_load(user)}"
    store, caches = cachecast.materialize(inst.placement, plan, seed=file_seed)
    log = cachecast.execute_delivery(store, plan)
    report = cachecast.decode_all(caches, log, demand, plan, store,
                                  formula_rate=inst.formula_rate)
    if not report.passed:
        return 1, f"{point}: {report.line()}"
    return 0, None


WORKLOADS = {
    "fig5-sweep": sweep_calls,
    "verify-distinct": verify_calls,
    "rate-prove": rate_calls,
}


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def closed_loop(calls: Iterator[Call], seconds: float, tracer=None) -> dict:
    """Run calls until one ends after ``seconds`` of wall time.

    Times are CPU times of this single-threaded process, scaled to the
    reference host by the calibration kernel (see ``calibrate.py``).  The
    kernel is sampled from a timer signal during the loop; its own CPU time
    is taken off the calls it interrupted, and off the tracer's spans.  The
    raw wall and CPU figures are returned alongside.
    """
    sampler = calibrate.Sampler()
    digest = hashlib.sha256()
    latencies: list[float] = []
    cpu_calls: list[tuple[float, int, int, int]] = []  # CPU s, ops, sample range
    ops = failed = n_calls = 0
    errors: list[str] = []
    sampler.start()
    if tracer is not None:
        tracer.clock = lambda: time.perf_counter() - sampler.spent
        tracer.harness_begin()
    try:
        start = time.perf_counter()
        cpu_start, spent_start = time.process_time(), sampler.spent
        for call in calls:
            digest.update(call.inputs.encode() + b"\n")
            spent, first = sampler.spent, len(sampler.samples)
            c0 = time.process_time()
            try:
                bad, message = call.run()
            except Exception as exc:  # any exception fails the call's operations
                bad, message = call.ops, f"{type(exc).__name__}: {exc}"
            c1 = time.process_time() - (sampler.spent - spent)
            cpu_calls.append((c1 - c0, call.ops, first, len(sampler.samples)))
            n_calls += 1
            ops += call.ops
            failed += bad
            if message and len(errors) < MAX_ERRORS:
                errors.append(message)
            if time.perf_counter() - start >= seconds:
                break
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu_start - (sampler.spent - spent_start)
    finally:
        sampler.stop()
    if tracer is not None:
        tracer.harness_end()
    raw_latencies: list[float] = []
    scaled_cpu = 0.0
    calls_cpu = sum(c[0] for c in cpu_calls)
    for cpu_s, call_ops, first, last in cpu_calls:
        scale = sampler.scale(first, last)
        scaled_cpu += cpu_s * scale
        raw_latencies.extend([cpu_s / call_ops] * call_ops)
        latencies.extend([cpu_s * scale / call_ops] * call_ops)
    latencies.sort()
    raw_latencies.sort()
    return {
        "ops": ops,
        "failed": failed,
        "calls": n_calls,
        "errors": errors,
        "throughput_ops_s": ops / scaled_cpu,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p99_ms": percentile(latencies, 99) * 1e3,
        "latency_samples": len(latencies),
        "scale": scaled_cpu / calls_cpu,
        "kernel_samples": len(sampler.samples),
        "raw": {
            "elapsed_s": elapsed,
            "cpu_s": cpu,
            "wall_throughput_ops_s": ops / elapsed,
            "cpu_throughput_ops_s": ops / cpu,
            "cpu_op_p50_ms": statistics.median(raw_latencies) * 1e3,
            "cpu_op_p99_ms": percentile(raw_latencies, 99) * 1e3,
        },
        "inputs_digest": digest.hexdigest(),
        "peak_rss_mb": max_rss_mb(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced spans to this .npz file")
    args = parser.parse_args(argv)

    import numpy

    import cachecast.cli  # noqa: F401  (imported before the loop and the tracer)

    setup_rss_mb = max_rss_mb()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    calls = WORKLOADS[args.workload](REFERENCE[args.workload][args.size], args.seed)
    result = closed_loop(calls, args.seconds, tracer)
    result["setup_rss_mb"] = setup_rss_mb
    result["python"] = platform.python_version()
    result["numpy"] = numpy.__version__
    if tracer is not None:
        result["trace"] = tracer.summary()
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
