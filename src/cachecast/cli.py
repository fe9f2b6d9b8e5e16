"""Command-line front end: rate queries, trade-off sweeps, verification runs.

Exit codes: 0 success, 1 invalid input, 2 verification failure.
Flag values override a JSON config file, which overrides defaults.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import functools
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .baselines import import_external_rates
# bound here for perfbench's TRACER_PROBE, which asserts the binding is traced
from .baselines import scheme1_optimize  # noqa: F401
from .core import MAX_ENUMERATION, excess, format_rational, parse_rational
from .unequal import SCHEMES, RateReport, SchemeInstance

# Config keys whose values must be JSON integers.
INTEGER_KEYS = ("N", "K", "L", "seed", "jobs")

CSV_COLUMNS = [
    "N", "K", "L", "Mhat", "M", "scheme", "rate_rational", "rate_decimal",
    "scenario", "t_int", "alpha", "Fprime", "Mprime", "Rprime", "Phi", "gamma",
]


def _rat(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return parse_rational(str(value))


def _dec(x: Fraction) -> str:
    """``x`` to 12 significant digits: as ``.12g`` prints ``float(x)`` where
    that float is zero or normal, else rounded from ``x`` itself, so a value
    past the float range neither overflows nor prints as 0."""
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if sys.float_info.min <= abs(f) < math.inf or not x:
        return f"{f:.12g}"
    # exact decimal division, rounded half to even, reads no term as text
    digits12 = decimal.Context(prec=12)
    return f"{digits12.divide(x.numerator, x.denominator).normalize(digits12):e}"


def _text(x, name: str) -> str:
    """A report field as printed: '' for None, and a rational refused by
    ``format_rational`` when it is too long to print."""
    if x is None:
        return ""
    return format_rational(x, name) if isinstance(x, Fraction) else str(x)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error is invalid input: exit 1, not 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused."""
    parser = _Parser(
        prog="cachecast",
        description="Coded-caching rates, sweeps, and bit-exact verification "
        "for systems with two cache sizes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--N", type=int, help="number of files")
        p.add_argument("--K", type=int, help="number of users")
        p.add_argument("--L", type=int, help="number of large-cache users")
        p.add_argument("--M", help="small cache size (rational, units of F)")
        p.add_argument("--Mhat", help="large cache size (rational, units of F)")
        p.add_argument("--scheme", help="|".join(SCHEMES))
        p.add_argument("--config", help="JSON file with default flag values")
        p.add_argument("--seed", type=int, help="RNG seed for file contents")

    p_rate = sub.add_parser("rate", help="rate at a single parameter point")
    add_common(p_rate)
    p_rate.set_defaults(func=cmd_rate)

    p_sweep = sub.add_parser("sweep", help="rate rows over a parameter grid")
    add_common(p_sweep)
    p_sweep.add_argument("--sweep-axis", dest="sweep_axis", help="M | Mhat | both")
    p_sweep.add_argument("--from", dest="from_", help="axis start (rational)")
    p_sweep.add_argument("--to", help="axis end, inclusive (rational)")
    p_sweep.add_argument("--step", help="axis step (rational)")
    p_sweep.add_argument("--Mhat-factor", dest="mhat_factor",
                         help="set Mhat = factor * M while sweeping M")
    p_sweep.add_argument("--format", help="csv | json")
    p_sweep.add_argument("--external-rates", dest="external_rates",
                         help="table of externally computed rates to attach")
    p_sweep.add_argument("--jobs", type=int, help="worker processes")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="bit-exact decode verification")
    add_common(p_verify)
    p_verify.add_argument("--exhaustive", action="store_true", default=None,
                          help="enumerate all N^K demands (default: distinct)")
    p_verify.add_argument("--inject-fault", dest="inject_fault", action="store_true",
                          default=None, help="flip one transmitted bit")
    p_verify.add_argument("--report", help="write per-demand records to this file")
    p_verify.set_defaults(func=cmd_verify)
    # one config file serves every subcommand: its keys are their flags' destinations
    parser.config_keys = frozenset(
        action.dest.rstrip("_") for p in sub.choices.values() for action in p._actions
        if action.option_strings and action.dest != "help"
    )
    return parser


class Options:
    """Flag values merged over config-file values merged over defaults."""

    def __init__(self, args: argparse.Namespace):
        self._args = args
        self._config = {}
        if getattr(args, "config", None):
            with open(args.config) as fh:
                self._config = json.load(fh)
            if not isinstance(self._config, dict):
                raise ValueError(f"config file {args.config} must hold a JSON object")
            for key in self._config:
                if key not in build_parser().config_keys:
                    raise ValueError(f"config key {key!r} names no flag")
            for key in INTEGER_KEYS:
                value = self._config.get(key)
                if value is not None and type(value) is not int:
                    raise ValueError(f"config value {key!r} must be an integer, "
                                     f"got {value!r}")

    def get(self, name: str, default=None, cast=None):
        value = getattr(self._args, name, None)
        if value is None:
            value = self._config.get(name.rstrip("_"), default)
        if value is None:
            return None
        return cast(value) if cast else value

    def require(self, name: str, default=None, cast=None):
        value = self.get(name, default, cast)
        if value is None:
            raise ValueError(f"missing required parameter --{name.rstrip('_')}")
        return value


def cmd_rate(opts: Options) -> int:
    N = opts.require("N", cast=int)
    K = opts.require("K", cast=int)
    M = opts.require("M", cast=_rat)
    scheme = opts.get("scheme", "proposed")
    L = opts.get("L", cast=int)
    Mhat = opts.get("Mhat", cast=_rat)
    rep = SchemeInstance(scheme, N, K, M, L, Mhat).report
    # every line is formatted before any is written, so a failure prints nothing
    lines = [f"rate {_text(rep.rate, 'rate')} ({_dec(rep.rate)})",
             f"scheme={rep.scheme} N={rep.N} K={rep.K} L={rep.L or ''} "
             f"Mhat={_text(rep.Mhat, 'Mhat')} M={_text(rep.M, 'M')}"]
    if rep.t is not None:
        lines.append(f"t={_text(rep.t, 't')} t_int={rep.t_int} "
                     f"alpha={_text(rep.alpha, 'alpha')}")
    if rep.scheme == "proposed":
        lines += [
            f"Fprime={_text(rep.Fprime, 'Fprime')} Mprime={_text(rep.Mprime, 'Mprime')} "
            f"Rprime={_text(rep.Rprime, 'Rprime')}",
            f"scenario={rep.scenario} Phi={_text(rep.Phi, 'Phi')} "
            f"gamma={_text(rep.gamma, 'gamma')}"
            + (" pool_empty" if rep.pool_empty else ""),
        ]
    print("\n".join(lines))
    return 0


def _report_row(rep: RateReport, L, Mhat) -> dict[str, str]:
    return {
        "N": str(rep.N), "K": str(rep.K), "L": _text(L, "L"), "Mhat": _text(Mhat, "Mhat"),
        "M": _text(rep.M, "M"), "scheme": rep.scheme,
        "rate_rational": _text(rep.rate, "rate"), "rate_decimal": _dec(rep.rate),
        "scenario": _text(rep.scenario, "scenario"), "t_int": _text(rep.t_int, "t_int"),
        "alpha": _text(rep.alpha, "alpha"), "Fprime": _text(rep.Fprime, "Fprime"),
        "Mprime": _text(rep.Mprime, "Mprime"), "Rprime": _text(rep.Rprime, "Rprime"),
        "Phi": _text(rep.Phi, "Phi"), "gamma": _text(rep.gamma, "gamma"),
    }


def _eval_sweep_task(task) -> dict[str, str]:
    scheme, N, K, L, Mhat, M = task
    return _report_row(SchemeInstance(scheme, N, K, M, L, Mhat).report, L, Mhat)


def cmd_sweep(opts: Options) -> int:
    N = opts.require("N", cast=int)
    K = opts.require("K", cast=int)
    L = opts.require("L", cast=int)
    axis = opts.get("sweep_axis", "M")
    start = opts.require("from_", cast=_rat)
    stop = opts.require("to", cast=_rat)
    step = opts.require("step", cast=_rat)
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if start < 0 or stop > N:
        raise ValueError(f"sweep range [{start}, {stop}] must lie within [0, {N}]")
    schemes = [s.strip() for s in str(opts.get("scheme", "proposed")).split(",")]
    for s in schemes:
        if s not in SCHEMES:
            raise ValueError(f"unknown scheme {s!r}; expected one of {SCHEMES}")
    mhat_factor = opts.get("mhat_factor", cast=_rat)
    fixed_M = opts.get("M", cast=_rat)
    fixed_Mhat = opts.get("Mhat", cast=_rat)
    fmt = opts.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}; expected csv or json")
    jobs = opts.get("jobs", 1, int)
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")

    count = max(0, math.floor((stop - start) / step) + 1)
    if size := excess("sweep grid", [count] * (2 if axis == "both" else 1),
                      MAX_ENUMERATION):
        raise ValueError(f"{size} points is too many (limit {MAX_ENUMERATION})")
    axis_values = [start + j * step for j in range(count)]
    if not axis_values:
        raise ValueError("empty sweep grid")

    points: list[tuple[Fraction, Fraction]] = []  # (Mhat, M)
    skipped = 0
    if axis == "M":
        for m in axis_values:
            mhat = mhat_factor * m if mhat_factor is not None else (
                fixed_Mhat if fixed_Mhat is not None else m
            )
            if mhat < m or mhat > N:
                skipped += 1
                continue
            points.append((mhat, m))
    elif axis == "Mhat":
        if fixed_M is None:
            raise ValueError("sweeping Mhat needs a fixed --M")
        points = [(mh, fixed_M) for mh in axis_values if mh >= fixed_M]
        skipped = len(axis_values) - len(points)
    elif axis == "both":
        points = [(mh, m) for m in axis_values for mh in axis_values if mh >= m]
    else:
        raise ValueError(f"unknown sweep axis {axis!r}")
    if skipped:
        print(f"note: skipped {skipped} grid points violating M <= Mhat <= N",
              file=sys.stderr)
    if not points:
        raise ValueError("empty sweep grid")

    tasks = [
        (scheme, N, K, L, mhat, m)
        for (mhat, m) in points
        for scheme in schemes
    ]
    # the pool starts all its workers at once: never more than there is work or CPUs
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_eval_sweep_task, tasks))
    else:
        rows = [_eval_sweep_task(t) for t in tasks]

    columns = list(CSV_COLUMNS)
    external_path = opts.get("external_rates")
    if external_path:
        table = import_external_rates(external_path)
        columns += ["external", "ratio_external"]
        matched = set()
        worst_ratio = None
        for task, row in zip(tasks, rows):
            scheme, n, k, l, mhat, m = task
            key = (n, k, l, mhat, m)
            row["external"] = row["ratio_external"] = ""
            if key in table:
                matched.add(key)
                ext = table[key]
                row["external"] = _text(ext, "external rate")
                if ext > 0:
                    ratio = parse_rational(row["rate_rational"]) / ext
                    row["ratio_external"] = _dec(ratio)
                    if scheme == "proposed" and (worst_ratio is None or ratio > worst_ratio):
                        worst_ratio = ratio
        for key in table:
            if key not in matched:
                print(f"warning: external rate at {key} matches no grid point; "
                      "row skipped", file=sys.stderr)
        if worst_ratio is not None:
            print(f"max proposed/external ratio: {_dec(worst_ratio)}", file=sys.stderr)

    if fmt == "csv":
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        sys.stdout.write(out.getvalue())
    else:
        ordered = [{c: row.get(c, "") for c in columns} for row in rows]
        print(json.dumps(ordered, indent=2))
    return 0


def cmd_verify(opts: Options) -> int:
    from .simulator import report_lines, verify_demands  # numpy loads here, for bits

    N = opts.require("N", cast=int)
    K = opts.require("K", cast=int)
    M = opts.require("M", cast=_rat)
    scheme = opts.get("scheme", "proposed")
    if scheme not in ("equal", "proposed"):
        raise ValueError("verification supports the equal and proposed schemes")
    L = opts.get("L", cast=int)
    Mhat = opts.get("Mhat", cast=_rat)
    seed = opts.get("seed", 0, int)
    mode = "exhaustive" if opts.get("exhaustive") else "distinct"
    flip = (0, 0) if opts.get("inject_fault") else None

    inst = SchemeInstance(scheme=scheme, N=N, K=K, M=M, L=L, Mhat=Mhat)
    verdict = verify_demands(inst, mode=mode, seed=seed, flip_bit=flip)
    report_path = opts.get("report")
    if report_path:
        with open(report_path, "w") as fh:
            fh.write("\n".join(report_lines(verdict)) + "\n")
    total = len(verdict)
    if not verdict.passed:  # one verdict: every demand fails alike
        print(f"0/{total} demands pass; first failure:")
        print(verdict[0].line())
        return 2
    rate = verdict.report.measured_load
    print(f"{total}/{total} demands pass, load {format_rational(rate)} "
          f"({_dec(rate)}) = formula rate {format_rational(inst.formula_rate)}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(Options(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
