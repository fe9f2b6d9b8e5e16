"""Command-line front end: rate queries, trade-off sweeps, verification runs.

Exit codes: 0 success, 1 invalid input, 2 verification failure, and 141
when stdout is closed before the output is written (as under ``| head``):
128 + SIGPIPE, what a shell reports for a command that SIGPIPE ended.
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
from fractions import Fraction

from .baselines import import_external_rates
# bound here for perfbench's TRACER_PROBE, which asserts the binding is traced
from .baselines import scheme1_optimize  # noqa: F401
from .core import MAX_ENUMERATION, excess, format_rational, parse_rational
from .unequal import SCHEMES, RateReport, SchemeInstance

EXIT_STDOUT_CLOSED = 141

# What a config value must be, by its flag's type; null always means unset.
KIND_NAMES = {int: "an integer", bool: "true or false", str: "a string or a number"}

CSV_COLUMNS = [
    "N", "K", "L", "Mhat", "M", "scheme", "rate_rational", "rate_decimal",
    "scenario", "t_int", "alpha", "Fprime", "Mprime", "Rprime", "Phi", "gamma",
]


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


# A rate report's printed fields, the rate first: it is the one refused if unprintable
REPORT_FIELDS = ("rate", "scheme", "N", "K", "L", "Mhat", "M", "t", "t_int", "alpha",
                 "Fprime", "Mprime", "Rprime", "scenario", "Phi", "gamma")


def _texts(rep: RateReport, **given) -> dict[str, str]:
    """Each report field as printed, ``given`` ones replaced, and the CSV's rate columns."""
    values = rep._asdict() | given
    text = {name: _text(values[name], name) for name in REPORT_FIELDS}
    text["rate_rational"], text["rate_decimal"] = text["rate"], _dec(rep.rate)
    return text


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
        p.add_argument("--config", help="JSON file with default flag values; one "
                       "file serves every subcommand, so it may hold keys for "
                       "another subcommand's flags")

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
    p_verify.add_argument("--seed", type=int, help="RNG seed for file contents")
    p_verify.add_argument("--exhaustive", action="store_true", default=None,
                          help="enumerate all N^K demands (default: distinct)")
    p_verify.add_argument("--inject-fault", dest="inject_fault", action="store_true",
                          default=None, help="flip one transmitted bit")
    p_verify.add_argument("--report", help="write per-demand records to this file")
    p_verify.set_defaults(func=cmd_verify)
    # one config file serves every subcommand: its keys are their flags'
    # destinations, --config's aside (a config file names no other one), and
    # each value has its flag's JSON type (a switch's is bool)
    parser.config_types = {
        action.dest.rstrip("_"): bool if action.nargs == 0 else action.type or str
        for p in sub.choices.values() for action in p._actions
        if action.option_strings and action.dest not in ("help", "config")
    }
    return parser


class Options:
    """Flag values merged over config-file values, in one dict by config key;
    a key in neither reads as its default."""

    def __init__(self, args: argparse.Namespace):
        config = {}
        if args.config:
            with open(args.config) as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError(f"config file {args.config} must hold a JSON object")
        types = build_parser().config_types
        values = {}
        for key, value in config.items():
            kind = types.get(key)
            if kind is None:
                raise ValueError(f"config key {key!r} names no flag a config file sets")
            if kind is str and type(value) in (int, float):
                value = str(value)  # a number is read as its text
            elif value is None:
                continue  # null leaves the key unset
            elif type(value) is not kind:
                raise ValueError(f"config value {key!r} must be {KIND_NAMES[kind]}, "
                                 f"got {json.dumps(value)}")
            values[key] = value
        # the command line's values, by config key (--from's is "from")
        self.flags = {dest.rstrip("_"): value for dest, value in vars(args).items()
                      if value is not None}
        self._values = values | self.flags

    def get(self, name: str, default=None, cast=None):
        value = self._values.get(name, default)
        return cast(value) if cast and value is not None else value

    def require(self, name: str, cast=None):
        if name not in self._values:
            raise ValueError(f"missing required parameter --{name}")
        return self.get(name, cast=cast)


def cmd_rate(opts: Options) -> int:
    N = opts.require("N")
    K = opts.require("K")
    M = opts.require("M", cast=parse_rational)
    scheme = opts.get("scheme", "proposed")
    L = opts.get("L")
    Mhat = opts.get("Mhat", cast=parse_rational)
    rep = SchemeInstance(scheme, N, K, M, L, Mhat).report
    text = _texts(rep)  # every field is formatted before any line is written
    lines = ["rate {rate} ({rate_decimal})",
             "scheme={scheme} N={N} K={K} L={L} Mhat={Mhat} M={M}"]
    if rep.t is not None:
        lines.append("t={t} t_int={t_int} alpha={alpha}")
    if rep.scheme == "proposed":
        lines += ["Fprime={Fprime} Mprime={Mprime} Rprime={Rprime}",
                  "scenario={scenario} Phi={Phi} gamma={gamma}"]
    print("\n".join(lines).format_map(text) + (" pool_empty" if rep.pool_empty else ""))
    return 0


def _eval_sweep_task(task) -> RateReport:
    scheme, N, K, L, Mhat, M = task
    return SchemeInstance(scheme, N, K, M, L, Mhat).report


def cmd_sweep(opts: Options) -> int:
    N = opts.require("N")
    K = opts.require("K")
    L = opts.require("L")
    axis = opts.get("sweep_axis", "M")
    if axis not in ("M", "Mhat", "both"):
        raise ValueError(f"unknown sweep axis {axis!r}")
    start = opts.require("from", cast=parse_rational)
    stop = opts.require("to", cast=parse_rational)
    step = opts.require("step", cast=parse_rational)
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if start < 0 or stop > N:
        raise ValueError(f"sweep range [{start}, {stop}] must lie within [0, {N}]")
    schemes = [s.strip() for s in opts.get("scheme", "proposed").split(",")]
    for s in schemes:
        if s not in SCHEMES:
            raise ValueError(f"unknown scheme {s!r}; expected one of {SCHEMES}")
    # each axis reads only the flags that set its other cache size: on axis M,
    # Mhat is --Mhat-factor times M, else a fixed --Mhat, else M itself
    factor = fixed = read = None
    if axis == "M":
        factor = opts.get("mhat_factor", cast=parse_rational)
        read = "Mhat" if factor is None else "mhat_factor"
        if factor is None:
            fixed = opts.get("Mhat", cast=parse_rational)
    elif axis == "Mhat":
        read, fixed = "M", opts.get("M", cast=parse_rational)
        if fixed is None:
            raise ValueError("sweeping Mhat needs a fixed --M")
    fmt = opts.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}; expected csv or json")
    jobs = opts.get("jobs", 1)
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")

    count = max(0, math.floor((stop - start) / step) + 1)
    if size := excess("sweep grid", [count] * (2 if axis == "both" else 1),
                      MAX_ENUMERATION):
        raise ValueError(f"{size} points is too many (limit {MAX_ENUMERATION})")
    for key, flag in (("M", "--M"), ("Mhat", "--Mhat"), ("mhat_factor", "--Mhat-factor")):
        if key in opts.flags and key != read:
            raise ValueError(f"{flag} is not read when sweeping {axis}")

    values = [start + j * step for j in range(count)]
    if axis == "M":
        candidates = [(factor * m if factor is not None else
                       fixed if fixed is not None else m, m) for m in values]
    elif axis == "Mhat":
        candidates = [(mhat, fixed) for mhat in values]
    else:
        candidates = [(mhat, m) for m in values for mhat in values]
    points = [(mhat, m) for mhat, m in candidates if m <= mhat <= N]
    if skipped := len(candidates) - len(points):
        print(f"note: skipped {skipped} grid points violating M <= Mhat <= N",
              file=sys.stderr)
    if not points:
        raise ValueError("empty sweep grid")

    tasks = [(scheme, N, K, L, mhat, m) for mhat, m in points for scheme in schemes]
    # the pool starts all its workers at once: never more than there is work or CPUs
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        # a few chunks per worker: one round trip per task costs more than the task
        chunksize = math.ceil(len(tasks) / (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_eval_sweep_task, tasks, chunksize=chunksize))
    else:
        reports = [_eval_sweep_task(t) for t in tasks]
    # a row shows its grid point's L and Mhat, which the equal scheme's report omits
    texts = [_texts(rep, L=task[3], Mhat=task[4]) for rep, task in zip(reports, tasks)]
    rows = [[text[c] for c in CSV_COLUMNS] for text in texts]

    columns = list(CSV_COLUMNS)
    external_path = opts.get("external_rates")
    if external_path:
        table = import_external_rates(external_path)
        columns += ["external", "ratio_external"]
        externals = [table.get(task[1:]) for task in tasks]
        ratios = [rep.rate / ext if ext is not None and ext > 0 else None
                  for rep, ext in zip(reports, externals)]
        for row, ext, ratio in zip(rows, externals, ratios):
            row += [_text(ext, "external rate"), "" if ratio is None else _dec(ratio)]
        grid = {task[1:] for task in tasks}
        for key in table:
            if key not in grid:
                print(f"warning: external rate at {key} matches no grid point; "
                      "row skipped", file=sys.stderr)
        worst = max((ratio for task, ratio in zip(tasks, ratios)
                     if task[0] == "proposed" and ratio is not None), default=None)
        if worst is not None:
            print(f"max proposed/external ratio: {_dec(worst)}", file=sys.stderr)

    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        sys.stdout.write(out.getvalue())
    else:
        print(json.dumps([dict(zip(columns, row)) for row in rows], indent=2))
    return 0


def cmd_verify(opts: Options) -> int:
    from .simulator import report_lines, verify_demands  # bits load for verify alone

    N = opts.require("N")
    K = opts.require("K")
    M = opts.require("M", cast=parse_rational)
    scheme = opts.get("scheme", "proposed")
    if scheme not in ("equal", "proposed"):
        raise ValueError("verification supports the equal and proposed schemes")
    L = opts.get("L")
    Mhat = opts.get("Mhat", cast=parse_rational)
    seed = opts.get("seed", 0)
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")
    mode = "exhaustive" if opts.get("exhaustive") else "distinct"
    flip = (0, 0) if opts.get("inject_fault") else None

    inst = SchemeInstance(scheme=scheme, N=N, K=K, M=M, L=L, Mhat=Mhat)
    verdict = verify_demands(inst, mode=mode, seed=seed, flip_bit=flip)
    report_path = opts.get("report")
    if report_path:
        with open(report_path, "w") as fh:
            fh.write("\n".join(report_lines(verdict)) + "\n")
    total = verdict.demands.count
    if not verdict.passed:  # one verdict: every demand fails alike
        print(f"0/{total} demands pass; first failure:")
        print(next(iter(verdict)).line())
        return 2
    rate = verdict.report.measured_load
    print(f"{total}/{total} demands pass, load {format_rational(rate)} "
          f"({_dec(rate)}) = formula rate {format_rational(inst.formula_rate)}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(Options(args))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left: no message, and stdout points at devnull so that
        # the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_STDOUT_CLOSED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
