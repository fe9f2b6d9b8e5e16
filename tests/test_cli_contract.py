"""The command-line contract, over a grammar of flags, values and config files.

Whatever the arguments, ``cli.main`` ends with exit code 0, 1 or 2 and lets
no exception escape; exit 1 (invalid input) prints nothing to stdout and one
``error:`` message, after the usage text for a parse error, to stderr.  A
stdout closed before the output is written ends every command alike: exit
141 and nothing on stderr.

The grammar keeps every accepted input small (N and K of at most 6, grids
of a few dozen points) so the derandomized run stays short, and it never
asks for worker processes: ``--jobs`` takes no value above 1, and config
files leave the ``jobs`` key out.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecast import cli

PROFILE = settings(derandomize=True, max_examples=200, deadline=None, database=None)

# (accepted, refused) values: an invocation mostly draws accepted ones
INTS = (["1", "2", "3", "4", "6"], ["0", "-1", "", "x", "2.5", "1" * 20])
RATS = (["0", "1", "1/2", "1/3", "7/4", "3", "6"],
        ["-1", "1/0", "nan", "inf", "1e400", "1e-400", "1e4299", "", "x", "2.5"])
COMMON = {
    "--N": INTS, "--K": INTS, "--L": INTS, "--M": RATS, "--Mhat": RATS,
    "--scheme": (["equal", "proposed", "scheme1", "equal,proposed,scheme1"],
                 ["bogus", "", "equal,"]),
}
FLAGS = {
    "rate": COMMON,
    "sweep": {**COMMON, "--from": RATS, "--to": RATS, "--step": RATS,
              "--Mhat-factor": RATS, "--sweep-axis": (["M", "Mhat", "both"], ["z"]),
              "--format": (["csv", "json"], ["xml"]), "--jobs": (["1"], ["0", "-1", "x"])},
    "verify": {**COMMON, "--seed": INTS, "--exhaustive": None, "--inject-fault": None},
}
# every flag's config key but jobs, plus names no flag has
CONFIG_KEYS = ["N", "K", "L", "M", "Mhat", "scheme", "seed", "sweep_axis", "from",
               "to", "step", "mhat_factor", "format", "exhaustive", "inject_fault",
               "from_", "bogus"]
EXTERNAL_ROWS = ["4,4,3,2,1,1", "4,4,2,2,1,0", "4,4,3,2,1,1e-400", "4,4,3", "x,4,3,2,1,1",
                 "# comment", ""]
POINT = ["--N", "4", "--K", "4", "--L", "3", "--M", "1", "--Mhat", "2"]
# a sweep's start is the same point without --M, which its default axis M
# does not read, and a grid
SWEEP = ["--N", "4", "--K", "4", "--L", "3", "--Mhat", "2",
         "--from", "0", "--to", "4", "--step", "1/2"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.sampled_from(sum(RATS, [])),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.sampled_from(CONFIG_KEYS), inner, max_size=2),
    max_leaves=4,
)
config_texts = st.one_of(
    st.dictionaries(st.sampled_from(CONFIG_KEYS), json_values, max_size=6).map(json.dumps),
    json_values.map(json.dumps),
    st.sampled_from(["{", "", "not json"]),
)


@st.composite
def invocations(draw):
    """(argv, files): files maps a placeholder in argv to the text it holds,
    or to None for a file that does not exist."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    if draw(st.integers(0, 7)):  # mostly start from a point the commands accept
        argv += SWEEP if command == "sweep" else POINT
    files = {}
    flags = FLAGS[command]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["flag"] * 8 + ["config", "file", "odd"]))
        if kind == "flag":
            flag = draw(st.sampled_from(sorted(flags)))
            argv.append(flag)
            if flags[flag] is not None:
                accepted, refused = flags[flag]
                argv.append(draw(st.sampled_from(refused if draw(st.integers(0, 3)) == 0
                                                 else accepted)))
        elif kind == "config":
            argv += ["--config", "@config"]
            files["@config"] = draw(config_texts | st.none())
        elif kind == "file" and command == "sweep":
            argv += ["--external-rates", "@external"]
            rows = draw(st.lists(st.sampled_from(EXTERNAL_ROWS), max_size=3))
            files["@external"] = draw(st.just("\n".join(rows)) | st.none())
        elif kind == "file" and command == "verify":
            argv += ["--report", draw(st.sampled_from(["@report", "@dir"]))]
        else:  # what no command takes, or another command's flag
            argv += draw(st.sampled_from([["--bogus"], ["--help"], ["--exhaustive"],
                                          ["--step", "1"], ["extra"]]))
    return argv, files


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own exit, after --help or a usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@PROFILE
@given(invocations())
def test_every_invocation_keeps_the_exit_contract(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"@report": str(Path(tmp, "report.txt")), "@dir": tmp}
        for name, text in files.items():
            paths[name] = str(Path(tmp, name[1:]))
            if text is not None:  # None: the file does not exist
                Path(paths[name]).write_text(text)
        code, out, err = run_main([paths.get(a, a) for a in argv])
    assert code in (0, 1, 2), (argv, code, err)
    if code == 1:
        assert out == "", (argv, out)
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)


@pytest.mark.parametrize("argv", [
    ["rate", "--N", "10", "--K", "4", "--L", "2", "--Mhat", "33/4", "--M", "11/4"],
    ["sweep", "--N", "10", "--K", "4", "--L", "2", "--sweep-axis", "M", "--from", "0",
     "--to", "10", "--step", "1/2000", "--scheme", "equal"],
], ids=["rate", "sweep"])
def test_a_closed_stdout_ends_quietly(argv):
    # the pipe's reader has left before the command writes, as under
    # `| head` once head has its line: every write to stdout fails
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "cachecast.cli", *argv], env=env,
                              stdout=write, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_STDOUT_CLOSED, b"")


def test_a_config_file_may_hold_another_command_s_keys(tmp_path):
    # one config file serves every subcommand: rate takes a file whose keys
    # are verify's and sweep's flags, and prints what it prints without it
    argv = ["rate", "--N", "10", "--K", "4", "--L", "2", "--Mhat", "33/4", "--M", "11/4"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "sweep_axis": "Mhat"}))
    plain = run_main(argv)
    assert plain[0] == 0
    assert run_main(argv + ["--config", str(config)]) == plain
