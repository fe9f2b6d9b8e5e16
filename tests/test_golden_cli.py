"""Golden CLI output: every byte each command prints or writes is frozen.

Each run calls ``cli.main`` in-process and hashes, with SHA-256, its exit
code, its stdout, its stderr and the ``--report`` file it writes, if any.
The runs cover ``rate`` for every scheme, a CSV and a JSON sweep of the
Fig-5 family, and ``verify`` (distinct, exhaustive, with an injected fault,
and of the equal scheme).  A refactor of the rate layer, the construction or
the simulator that changes any output byte changes a digest.
"""

import contextlib
import hashlib
import io

import pytest

from cachecast.cli import main

POINT = ["--N", "10", "--K", "4", "--L", "2", "--Mhat", "33/4", "--M", "11/4"]
SMALL = ["--N", "4", "--K", "4", "--L", "3", "--Mhat", "7/2", "--M", "1"]
FIG5 = ["sweep", "--N", "10", "--K", "4", "--L", "2", "--Mhat-factor", "3",
        "--from", "0", "--to", "10/3", "--step", "1/3"]

# run name -> (argv, whether it writes a report, digest)
GOLDEN = {
    "rate-proposed": (["rate", *POINT, "--scheme", "proposed"], False,
                      "3ec5e52a4259e8aabf39e2fb70beb0e5d918f73854c71da02f35c5baf4ff5ca4"),
    "rate-equal": (["rate", *POINT, "--scheme", "equal"], False,
                   "34cc29a1c6c4c64c3ea84bdae49f4e5b968bb6a5bbb9474b11e07a7251a20973"),
    "rate-scheme1": (["rate", *POINT, "--scheme", "scheme1"], False,
                     "b8897bb446004016df8d9f456cc57f0b255d803588555c01b77f4990136d9bcc"),
    "sweep-csv": ([*FIG5, "--scheme", "proposed,equal,scheme1"], False,
                  "c2747eda880a0694c810a3c7c21061b478252a7ce0fd3c9e7fd98425969a5dcf"),
    "sweep-json": ([*FIG5, "--scheme", "proposed,scheme1", "--format", "json"], False,
                   "8a3a50200da210032ccad2ea54a474c7d36eb86e2d9e1027e54d17aba75d1bdc"),
    "verify-distinct": (["verify", *POINT], True,
                        "63e4725d8aa9a8256ce871166be563325a14da200ec79c2dc7846384db9c8e12"),
    "verify-exhaustive": (["verify", *SMALL, "--exhaustive"], True,
                          "54dc7652d67f1203020905a7b30ded29aca90e904af04f86d47e8227431a0835"),
    "fault-distinct": (["verify", *POINT, "--inject-fault"], True,
                       "4414c078eb01f53a76424751c072bcd574e29066095cfcc29ffef314019e3660"),
    "fault-exhaustive": (["verify", *SMALL, "--exhaustive", "--inject-fault"], True,
                         "750f239e2ab7b049f7dfe7e728be85c2728506e7f164376579e5adc618cb05e3"),
    "verify-equal": (["verify", "--N", "5", "--K", "3", "--M", "7/4", "--scheme", "equal"],
                     False, "b668ea909d15fc296564fb606749408d9cc8d68d9f3383e64a30629364688406"),
}


def run_digest(argv, report, tmp_path) -> str:
    path = tmp_path / "report.txt"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + (["--report", str(path)] if report else []))
    digest = hashlib.sha256()
    for field in (str(code), out.getvalue(), err.getvalue(),
                  path.read_text() if report else ""):
        digest.update(f"{len(field)}:{field}".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_cli_output(name, tmp_path):
    argv, report, golden = GOLDEN[name]
    assert run_digest(argv, report, tmp_path) == golden
