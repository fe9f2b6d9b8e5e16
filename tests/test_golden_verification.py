"""Golden verification: per-demand decode outcomes are frozen byte for byte.

Every report of ``verify_demands`` at (N,K,L,Mhat,M) = (10,4,2,33/4,11/4) is
serialised as (demand, per-user outcome, measured load bits), in enumeration
order, once on a clean log and once with the first transmitted bit flipped,
and hashed.  The ``--report`` file of an exhaustive ``verify`` run on the
worked example is hashed as written.  Any change to which users decode, to
the enumeration order, or to the measured load changes a digest.
"""

import hashlib
from fractions import Fraction

from cachecast.cli import main
from cachecast.simulator import SchemeInstance, verify_demands

POINT = SchemeInstance("proposed", 10, 4, Fraction(11, 4), L=2, Mhat=Fraction(33, 4))

GOLDEN_REPORTS = {
    None: (5040, "aaeb8a54946ebc531a8d3326e94a77a1b5e453b09ebadcfa9088c31721d65476"),
    (0, 0): (5040, "21f5ea9a5453c1e0d06cbb018d6f139add82b4373ddd534f1778b9284d68ed12"),
}
GOLDEN_REPORT_FILE = (256, "cac483b70d0a2b99e344f5d21f3b81239ff85af57eea9086b8fca9313852ed04")


def reports_digest(flip_bit) -> tuple[int, str]:
    digest = hashlib.sha256()
    reports = verify_demands(POINT, mode="distinct", flip_bit=flip_bit)
    for r in reports:
        digest.update(f"{r.demand}|{r.user_ok}|{r.measured_load_bits}\n".encode())
    return len(reports), digest.hexdigest()


def test_golden_reports_clean_log():
    assert reports_digest(None) == GOLDEN_REPORTS[None]


def test_golden_reports_flipped_bit():
    assert reports_digest((0, 0)) == GOLDEN_REPORTS[(0, 0)]


def test_golden_report_file(tmp_path):
    path = tmp_path / "report.txt"
    code = main(["verify", "--N", "4", "--K", "4", "--L", "3", "--Mhat", "2",
                 "--M", "1", "--exhaustive", "--report", str(path)])
    text = path.read_text()
    assert code == 0
    assert (len(text.splitlines()), hashlib.sha256(text.encode()).hexdigest()) \
        == GOLDEN_REPORT_FILE
