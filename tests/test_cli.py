import argparse
import csv
import io
import json

import pytest

from cachecast import cli
from cachecast.cli import main


# at M = 10^-4299 (N=4, K=4, L=3, Mhat=2) Rprime is too long to print
UNPRINTABLE_RPRIME = "error: Rprime has a numerator >= 10^4300, too many digits to print\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRate:
    def test_proposed_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "rate", "--N", "4", "--K", "4", "--L", "3",
            "--Mhat", "2", "--M", "1", "--scheme", "proposed",
        )
        assert code == 0
        assert out.splitlines()[0] == "rate 1 (1)"
        assert "Fprime=3/4" in out and "Mprime=8/3" in out and "scenario=1" in out

    def test_equal_zero_cache(self, capsys):
        code, out, _ = run(
            capsys, "rate", "--N", "4", "--K", "4", "--M", "0", "--scheme", "equal"
        )
        assert code == 0
        assert out.splitlines()[0] == "rate 4 (4)"

    def test_scheme1_on_worked_point(self, capsys):
        code, out, _ = run(
            capsys, "rate", "--N", "4", "--K", "4", "--L", "3",
            "--Mhat", "2", "--M", "1", "--scheme", "scheme1",
        )
        assert code == 0
        assert out.splitlines()[0] == "rate 9/8 (1.125)"

    def test_scheme1_at_eight_users(self, capsys):
        code, out, _ = run(
            capsys, "rate", "--N", "8", "--K", "8", "--L", "3",
            "--Mhat", "7/2", "--M", "1", "--scheme", "scheme1",
        )
        assert code == 0
        assert out.splitlines()[0] == "rate 7/2 (3.5)"

    @pytest.mark.parametrize("L", ["0", "4", "5"])
    def test_scheme1_checks_L(self, capsys, L):
        # the proposed scheme's check: no blank L= line for 0, and L named
        code, out, err = run(
            capsys, "rate", "--N", "10", "--K", "4", "--L", L,
            "--Mhat", "3", "--M", "1", "--scheme", "scheme1",
        )
        assert (code, out) == (1, "")
        assert err == f"error: need 1 <= L < K, got L={L}, K=4\n"

    def test_invalid_params_exit_one(self, capsys):
        code, _, err = run(
            capsys, "rate", "--N", "4", "--K", "4", "--M", "9", "--scheme", "equal"
        )
        assert code == 1
        assert "error" in err

    def test_missing_params_exit_one(self, capsys):
        code, _, err = run(capsys, "rate", "--N", "4", "--K", "4", "--scheme", "equal")
        assert code == 1
        assert "--M" in err

    def test_refuses_oversized_exponent(self, capsys):
        # 10^5000 has more digits than Python turns into text: refused by
        # its exponent before any power of ten is computed
        code, out, err = run(
            capsys, "rate", "--N", "4", "--K", "4", "--M", "1e-5000", "--scheme", "equal"
        )
        assert code == 1
        assert out == ""
        assert "exponent -5000" in err
        assert "integer string conversion" not in err

    def test_decimal_below_float_range(self, capsys):
        # M = 4 - 10^-400: the rate 10^-400/4 underflows a float to 0
        code, out, _ = run(
            capsys, "rate", "--N", "4", "--K", "4", "--M", "3." + "9" * 400,
            "--scheme", "equal",
        )
        assert code == 0
        assert out.splitlines()[0] == f"rate 1/4{'0' * 400} (2.5e-401)"

    def test_failure_writes_nothing(self, capsys):
        # Rprime's numerator has more digits than Python turns into text; the
        # refusal states its bound, and the lines before it must not reach
        # stdout either
        code, out, err = run(
            capsys, "rate", "--N", "4", "--K", "4", "--L", "3",
            "--Mhat", "2", "--M", "1e-4299",
        )
        assert code == 1
        assert out == ""
        assert err == UNPRINTABLE_RPRIME

    def test_parser_is_built_once(self, capsys, monkeypatch):
        argv = ("rate", "--N", "4", "--K", "4", "--M", "1", "--scheme", "equal")
        assert run(capsys, *argv)[0] == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("rate 3/2 (1.5)\n")
        assert built == []


class TestSweep:
    def test_single_point_single_row(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--N", "4", "--K", "4", "--L", "3", "--Mhat", "2",
            "--sweep-axis", "M", "--from", "1", "--to", "1", "--step", "1",
            "--scheme", "proposed",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["rate_rational"] == "1"
        assert rows[0]["scenario"] == "1"

    def test_csv_header_contract(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--N", "4", "--K", "4", "--L", "2", "--Mhat", "1",
            "--sweep-axis", "M", "--from", "0", "--to", "1", "--step", "1/2",
            "--scheme", "equal",
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == (
            "N,K,L,Mhat,M,scheme,rate_rational,rate_decimal,scenario,"
            "t_int,alpha,Fprime,Mprime,Rprime,Phi,gamma"
        )

    def test_decimal_matches_rational_to_12_digits(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--N", "10", "--K", "4", "--L", "2",
            "--Mhat-factor", "3", "--sweep-axis", "M",
            "--from", "0", "--to", "10/3", "--step", "1/3",
            "--scheme", "proposed,equal",
        )
        assert code == 0
        from cachecast.core import parse_rational

        for row in csv.DictReader(io.StringIO(out)):
            exact = float(parse_rational(row["rate_rational"]))
            assert f"{exact:.12g}" == row["rate_decimal"]

    def test_bit_identical_across_runs(self, capsys):
        argv = [
            "sweep", "--N", "6", "--K", "4", "--L", "2", "--Mhat", "3",
            "--sweep-axis", "M", "--from", "0", "--to", "3", "--step", "3/4",
            "--scheme", "proposed,equal",
        ]
        _, out_a, _ = run(capsys, *argv)
        _, out_b, _ = run(capsys, *argv)
        assert out_a == out_b

    def test_proposed_dominates_scheme1_on_sweep(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--N", "10", "--K", "4", "--L", "2",
            "--Mhat-factor", "3", "--sweep-axis", "M",
            "--from", "1", "--to", "3", "--step", "1",
            "--scheme", "proposed,scheme1",
        )
        assert code == 0
        from cachecast.core import parse_rational

        rows = list(csv.DictReader(io.StringIO(out)))
        by_point = {}
        for row in rows:
            by_point.setdefault(row["M"], {})[row["scheme"]] = parse_rational(
                row["rate_rational"]
            )
        for rates in by_point.values():
            assert rates["proposed"] <= rates["scheme1"]

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--N", "4", "--K", "4", "--L", "3", "--Mhat", "2",
            "--sweep-axis", "M", "--from", "1", "--to", "1", "--step", "1",
            "--scheme", "proposed", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["rate_rational"] == "1"

    def test_external_rates_column(self, capsys, tmp_path):
        rates = tmp_path / "ext.txt"
        rates.write_text("4,4,3,2,1,1\n4,4,3,9,9,1  # no such grid point\n")
        code, out, err = run(
            capsys, "sweep", "--N", "4", "--K", "4", "--L", "3", "--Mhat", "2",
            "--sweep-axis", "M", "--from", "1", "--to", "1", "--step", "1",
            "--scheme", "proposed", "--external-rates", str(rates),
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["external"] == "1"
        assert rows[0]["ratio_external"] == "1"
        assert "max proposed/external ratio: 1" in err
        assert "matches no grid point" in err

    def test_external_rates_repeating_a_point_exit_1(self, capsys, tmp_path):
        rates = tmp_path / "ext.txt"
        rates.write_text("4,4,3,2,1,1\n4,4,3,2,1,2\n")
        code, out, err = run(
            capsys, "sweep", "--N", "4", "--K", "4", "--L", "3", "--Mhat", "2",
            "--sweep-axis", "M", "--from", "1", "--to", "1", "--step", "1",
            "--scheme", "proposed", "--external-rates", str(rates),
        )
        assert (code, out) == (1, "")
        assert err == f"error: {rates}:2: point 4,4,3,2,1 repeats line 1\n"

    def test_external_ratio_above_float_range(self, capsys, tmp_path):
        rates = tmp_path / "ext.txt"
        rates.write_text("4,4,3,2,1,1e-400\n")
        code, out, err = run(
            capsys, "sweep", "--N", "4", "--K", "4", "--L", "3", "--Mhat", "2",
            "--sweep-axis", "M", "--from", "1", "--to", "1", "--step", "1",
            "--scheme", "proposed", "--external-rates", str(rates),
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["ratio_external"] == "1e+400"
        assert err == "max proposed/external ratio: 1e+400\n"

    def test_unknown_format_refused_before_any_row(self, capsys, monkeypatch):
        def no_rows(*args, **kwargs):
            raise AssertionError("a row was computed before --format was checked")

        monkeypatch.setattr(cli, "SchemeInstance", no_rows)
        code, out, err = run(
            capsys, "sweep", "--N", "4", "--K", "4", "--L", "3", "--Mhat", "2",
            "--sweep-axis", "M", "--from", "0", "--to", "2", "--step", "1",
            "--format", "xml",
        )
        assert code == 1
        assert out == ""
        assert err == "error: unknown format 'xml'; expected csv or json\n"

    @pytest.mark.parametrize("axis_flags,message", [
        (("--sweep-axis", "bogus"), "unknown sweep axis 'bogus'"),
        (("--sweep-axis", "Mhat"), "sweeping Mhat needs a fixed --M"),
    ], ids=["unknown-axis", "Mhat-without-M"])
    def test_axis_refused_before_the_grid_is_counted(self, capsys, axis_flags, message):
        # a grid of 4,000,001 points is over the limit, but the axis is
        # checked first, whatever the step
        for step in ("1/1000000", "1"):
            code, out, err = run(
                capsys, "sweep", "--N", "4", "--K", "3", "--L", "1", *axis_flags,
                "--from", "0", "--to", "4", "--step", step,
            )
            assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_empty_grid_is_an_error(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--N", "4", "--K", "4", "--L", "2", "--M", "3",
            "--sweep-axis", "Mhat", "--from", "0", "--to", "1", "--step", "1/2",
        )
        assert code == 1
        assert "empty sweep grid" in err

    def test_refuses_oversized_grid(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--N", "10", "--K", "4", "--L", "2",
            "--Mhat-factor", "3", "--sweep-axis", "M",
            "--from", "0", "--to", "10/3", "--step", "1/1000000000",
        )
        assert code == 1
        assert "3333333334" in err

    def test_refuses_unprintable_grid(self, capsys):
        # (10^3000 + 1)^2 points: the refusal states a bound, not the count
        code, out, err = run(
            capsys, "sweep", "--N", "10", "--K", "4", "--L", "2", "--M", "1",
            "--from", "0", "--to", "1", "--step", "1e-3000", "--sweep-axis", "both",
        )
        assert code == 1
        assert out == ""
        assert "sweep grid >= 10^" in err and "(limit 1000000)" in err
        assert "integer string conversion" not in err

    UNREAD = ("sweep", "--N", "4", "--K", "4", "--L", "2", "--from", "1", "--to", "2",
              "--step", "1")

    @pytest.mark.parametrize("axis,flags,flag", [
        ("M", ("--M", "1"), "--M"),
        ("M", ("--Mhat-factor", "2", "--Mhat", "4"), "--Mhat"),
        ("Mhat", ("--M", "1", "--Mhat", "3"), "--Mhat"),
        ("Mhat", ("--M", "1", "--Mhat-factor", "3"), "--Mhat-factor"),
        ("both", ("--M", "1"), "--M"),
        ("both", ("--Mhat", "3"), "--Mhat"),
        ("both", ("--Mhat-factor", "3"), "--Mhat-factor"),
    ])
    def test_refuses_a_flag_its_axis_does_not_read(self, capsys, monkeypatch, axis,
                                                   flags, flag):
        # each flag was once dropped without a word, and the sweep exited 0
        def no_rows(*args, **kwargs):
            raise AssertionError("a row was computed before the flags were checked")

        monkeypatch.setattr(cli, "SchemeInstance", no_rows)
        code, out, err = run(capsys, *self.UNREAD, "--sweep-axis", axis, *flags)
        assert (code, out, err) == (1, "", f"error: {flag} is not read when sweeping {axis}\n")

    def test_a_config_may_set_what_the_axis_does_not_read(self, capsys, tmp_path):
        # one config file serves every axis: only the command line is refused
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": "1", "Mhat": "3", "mhat_factor": "2"}))
        argv = (*self.UNREAD, "--sweep-axis", "both")
        plain = run(capsys, *argv)
        assert plain[0] == 0
        assert run(capsys, *argv, "--config", str(cfg)) == plain

    def test_both_axes_note_the_points_they_skip(self, capsys):
        # M and Mhat over {0, 1}: the point M = 1 > Mhat = 0 is skipped
        code, out, err = run(
            capsys, "sweep", "--N", "4", "--K", "4", "--L", "2", "--sweep-axis", "both",
            "--from", "0", "--to", "1", "--step", "1", "--scheme", "equal",
        )
        assert code == 0
        assert [row[3:5] for row in csv.reader(io.StringIO(out))][1:] == [
            ["0", "0"], ["1", "0"], ["1", "1"]]
        assert err == "note: skipped 1 grid points violating M <= Mhat <= N\n"

    def test_refuses_unprintable_rate(self, capsys):
        # the M = 10^-4299 row has an Rprime too long to print: no row is written
        code, out, err = run(
            capsys, "sweep", "--N", "4", "--K", "4", "--L", "3", "--Mhat", "2",
            "--sweep-axis", "M", "--from", "1e-4299", "--to", "1", "--step", "1",
        )
        assert code == 1
        assert out == ""
        assert err == UNPRINTABLE_RPRIME

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", "--N", "4", "--K", "4", "--L", "2", "--Mhat", "2",
                "--from", "0", "--to", "1", "--step", "1", "--bogus", "16",
            ])
        assert exc.value.code == 1
        assert "--bogus" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        assert "--step" in capsys.readouterr().out

    # four tasks: M in {0, 1, 2, 3}, scheme proposed
    SMALL_SWEEP = (
        "sweep", "--N", "6", "--K", "4", "--L", "2", "--Mhat", "3",
        "--sweep-axis", "M", "--from", "0", "--to", "3", "--step", "1",
        "--scheme", "proposed",
    )

    def test_jobs_parallel_same_output(self, capsys):
        _, serial, _ = run(capsys, *self.SMALL_SWEEP)
        _, parallel, _ = run(capsys, *self.SMALL_SWEEP, "--jobs", "2")
        assert serial == parallel

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_one(self, capsys, jobs):
        code, out, err = run(capsys, *self.SMALL_SWEEP, "--jobs", jobs)
        assert code == 1 and out == ""
        assert f"error: --jobs must be at least 1, got {jobs}" in err

    @pytest.fixture
    def fake_pool(self, monkeypatch):
        """Record each pool's worker count and chunksize; start no process."""
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append({"workers": max_workers})

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                started[-1]["chunksize"] = chunksize
                return map(fn, tasks)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        return started

    @pytest.mark.parametrize("cpus,workers", [(64, 4), (3, 3), (1, None)])
    def test_jobs_bounded_by_tasks_and_cpus(self, capsys, monkeypatch, fake_pool,
                                            cpus, workers):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        _, serial, _ = run(capsys, *self.SMALL_SWEEP)
        code, out, _ = run(capsys, *self.SMALL_SWEEP, "--jobs", "100000")
        assert code == 0 and out == serial
        assert [p["workers"] for p in fake_pool] == ([] if workers is None else [workers])

    def test_jobs_chunk_many_tasks_per_worker(self, capsys, monkeypatch, fake_pool):
        # 25 M points: 12.5 tasks per worker go out in chunks of ceil(25/8) = 4
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        sweep = (*self.SMALL_SWEEP[:-4], "--step", "1/8", "--scheme", "proposed")
        _, serial, _ = run(capsys, *sweep)
        code, out, _ = run(capsys, *sweep, "--jobs", "2")
        assert code == 0 and out == serial and len(out.splitlines()) == 26
        assert fake_pool == [{"workers": 2, "chunksize": 4}]


class TestVerify:
    def test_equal_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--scheme", "equal", "--N", "4", "--K", "4", "--M", "1"
        )
        assert code == 0
        assert "24/24 demands pass" in out
        assert "load 3/2" in out

    def test_proposed_exhaustive(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--N", "4", "--K", "4", "--L", "3",
            "--Mhat", "2", "--M", "1", "--exhaustive",
        )
        assert code == 0
        assert "256/256 demands pass" in out

    def test_injected_fault_fails(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--N", "4", "--K", "4", "--L", "3",
            "--Mhat", "2", "--M", "1", "--inject-fault",
        )
        assert code == 2
        assert "first failure" in out

    def test_injected_fault_prints_first_failure(self, capsys):
        code, out, err = run(
            capsys, "verify", "--N", "4", "--K", "4", "--L", "3",
            "--Mhat", "7/2", "--M", "1", "--inject-fault",
        )
        assert (code, err) == (2, "")
        assert out == ("0/24 demands pass; first failure:\n"
                       "demand=1,2,3,4 status=FAIL,ok,ok,FAIL load=3/4\n")

    @pytest.mark.parametrize("point", [
        ("--L", "2", "--Mhat", "4", "--M", "4"),
        ("--scheme", "equal", "--M", "4"),
    ])
    def test_injected_fault_without_transmissions_exits_one(self, capsys, point):
        # full caches: the plan sends nothing, so there is no bit to corrupt
        code, _, err = run(capsys, "verify", "--N", "4", "--K", "4", *point,
                           "--inject-fault")
        assert code == 1
        assert err == "error: no transmitted bit to flip\n"

    def test_seed_is_verify_only_and_refuses_negatives(self, capsys):
        code, out, err = run(capsys, "verify", "--scheme", "equal", "--N", "4", "--K", "4",
                             "--M", "1", "--seed", "-1")
        assert (code, out, err) == (1, "", "error: --seed must be non-negative, got -1\n")
        # rate and sweep draw no file contents, so they take no seed
        with pytest.raises(SystemExit) as exc:
            main(["rate", "--N", "4", "--K", "4", "--M", "1", "--seed", "5"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (1, "")
        assert "unrecognized arguments: --seed 5" in err

    def test_report_file(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        code, _, _ = run(
            capsys, "verify", "--scheme", "equal", "--N", "4", "--K", "4",
            "--M", "1", "--report", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 24
        assert lines[0].startswith("demand=1,2,3,4 status=ok")

    def test_refuses_oversized_distinct_enumeration(self, capsys, monkeypatch):
        # 30!/20! distinct demands: refused with the count before any bits exist
        import cachecast.simulator

        def no_materialize(*args, **kwargs):
            raise AssertionError("materialize called before the demand count check")

        monkeypatch.setattr(cachecast.simulator, "materialize", no_materialize)
        code, _, err = run(
            capsys, "verify", "--N", "30", "--K", "10", "--L", "2",
            "--Mhat", "2", "--M", "1",
        )
        assert code == 1
        assert "109027350432000" in err

    @pytest.mark.parametrize("N,K,flags", [
        ("1", "1000000000", ["--exhaustive"]),
        ("3", "4", []),
        ("3", "0", ["--exhaustive"]),
    ])
    def test_refuses_K_outside_1_to_N(self, capsys, monkeypatch, N, K, flags):
        # refused before any demand iterator exists: 1^K passes the count
        # bound, and product(range(1, 2), repeat=10^9) would take K slots
        import cachecast.simulator

        def no_iterator(*args, **kwargs):
            raise AssertionError("demand iterator built before K was checked")

        monkeypatch.setattr(cachecast.simulator, "product", no_iterator)
        monkeypatch.setattr(cachecast.simulator, "permutations", no_iterator)
        code, out, err = run(
            capsys, "verify", "--N", N, "--K", K, "--L", "1",
            "--Mhat", "1", "--M", "1", *flags,
        )
        assert code == 1
        assert out == ""
        assert f"N={N}, K={K}" in err

    def test_refuses_unprintable_demand_count(self, capsys):
        # 2000! has more digits than Python turns into text: the refusal
        # names the quantity and its bound instead of the count
        code, out, err = run(
            capsys, "verify", "--N", "2000", "--K", "2000", "--L", "1",
            "--Mhat", "1", "--M", "1",
        )
        assert code == 1
        assert out == ""
        assert "N!/(N-K)! >= 10^" in err and "(limit 1000000)" in err
        assert "integer string conversion" not in err

    def test_refuses_oversized_materialization(self, capsys, monkeypatch):
        # (5 + 12) * F_bits bytes counted: refused before any file bit is drawn
        import cachecast.simulator

        def no_rng(*args, **kwargs):
            raise AssertionError("file contents drawn before the size check")

        monkeypatch.setattr(cachecast.simulator, "Random", no_rng)
        code, _, err = run(
            capsys, "verify", "--N", "12", "--K", "5", "--L", "3",
            "--Mhat", "99991/10007", "--M", "1/9973",
        )
        assert code == 1
        assert "F_bits = 3592793196" in err and "61077484332 bytes" in err

    def test_refuses_unprintable_materialization(self, capsys):
        # 8 * F_bits bytes has more digits than Python turns into text
        code, out, err = run(
            capsys, "verify", "--N", "4", "--K", "4", "--M", "1e-4299", "--scheme", "equal",
        )
        assert code == 1
        assert out == ""
        assert "needs >= 10^" in err and "(limit 1073741824)" in err
        assert "integer string conversion" not in err


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": 4, "K": 4, "M": "1", "scheme": "equal"}))
        code, out, _ = run(capsys, "rate", "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[0] == "rate 3/2 (1.5)"

    @pytest.mark.parametrize("text", ["[1, 2]", "4", '"N"'])
    def test_config_must_be_an_object(self, capsys, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, out, err = run(capsys, "rate", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "must hold a JSON object" in err

    @pytest.mark.parametrize("key,value", [
        ("N", 4.5), ("N", True), ("K", "4"), ("L", 3.0), ("seed", 1.5), ("jobs", False),
    ])
    def test_integer_keys_refuse_other_values(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        params = {"N": 4, "K": 4, "L": 3, "Mhat": "2", "M": "1"}
        cfg.write_text(json.dumps({**params, key: value}))
        code, out, err = run(capsys, "rate", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and f"{key!r} must be an integer" in err

    def test_negative_seed_refused_by_name(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        code, out, err = run(capsys, "verify", "--config", str(cfg), "--scheme", "equal",
                             "--N", "4", "--K", "4", "--M", "1")
        assert (code, out, err) == (1, "", "error: --seed must be non-negative, got -1\n")

    def test_unknown_key_refused(self, capsys, tmp_path):
        # the flag's spelling is no config key: its destination is
        cfg = tmp_path / "cfg.json"
        argv = ("sweep", "--config", str(cfg), "--N", "10", "--K", "4", "--L", "2",
                "--from", "2", "--to", "2", "--step", "1")
        cfg.write_text(json.dumps({"Mhat-factor": "3"}))
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "'Mhat-factor'" in err
        cfg.write_text(json.dumps({"mhat_factor": "3"}))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[1].startswith("10,4,2,6,2,proposed,7/5,")

    def test_config_cannot_name_another_config(self, capsys, tmp_path):
        # a nested config key was once accepted and its file never read
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"config": "nonexistent.json", "N": 4, "K": 4,
                                   "M": "1", "scheme": "equal"}))
        code, out, err = run(capsys, "rate", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "'config'" in err

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": 4, "K": 4, "M": "1", "scheme": "equal"}))
        code, out, _ = run(capsys, "rate", "--config", str(cfg), "--M", "0")
        assert code == 0
        assert out.splitlines()[0] == "rate 4 (4)"

    VERIFY = ("verify", "--N", "4", "--K", "3", "--L", "1", "--Mhat", "3", "--M", "1")

    NULL_RUNS = {
        "rate": ("rate", "--N", "4", "--K", "4", "--L", "3", "--Mhat", "2", "--M", "1"),
        "sweep": ("sweep", "--N", "4", "--K", "4", "--L", "3", "--Mhat", "2",
                  "--from", "1", "--to", "2", "--step", "1"),
        "verify": ("verify", "--N", "4", "--K", "4", "--L", "3", "--Mhat", "2", "--M", "1"),
    }

    @pytest.mark.parametrize("command,key", [
        ("verify", "seed"), ("verify", "exhaustive"), ("verify", "inject_fault"),
        ("sweep", "jobs"), ("sweep", "format"), ("sweep", "sweep_axis"),
        ("sweep", "scheme"), ("rate", "scheme"), ("verify", "scheme"),
    ])
    def test_null_leaves_a_key_at_its_default(self, capsys, tmp_path, command, key):
        # a null was once read as the value None: seed and jobs escaped main as
        # a TypeError, and a scheme, format or axis of None was refused
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: None}))
        argv = self.NULL_RUNS[command]
        plain = run(capsys, *argv)
        assert plain[0] == 0
        assert run(capsys, *argv, "--config", str(cfg)) == plain

    @pytest.mark.parametrize("key,value,expect", [
        ("inject_fault", "no", "true or false"),
        ("exhaustive", "false", "true or false"),
        ("exhaustive", 1, "true or false"),
        ("report", True, "a string or a number"),
    ])
    def test_values_must_have_their_flag_s_type(self, capsys, tmp_path, key, value,
                                                expect):
        # a string switch once injected the fault or ran every demand, and
        # report=true wrote the records to (and closed) file descriptor 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run(capsys, *self.VERIFY, "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == (f"error: config value {key!r} must be {expect}, "
                       f"got {json.dumps(value)}\n")

    def test_a_number_names_a_file_by_its_text(self, capsys, tmp_path, monkeypatch):
        # report=7 once wrote the records to file descriptor 7
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"report": 7, "M": 1.0}))
        code, out, _ = run(capsys, *self.VERIFY[:-2], "--config", "cfg.json")
        assert code == 0 and out.startswith("24/24 demands pass")
        assert len((tmp_path / "7").read_text().splitlines()) == 24

    def test_a_number_for_a_path_exits_1(self, capsys, tmp_path, monkeypatch):
        # external_rates=3 once escaped main as a TypeError traceback
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"external_rates": 3}))
        code, out, err = run(capsys, "sweep", "--N", "4", "--K", "4", "--L", "2",
                             "--from", "1", "--to", "1", "--step", "1",
                             "--config", "cfg.json")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "'3'" in err
