"""End-to-end command-line behavior and exit codes."""

import json
import subprocess
import sys
from dataclasses import replace

import pytest

from fthresholds import cli, frobenius
from fthresholds.cli import EXIT_CAPACITY, EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, dispatch
from fthresholds.experiment import SweepIssue, sweep
from fthresholds.reduction import IntegerIdeal


def run(capsys, *argv) -> tuple[int, str]:
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_lct_command(capsys):
    code, out = run(capsys, "lct", "--gens", "x^2,y^3", "-n", "2")
    assert code == EXIT_OK and out.strip() == "5/6"
    code, out = run(capsys, "lct", "--gens", "x,y", "-n", "2")
    assert out.strip() == "2/1"


def test_fpt_command(capsys):
    code, out = run(capsys, "fpt", "--gens", "x^2+y^3", "-n", "2", "-p", "7", "-e", "3")
    assert code == EXIT_OK
    assert out.strip() == "[285/343, 286/343]"  # width 1/343


def test_nu_and_froot(capsys):
    code, out = run(capsys, "nu", "--gens", "x^2+y^3", "-n", "2", "-p", "7", "-e", "1")
    assert code == EXIT_OK and out.strip() == "5"
    code, out = run(capsys, "froot", "--gens", "x^5*y^3", "-n", "2", "-p", "5", "-e", "1")
    assert json.loads(out) == ["x"]


def test_tau_command(capsys):
    code, out = run(capsys, "tau", "--gens", "x^2,y^3", "-n", "2", "-p", "7",
                    "--lambda", "5/6", "--emax", "3")
    payload = json.loads(out)
    assert payload["ideal"] == ["x", "y"]
    assert payload["stabilized"] is True
    assert payload["lambda"] == "5/6"


def test_corpus_command(capsys):
    code, out = run(capsys, "corpus")
    entries = json.loads(out)
    assert code == EXIT_OK and entries
    for entry in entries:
        assert set(entry) == {"name", "gens", "n", "lct0", "provenance"}
    assert {"name": "cusp", "gens": ["y^3 + x^2"], "n": 2, "lct0": "5/6",
            "provenance": "literature"} in entries


def test_mult_ideal_and_jumps(capsys):
    code, out = run(capsys, "mult-ideal", "--gens", "x^2,y^3", "-n", "2", "--lambda", "1/2")
    assert json.loads(out) == ["1"]
    code, out = run(capsys, "jumps", "--gens", "x^3", "-n", "1", "--bound", "1")
    assert json.loads(out) == ["1/3", "2/3", "1/1"]


def test_usage_errors(capsys):
    code, _ = run(capsys, "lct", "--gens", "x+y", "-n", "2")  # not a monomial
    assert code == EXIT_USAGE
    code, _ = run(capsys, "nu", "--gens", "x3", "-n", "2", "-p", "5", "-e", "1")
    assert code == EXIT_USAGE
    code, _ = run(capsys, "nu", "--gens", "x", "-n", "2", "-p", "6", "-e", "1")
    assert code == EXIT_USAGE
    code, _ = run(capsys, "fpt", "--gens", "x+1", "-n", "2", "-p", "5", "-e", "1")
    assert code == EXIT_USAGE
    for argv, message in (
        (["lct", "--gens", "1", "-n", "0"], "need at least one variable, got n=0"),
        (["mult-ideal", "--gens", "1", "-n", "0", "--lambda", "1"],
         "need at least one variable, got n=0"),
        (["truncation", "--gens", "x^2+y^3", "-n", "2", "--primes", "5", "--qmax", "125",
          "--dmin", "5", "--dmax", "3"], "1 <= dmin <= dmax"),
        (["truncation", "--gens", "x^2+y^3", "-n", "2", "--primes", "5", "--qmax", "125",
          "--dmin", "0", "--dmax", "3"], "1 <= dmin <= dmax"),
        # --certify runs no tau chain, so it has no chain depth to set
        (["fpt", "--gens", "x^2+y^3", "-n", "2", "-p", "7", "-e", "3", "--certify",
          "--emax", "5"], "unrecognized arguments: --emax 5"),
    ):
        code = dispatch(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and message in captured.err and captured.out == "", argv


def test_zero_denominator_is_a_usage_error(capsys):
    # Each rational option names the text it could not read, not Fraction(1, 0).
    for argv in (
        ["jumps", "--gens", "x^2,y^3", "-n", "2", "--bound", "1/0"],
        ["mult-ideal", "--gens", "x^2,y^3", "-n", "2", "--lambda", "1/0"],
        ["tau", "--gens", "x^2,y^3", "-n", "2", "-p", "7", "--lambda", "1/0"],
        ["sweep", "--gens", "x^2+y^3", "-n", "2", "--primes", "5", "--qmax", "100",
         "--target", "1/0"],
    ):
        code = dispatch(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == "", argv
        assert captured.err == "error: zero denominator in '1/0'\n", argv


def test_no_floating_point_in_output(capsys):
    for argv in (
        ["lct", "--gens", "x^2,y^3", "-n", "2"],
        ["fpt", "--gens", "x^2+y^3", "-n", "2", "-p", "5", "-e", "2"],
        ["jumps", "--gens", "x^2,y^3", "-n", "2", "--bound", "1"],
    ):
        _, out = run(capsys, *argv)
        assert "." not in out


def test_sweep_command(capsys):
    # The report's bytes on stdout, JSON and CSV; only elapsed_ms may vary.
    argv = ["sweep", "--gens", "x^2+y^3", "-n", "2", "--primes", "5..11", "--qmax", "1000",
            "--target", "5/6"]
    code, out = run(capsys, *argv)
    assert code == EXIT_OK
    assert out == (
        '{"target_lct": "5/6", "records": ['
        '{"p": 5, "e": 4, "nu": 499, "low": "499/625", "high": "4/5", "gap": "131/3750"}, '
        '{"p": 7, "e": 3, "nu": 285, "low": "285/343", "high": "286/343", "gap": "5/2058"}, '
        '{"p": 11, "e": 2, "nu": 98, "low": "98/121", "high": "9/11", "gap": "17/726"}], '
        '"monotone_ok": true, "below_lct_ok": true, "max_gap": "131/3750"}\n')
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK and out.endswith("\n")
    assert [line.rsplit(",", 1)[0] for line in out.splitlines()] == [
        "p,e,nu,low,high", "5,4,499,499/625,4/5", "7,3,285,285/343,286/343",
        "11,2,98,98/121,9/11"]
    assert all(line.rsplit(",", 1)[1].isdigit() for line in out.splitlines()[1:])


@pytest.mark.parametrize("command", ["sweep", "truncation"])
def test_experiment_generators_must_vanish_at_the_origin(command, monkeypatch, capsys):
    # Refused before any prime is run, also where the prime divides the
    # constant term and the reduction would vanish at the origin.
    def unreachable(*args, **kwargs):
        raise AssertionError("a prime ran before the origin check")

    monkeypatch.setattr(cli, "sweep", unreachable)
    monkeypatch.setattr(cli, "truncation_table", unreachable)
    for gens in ("x + 1", "x^2 + y^3 + 5"):
        code = dispatch([command, "--gens", gens, "-n", "2", "--primes", "5", "--qmax", "125"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == "", gens
        assert captured.err == f"error: {command} generators must vanish at the origin\n", gens


def test_a_program_fault_is_not_a_usage_error(monkeypatch):
    # Only the errors a bad input raises are reported as usage errors; a
    # ZeroDivisionError from the program itself must surface as what it is.
    def broken(*args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "lct_monomial", broken)
    with pytest.raises(ZeroDivisionError):
        dispatch(["lct", "--gens", "x^2,y^3", "-n", "2"])


def test_sweep_stdout_and_csv(capsys):
    code, out = run(capsys, "sweep", "--gens", "x,y", "-n", "2",
                    "--primes", "3,5", "--qmax", "100")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["monotone_ok"] is True

    code, out = run(capsys, "sweep", "--gens", "x,y", "-n", "2", "--primes", "3,5",
                    "--qmax", "100", "--format", "csv")
    assert code == EXIT_OK
    assert out.startswith("p,e,nu,low,high,elapsed_ms\n")


def test_sweep_csv_to_stdout(capsys):
    code, out = run(capsys, "sweep", "--gens", "x^2+y^3", "-n", "2", "--primes", "5,7",
                    "--qmax", "100", "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "p,e,nu,low,high,elapsed_ms"
    assert [line.split(",")[:5] for line in lines[1:]] == [
        ["5", "2", "19", "19/25", "4/5"], ["7", "2", "40", "40/49", "41/49"]]


def test_sweep_capacity_skips_prime(monkeypatch, capsys):
    # The table builds only the f^t it reads.  p = 5 runs at 5^5 and reads f^3
    # and f^4, 10 terms with the unit; p = 101 runs at 101^2, reads f^83 (84
    # terms) at level 1 and f^100 (101 terms) for the jump, past 100.
    monkeypatch.setattr(frobenius, "POWER_TABLE_CAP", 100)
    code = dispatch(["sweep", "--gens", "x^2+y^3", "-n", "2", "--primes", "5,101",
                     "--qmax", "10201"])
    captured = capsys.readouterr()
    assert code == EXIT_CAPACITY
    assert [(r["p"], r["nu"]) for r in json.loads(captured.out)["records"]] == [(5, 2499)]
    assert "warning: p=101 skipped (capacity)" in captured.err
    issues: list[SweepIssue] = []
    records = sweep(IntegerIdeal.from_strings(["x^2+y^3"], 2), [5, 101], 10201, issues=issues)
    assert [r.p for r in records] == [5]
    assert [(i.p, i.kind) for i in issues] == [(101, "capacity")]


def test_sweep_rejects_non_prime(capsys):
    code = dispatch(["sweep", "--gens", "x^2+y^3", "-n", "2", "--primes", "5,9",
                     "--qmax", "100"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "9 is not prime" in captured.err and captured.out == ""


def test_sweep_rejects_prime_ranges_without_primes(capsys):
    for primes, message in (("5..3000000000", "out of range"), ("5..1", "no primes in 5..1")):
        code = dispatch(["sweep", "--gens", "x^2+y^3", "-n", "2", "--primes", primes,
                         "--qmax", "100"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert message in captured.err and captured.out == ""


def test_truncation_table_rejects_non_prime(capsys):
    code = dispatch(["truncation", "--gens", "x^2+y^3", "-n", "2", "--primes", "5,9",
                     "--qmax", "10000"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "9 is not prime" in captured.err and captured.out == ""


def test_truncation_command(capsys):
    code, out = run(capsys, "truncation", "--gens", "x^3+y^4", "-n", "2", "--primes", "11",
                    "--qmax", "10000", "--dmin", "3", "--dmax", "5")
    assert code == EXIT_OK and out.endswith("}\n") and out.count("\n") == 1
    payload = json.loads(out)
    assert payload["all_ok"] is True
    assert [(r["p"], r["e"], r["d"], r["base_low"], r["trunc_low"], r["gap"], r["bound"], r["ok"])
            for r in payload["records"]] == [
        (11, 3, 3, "725/1331", "886/1331", "160/1331", "2/3", True),
        (11, 3, 4, "725/1331", "775/1331", "49/1331", "1/2", True),
        (11, 3, 5, "725/1331", "765/1331", "39/1331", "2/5", True),
    ]
    # the defaults are d = 3..8; p > qmax has no exponent and gives no rows
    code, out = run(capsys, "truncation", "--gens", "x^2+y^3", "-n", "2", "--primes", "5,101",
                    "--qmax", "100")
    assert code == EXIT_OK
    assert [(r["p"], r["d"]) for r in json.loads(out)["records"]] == [(5, d) for d in range(3, 9)]


def test_truncation_skips_degenerate_prime(capsys):
    code = dispatch(["truncation", "--gens", "2*x", "-n", "2", "--primes", "2,5",
                     "--qmax", "25", "--dmax", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert [(r["p"], r["d"]) for r in json.loads(captured.out)["records"]] == [(5, 3)]
    assert "warning: p=2 skipped (degenerate)" in captured.err
    code = dispatch(["truncation", "--gens", "x^2+y^3", "-n", "2", "--primes", "5,5",
                     "--qmax", "25"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "distinct" in captured.err and captured.out == ""


def test_truncation_bound_violation_exits_3(monkeypatch, capsys):
    real = cli.truncation_table

    def broken(*args):
        return [replace(r, ok=r.d != 4) for r in real(*args)]

    monkeypatch.setattr(cli, "truncation_table", broken)
    code, out = run(capsys, "truncation", "--gens", "x^2+y^3", "-n", "2", "--primes", "5",
                    "--qmax", "5", "--dmax", "4")
    assert code == EXIT_INVARIANT
    payload = json.loads(out)
    assert payload["all_ok"] is False
    assert [r["ok"] for r in payload["records"]] == [True, False]


def test_truncation_output_bytes(capsys):
    # The exact bytes of the small truncation run of the CI workflow.  The
    # truncated ideals (x^2 + y^3) + m^d have d + 2 generators, so trunc_high
    # is (nu + d + 2)/q in lowest terms.
    code, out = run(capsys, "truncation", "--gens", "x^2 + y^3", "-n", "2",
                    "--primes", "7,13", "--qmax", "10000")
    assert code == EXIT_OK
    rows = []
    for p, e, low, high, truncs in [
        (7, 4, "2000/2401", "2001/2401",
         ["2005/2401", "2006/2401", "2007/2401", "2008/2401", "41/49", "2010/2401"]),
        (13, 3, "1830/2197", "1831/2197",
         ["1835/2197", "1836/2197", "1837/2197", "1838/2197", "1839/2197", "1840/2197"]),
    ]:
        for d, (trunc, bound) in enumerate(zip(truncs, ["2/3", "1/2", "2/5", "1/3", "2/7", "1/4"]),
                                           start=3):
            rows.append(f'{{"p": {p}, "e": {e}, "d": {d}, "base_low": "{low}", '
                        f'"base_high": "{high}", "trunc_low": "{low}", "trunc_high": "{trunc}", '
                        f'"gap": "0/1", "bound": "{bound}", "ok": true}}')
    assert out == '{"records": [' + ", ".join(rows) + '], "all_ok": true}\n'


def test_parse_print_parse_roundtrip(capsys):
    # the froot output is in the same grammar the commands accept
    code, out = run(capsys, "froot", "--gens", "x^7+y^7", "-n", "2", "-p", "7", "-e", "1")
    gens = json.loads(out)
    code, out2 = run(capsys, "froot", "--gens", ",".join(gens), "-n", "2", "-p", "7", "-e", "1")
    assert code == EXIT_OK


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fthresholds", "lct", "--gens", "x^2,y^3", "-n", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "5/6"


def test_box_cap_exits_2_before_scanning():
    # Both boxes are {0..300000}^2; the cap is checked before the scan, so the
    # process ends at once instead of running until it is killed.
    for argv in (["jumps", "--gens", "x^2,y^3", "-n", "2", "--bound", "100000"],
                 ["mult-ideal", "--gens", "x^2,y^3", "-n", "2", "--lambda", "100000"]):
        proc = subprocess.run([sys.executable, "-m", "fthresholds", *argv],
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == EXIT_CAPACITY and proc.stdout == ""
        assert "box cap" in proc.stderr and "{0..300000}^2" in proc.stderr


def test_tau_of_a_monomial_ideal_at_a_large_power(capsys):
    # tau of a monomial ideal is its multiplier ideal (Hara-Yoshida), read
    # from Howald's formula: no chain level, so e_used is 0.
    code, out = run(capsys, "tau", "--gens", "x^2,y^3,x*y", "-n", "2", "-p", "7",
                    "--lambda", "18/11", "--emax", "3")
    assert code == EXIT_OK
    assert out == ('{"ideal": ["x^2", "x*y", "y^2"], "lambda": "18/11", "e_used": 0, '
                   '"stabilized": true}\n')


def test_fpt_certify_where_the_bounds_meet(capsys):
    for gens in ("x^2+y^3", "x^2,y^3"):
        code, out = run(capsys, "fpt", "--gens", gens, "-n", "2", "-p", "7", "-e", "3",
                        "--certify")
        assert code == EXIT_OK
        assert out.splitlines()[1] == "fpt = 5/6 (confirmed)"


def test_fpt_certify_computes_nu_once(monkeypatch, capsys):
    # fpt_point reads the enclosure the command has already printed.
    calls = []
    nu = frobenius.nu

    def counted(a, e):
        calls.append(e)
        return nu(a, e)

    monkeypatch.setattr(frobenius, "nu", counted)
    for gens, p, e in (("x^2+y^3", 7, 3), ("x^3*y + x*y^4", 2, 2), ("x^2+y^3, x^3+y^2", 59, 3)):
        calls.clear()
        code = dispatch(["fpt", "--gens", gens, "-n", "2", "-p", str(p), "-e", str(e),
                         "--certify"])
        assert code == EXIT_OK and calls == [e]
    assert capsys.readouterr().out.splitlines()[-1] == "fpt = 1/1 (confirmed)"


def test_fpt_certify_claims_only_where_the_bounds_meet(capsys):
    # The enclosure at 2^2 is [1/4, 1/2]; its simplest point, 1/2, is not the
    # threshold, which the enclosure [3/8, 7/16] at 2^4 excludes.
    code, out = run(capsys, "fpt", "--gens", "x^3*y + x*y^4", "-n", "2", "-p", "2", "-e", "2",
                    "--certify")
    assert code == EXIT_OK
    assert out == "[1/4, 1/2]\nfpt: unconfirmed\n"


def test_capacity_cap_exits_2_in_both_experiments(monkeypatch, capsys):
    # nu of (9x+5y, 6xy) and of its sum with m^3 takes at most 124 nodes at 5^3,
    # and more than 2000 at 11^2.
    monkeypatch.setattr(frobenius, "NODE_CAP", 1000)
    flags = ["--gens", "9*x+5*y, 6*x*y", "-n", "2", "--qmax", "200"]
    code = dispatch(["sweep", *flags, "--primes", "11"])
    captured = capsys.readouterr()
    assert code == EXIT_CAPACITY and captured.out == ""
    assert captured.err.startswith("warning: p=11 skipped (capacity)")
    assert "error" not in captured.err
    code = dispatch(["truncation", *flags, "--primes", "5,11", "--dmin", "3", "--dmax", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_CAPACITY
    assert [(r["p"], r["d"]) for r in json.loads(captured.out)["records"]] == [(5, 3)]
    assert captured.err.startswith("warning: p=11 skipped (capacity)")


def test_truncation_without_a_row_exits_as_sweep(monkeypatch, capsys):
    # Every prime above q_max: no row, exit 1 and nothing on stdout, as
    # sweep's empty report.
    for command in ("sweep", "truncation"):
        code = dispatch([command, "--gens", "x^2+y^3", "-n", "2", "--primes", "101..110",
                         "--qmax", "100"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert "error: empty" in captured.err
    # Every prime skipped at a capacity cap: exit 2, and again no table.
    monkeypatch.setattr(frobenius, "NODE_CAP", 1000)
    code = dispatch(["truncation", "--gens", "9*x+5*y, 6*x*y", "-n", "2", "--qmax", "200",
                     "--primes", "11"])
    captured = capsys.readouterr()
    assert code == EXIT_CAPACITY and captured.out == ""
