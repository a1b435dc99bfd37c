"""Sweep harness: record schema, exact reporting, deterministic emission;
the truncation table."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from fthresholds import newton
from fthresholds.errors import DomainError
from fthresholds.exact import parse_primes
from fthresholds.experiment import (
    CSV_HEADER,
    SweepIssue,
    SweepRecord,
    convergence_report,
    largest_exponent,
    report_to_csv,
    report_to_json,
    sweep,
    truncation_table,
)
from fthresholds.frobenius import fpt_enclosure, fpt_point
from fthresholds.reduction import IntegerIdeal, reduce_mod_p, truncate_ideal


def cusp():
    return IntegerIdeal.from_strings(["x^2 + y^3"], 2)


def test_exponent_selection():
    assert largest_exponent(5, 10**4) == 5  # 5^5 = 3125
    assert largest_exponent(7, 10**4) == 4  # 7^4 = 2401
    assert largest_exponent(3, 10) == 2
    assert largest_exponent(11, 10) is None


def test_sweep_example_records():
    records = sweep(cusp(), [5, 7], 10**4)
    assert [(r.p, r.e) for r in records] == [(5, 5), (7, 4)]


def test_sweep_degenerate_skip():
    issues = []
    records = sweep(IntegerIdeal.from_strings(["2*x"], 1), [2, 3], 100, issues=issues)
    assert [r.p for r in records] == [3]
    assert [(i.p, i.kind) for i in issues] == [(2, "degenerate")]


def test_sweep_maximal_ideal_value():
    records = sweep(IntegerIdeal.from_strings(["x", "y"], 2), [3], 10)
    assert len(records) == 1
    r = records[0]
    assert (r.p, r.e, r.nu) == (3, 2, 16)
    assert (r.low, r.high) == (Fraction(16, 9), Fraction(2))


def test_convergence_report_gap():
    rec = SweepRecord(p=7, e=1, nu=5, low=Fraction(5, 7), high=Fraction(6, 7), elapsed_ms=0)
    rep = convergence_report([rec], Fraction(5, 6))
    assert rep.max_gap == Fraction(5, 42)
    assert rep.below_lct_ok is True
    assert rep.monotone_ok is True


def test_convergence_report_no_target():
    rec = SweepRecord(p=7, e=1, nu=5, low=Fraction(5, 7), high=Fraction(6, 7), elapsed_ms=3)
    rep = convergence_report([rec])
    assert rep.max_gap is None and rep.below_lct_ok is None
    assert rep.monotone_ok is True
    payload = json.loads(report_to_json(rep))
    assert "target_lct" not in payload and "max_gap" not in payload
    assert payload["monotone_ok"] is True


def test_convergence_report_empty():
    with pytest.raises(DomainError):
        convergence_report([])


def test_report_ignores_input_order():
    a = SweepRecord(p=5, e=2, nu=10, low=Fraction(10, 25), high=Fraction(11, 25), elapsed_ms=0)
    b = SweepRecord(p=7, e=2, nu=40, low=Fraction(40, 49), high=Fraction(41, 49), elapsed_ms=0)
    forward = convergence_report([a, b], Fraction(5, 6))
    backward = convergence_report([b, a], Fraction(5, 6))
    assert backward == forward


def test_monotone_flag_detects_violation():
    a = SweepRecord(p=3, e=1, nu=2, low=Fraction(2, 3), high=Fraction(1), elapsed_ms=0)
    b = SweepRecord(p=3, e=2, nu=5, low=Fraction(5, 9), high=Fraction(6, 9), elapsed_ms=0)
    rep = convergence_report([a, b])
    assert rep.monotone_ok is False


def test_render_csv_and_json():
    records = sweep(cusp(), [5, 7], 100)
    rep = convergence_report(records, Fraction(5, 6))
    lines = report_to_csv(rep).splitlines()
    assert lines[0] == CSV_HEADER == "p,e,nu,low,high,elapsed_ms"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "5" and "/" in first[3]

    payload = json.loads(report_to_json(rep))
    assert payload["target_lct"] == "5/6"
    assert payload["below_lct_ok"] is True
    assert all("elapsed_ms" not in r for r in payload["records"])
    assert [r["p"] for r in payload["records"]] == [5, 7]


def test_empty_report_refused_before_rendering():
    # The sweep renders only what convergence_report returns, and that refuses
    # an empty record list.
    for render in (report_to_csv, report_to_json):
        with pytest.raises(DomainError, match="empty report"):
            render(convergence_report([]))


def test_sweep_order_independent_bytes(tmp_path: Path):
    primes = [13, 5, 11, 7]
    rep1 = convergence_report(sweep(cusp(), primes, 1000), Fraction(5, 6))
    rep2 = convergence_report(sweep(cusp(), list(reversed(primes)), 1000), Fraction(5, 6))
    assert report_to_json(rep1) == report_to_json(rep2)


def test_sweep_repeat_identical_records():
    first = sweep(cusp(), [5, 7, 11], 1000)
    second = sweep(cusp(), [5, 7, 11], 1000)
    strip = lambda rs: [(r.p, r.e, r.nu, r.low, r.high) for r in rs]
    assert strip(first) == strip(second)


def test_truncation_table_records():
    model = IntegerIdeal.from_strings(["x^3 + y^4"], 2)
    records = truncation_table(model, [11, 5, 10007], 10**4, 3, 4)
    # primes keep their order; 10007 > q_max has no exponent
    assert [(r.p, r.e, r.d) for r in records] == [(11, 3, 3), (11, 3, 4), (5, 5, 3), (5, 5, 4)]
    assert [r.gap for r in records] == [Fraction(160, 1331), Fraction(49, 1331),
                                        Fraction(259, 3125), Fraction(0)]
    for r in records:
        a = reduce_mod_p(model, r.p)
        assert r.base == fpt_enclosure(a, r.e)
        assert r.trunc == fpt_enclosure(truncate_ideal(a, r.d), r.e)
        assert r.bound == Fraction(2, r.d) and r.ok
    # an empty or invalid d range is refused before any prime's enclosure
    for dmin, dmax in ((4, 3), (0, 1), (-2, 5)):
        with pytest.raises(DomainError, match="1 <= dmin <= dmax"):
            truncation_table(model, [5], 10**4, dmin, dmax)
    # degenerate primes and primes without an exponent are skipped, as in sweep
    issues = []
    records = truncation_table(IntegerIdeal.from_strings(["2*x"], 2), [5, 2, 101], 25, 3, 3,
                               issues)
    assert [(r.p, r.e, r.d) for r in records] == [(5, 2, 3)]
    assert [(i.p, i.kind) for i in issues] == [(2, "degenerate"), (101, "no-exponent")]
    with pytest.raises(DomainError, match="distinct"):
        truncation_table(cusp(), [5, 5], 25, 3, 3)


def test_one_polytope_for_every_prime_of_a_sweep():
    # Every reduction of the cusp has the term set {x^2, y^3}, so the lct(T)
    # cap of each prime's digit root reads the facets built for the first.
    newton._polytope.cache_clear()
    records = sweep(cusp(), parse_primes("5..47"), 10**5)
    info = newton._polytope.cache_info()
    assert len(records) == 13 and (info.misses, info.hits) == (1, 12)
    a = reduce_mod_p(IntegerIdeal.from_strings(["x^3 + x*y^4 + y^5"], 2), 7)
    newton._polytope.cache_clear()
    enc = fpt_enclosure(a, 3)
    fpt_point(a, enc)
    assert newton._polytope.cache_info().misses == 1
