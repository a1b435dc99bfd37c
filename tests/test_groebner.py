"""Division, Buchberger, ideal decision procedures, and monomial fast paths."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fthresholds import groebner
from fthresholds.errors import CapacityError, DomainError
from fthresholds.exact import prime_power
from fthresholds.gfpoly import GFPoly, drl_key, monomial_divides
from fthresholds.groebner import (
    Ideal,
    MonomialIdeal,
    minimize_points,
    normal_form,
)
from fthresholds.parsing import parse_gfpoly

from conftest import buchberger_all_pairs, rand_gfpoly


def gf(text, n=2, p=5):
    return parse_gfpoly(text, n, p)


def ideal(texts, n=2, p=5):
    return Ideal.from_strings(texts, n, p)


def test_normal_form_examples():
    assert normal_form(gf("x^2*y"), [gf("x^2")]).is_zero
    assert normal_form(gf("x + y"), [gf("x")]) == gf("y")
    # one division step; verify by expanding quotient * divisor + remainder
    f, g = gf("x*y + y^2"), gf("x*y - 1")
    r = normal_form(f, [g])
    assert r == gf("y^2 + 1")
    assert f == g + r  # quotient is 1 here


def test_normal_form_no_divisible_terms():
    g = gf("x^2 - y")
    r = normal_form(gf("x^3"), [g])
    for m in r.terms:
        assert not all(a <= b for a, b in zip(g.lead_monomial(), m))


def test_buchberger_examples():
    gb = ideal(["x", "y"]).groebner_basis()
    assert [str(g) for g in gb] == ["x", "y"]
    I = ideal(["x^2 + y", "x*y"])
    gb = I.groebner_basis()
    assert gf("y^2") in gb
    zero = Ideal([], n=2, p=5)
    assert zero.groebner_basis() == ()


def test_ideal_member_examples():
    I = ideal(["x^2 + y", "x*y"])
    assert I.contains(gf("y^2"))
    assert not ideal(["x^2"]).contains(gf("x"))
    assert I.contains(GFPoly.zero(2, 5))
    assert Ideal([], n=2, p=5).contains(GFPoly.zero(2, 5))
    assert not Ideal([], n=2, p=5).contains(gf("x"))


def test_ideal_equal_examples():
    assert ideal(["x", "y"]).equals(ideal(["y", "x + y"]))
    assert not ideal(["x^2"]).equals(ideal(["x"]))
    assert ideal(["x + y", "y"]).equals(ideal(["x", "y"]))


def test_unit_detection():
    assert ideal(["x", "x + 1"]).is_unit()
    assert not ideal(["x", "y"]).is_unit()
    assert ideal(["3"], p=7).is_unit()


def test_shared_leads_reduce_to_one_element():
    gens = [gf("x + y"), gf("x + 2*y"), gf("y^2")]
    assert groebner.groebner_basis(gens) == buchberger_all_pairs(gens) == (gf("x"), gf("y"))


def test_pair_capacity_error(monkeypatch):
    monkeypatch.setattr(groebner, "PAIR_CAP", 0)
    I = Ideal([gf("x^2 + y"), gf("x*y + x")], n=2, p=5)
    with pytest.raises(CapacityError):
        I.groebner_basis()


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_pair_criteria_match_all_pairs(seed):
    rng = random.Random(seed)
    n, p = rng.randint(1, 4), rng.choice([2, 3, 7, 32003])
    monos = [m for m in itertools.product(range(5), repeat=n) if sum(m) <= 4]
    gens = [GFPoly.make(n, p, [(rng.choice(monos), rng.randint(1, p - 1))
                               for _ in range(rng.randint(1, 4))])
            for _ in range(rng.randint(1, 5))]
    assert groebner.groebner_basis(gens) == buchberger_all_pairs(gens)


def test_pair_counts(monkeypatch):
    calls = []
    s_polynomial = groebner.s_polynomial

    def counted(f, g):
        calls.append((f, g))
        return s_polynomial(f, g)

    monkeypatch.setattr(groebner, "s_polynomial", counted)
    cyclic4 = ideal(["x1+x2+x3+x4", "x1*x2+x2*x3+x3*x4+x4*x1",
                     "x1*x2*x3+x2*x3*x4+x3*x4*x1+x4*x1*x2", "x1*x2*x3*x4-1"], n=4, p=32003)
    quartics = ideal(["x^4+3*x^2*y*z+y^3*z+5*z^4", "y^4+2*x*y^2*z+7*x^3*z+x*z^3",
                      "z^4+x*y^3+4*x^2*z^2+y^2*z^2"], n=3, p=101)
    # The all-pairs loop reduces 35 and 81 S-pairs.
    for I, pairs in ((cyclic4, 11), (quartics, 24)):
        calls.clear()
        gb = I.groebner_basis()
        assert len(calls) == pairs
        assert gb == buchberger_all_pairs(list(I.gens))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_reduced_gb_invariance(seed):
    rng = random.Random(seed)
    p = rng.choice([3, 5, 7])
    gens = [rand_gfpoly(rng, 2, p, max_deg=3, max_terms=3) for _ in range(rng.randint(1, 3))]
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return
    gb = Ideal(gens, n=2, p=p).groebner_basis()
    shuffled = gens[:]
    rng.shuffle(shuffled)
    scaled = [g.scale(rng.randint(1, p - 1)) for g in shuffled]
    assert Ideal(scaled, n=2, p=p).groebner_basis() == gb


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_reduced_basis_is_reduced(seed):
    rng = random.Random(seed)
    n, p = rng.choice([2, 3]), rng.choice([2, 3, 5, 7])
    gens = [rand_gfpoly(rng, n, p, max_deg=3, max_terms=4) for _ in range(rng.randint(1, 4))]
    gb = Ideal(gens, n=n, p=p).groebner_basis()
    leads = [g.lead_monomial() for g in gb]
    assert all(g.lead_coeff() == 1 for g in gb)
    assert all(drl_key(a) > drl_key(b) for a, b in zip(leads, leads[1:]))
    assert not any(i != j and monomial_divides(a, b)
                   for i, a in enumerate(leads) for j, b in enumerate(leads))
    assert not any(monomial_divides(lead, m)
                   for g in gb for m, _ in g.sorted_terms()[1:] for lead in leads)
    assert Ideal(gb, n=n, p=p).groebner_basis() == gb


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_ideal_absorption(seed):
    rng = random.Random(seed)
    p = rng.choice([3, 5, 7])
    n = rng.choice([2, 3])
    gens = [rand_gfpoly(rng, n, p, max_deg=3, max_terms=3) for _ in range(rng.randint(1, 3))]
    I = Ideal(gens, n=n, p=p)
    if I.is_zero:
        return
    f = I.gens[rng.randrange(len(I.gens))]
    g = rand_gfpoly(rng, n, p, max_deg=3, max_terms=3)
    assert I.contains(f * g)


def test_minimize_points():
    assert minimize_points([(2, 0), (2, 1), (0, 3), (1, 3)]) == ((2, 0), (0, 3))
    assert minimize_points([(1, 1, 1), (1, 1, 2), (0, 2, 0)]) == ((0, 2, 0), (1, 1, 1))
    assert minimize_points([]) == ()
    assert minimize_points([(3,), (5,), (2,)]) == ((2,),)


def test_monomial_ideal_basics():
    a = MonomialIdeal([(2, 0), (0, 3), (2, 1)], 2)
    assert a.gens == ((2, 0), (0, 3))
    assert a.contains_monomial((5, 1))
    assert not a.contains_monomial((1, 2))
    assert a.floor_root(prime_power(5, 1)).gens == ((0, 0),)
    assert MonomialIdeal([(0, 0)], 2).is_unit()
    assert MonomialIdeal([], 2).is_zero
    for n in (0, -1):
        with pytest.raises(DomainError, match=f"need at least one variable, got n={n}"):
            MonomialIdeal([()], n)


def test_monomial_power():
    m = MonomialIdeal([(1, 0), (0, 1)], 2)
    sq = m.pow(2)
    assert set(sq.gens) == {(2, 0), (1, 1), (0, 2)}
    assert m.pow(0).is_unit()
    zero = MonomialIdeal([], 2)
    assert (m * zero).is_zero and (zero * m).is_zero and zero.pow(2).is_zero


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_monomial_fast_path_matches_buchberger(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5])
    n = rng.choice([2, 3])
    pts = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))]
    a = MonomialIdeal(pts, n)
    b = MonomialIdeal([tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(2)], n)
    via_div = a.contains(b)
    via_gb = a.to_ideal(p).contains_ideal(b.to_ideal(p))
    assert via_div == via_gb
    assert (a == b) == a.to_ideal(p).equals(b.to_ideal(p))
