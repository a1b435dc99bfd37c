"""Bracket powers, Frobenius roots, nu, enclosures, and test ideals."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fthresholds import frobenius
from fthresholds.errors import CapacityError, DomainError
from fthresholds.exact import prime_power
from fthresholds.frobenius import (
    _power_root,
    bracket_power,
    fpt_enclosure,
    fpt_point,
    frobenius_root,
    frobenius_root_principal_power,
    nu,
)
from fthresholds.frobenius import test_ideal as tau_chain
from fthresholds.gfpoly import GFPoly, echelonize, truncated_powers
from fthresholds.groebner import Ideal, MonomialIdeal
from fthresholds.newton import NewtonPolytope
from fthresholds.parsing import parse_gfpoly
from fthresholds.reduction import truncate_ideal

from conftest import (
    cusp_nu_oracle,
    diagonal_fpt,
    eager_powers,
    escapes_oracle,
    expanded_power,
    nu_bruteforce,
    nu_dp,
    order_lp,
    packing_oracle,
    rand_gfpoly,
    rand_homogeneous,
)


def ideal_equal(I, J):
    return I.equals(J)


def gf(text, n=2, p=5):
    return parse_gfpoly(text, n, p)


def ideal(texts, n=2, p=5):
    return Ideal.from_strings(texts, n, p)


def cusp(p):
    return ideal(["x^2 + y^3"], 2, p)


def point(a, e):
    return fpt_point(a, fpt_enclosure(a, e))


def test_bracket_power_examples():
    I = bracket_power(ideal(["x", "y"], p=3), prime_power(3, 2))
    assert ideal_equal(I, ideal(["x^9", "y^9"], p=3))
    J = bracket_power(ideal(["x + y"]), prime_power(5, 1))
    assert [str(g) for g in J.gens] == ["x^5 + y^5"]
    Z = bracket_power(Ideal([], n=2, p=5), prime_power(5, 1))
    assert Z.is_zero


def test_frobenius_root_examples():
    q5 = prime_power(5, 1)
    assert ideal_equal(frobenius_root(ideal(["x^5*y^3"]), q5), ideal(["x"]))
    # x^5 y^3 really does lie in (x)^[5]
    assert ideal(["x^5"]).contains(gf("x^5*y^3"))
    assert frobenius_root(ideal(["x^4"]), q5).is_unit()
    assert ideal_equal(frobenius_root(ideal(["x^5 + y^5"]), q5), ideal(["x + y"]))
    assert frobenius_root(Ideal([], n=2, p=5), q5).is_zero


def test_principal_power_examples():
    q4 = prime_power(2, 2)
    r = frobenius_root_principal_power(gf("x", 2, 2), 7, q4)
    assert ideal_equal(r, ideal(["x"], p=2))
    r0 = frobenius_root_principal_power(gf("x", 2, 2), 0, q4)
    assert r0.is_unit()
    # cusp at p=7: f^6 lies in m^[7], so the root sits inside (x, y)
    q7 = prime_power(7, 1)
    root = frobenius_root_principal_power(gf("x^2 + y^3", 2, 7), 6, q7)
    assert ideal(["x", "y"], p=7).contains_ideal(root)


def test_nu_examples():
    for p, e in [(2, 3), (3, 2), (5, 1), (7, 2)]:
        q = p**e
        assert nu(ideal(["x", "y"], p=p), e).nu == 2 * (q - 1)
    assert nu(cusp(7), 1).nu == 5
    assert nu(cusp(5), 1).nu == 3


def test_nu_oracle_cross_checks():
    # exact binomial-coefficient oracle for the cusp at small q
    for p in (5, 7):
        for e in (1, 2):
            assert nu(cusp(p), e).nu == cusp_nu_oracle(p, e)
    # independent full-expansion brute force on small random ideals
    rng = random.Random(7)
    for _ in range(10):
        p = rng.choice([2, 3])
        gens = [rand_gfpoly(rng, 2, p, max_deg=2, max_terms=2, vanish=True)
                for _ in range(rng.randint(1, 2))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        I = Ideal(gens, n=2, p=p)
        assert nu(I, 1).nu == nu_bruteforce(gens, p)


def test_nu_conventions_and_errors():
    q = prime_power(5, 1)
    assert nu(Ideal([], n=2, p=5), 1).nu == 0
    with pytest.raises(DomainError):
        nu(ideal(["x + 1"]), 1)


def test_nu_bound():
    rng = random.Random(3)
    for _ in range(10):
        p = rng.choice([2, 3, 5])
        n = rng.choice([1, 2])
        gens = [rand_gfpoly(rng, n, p, max_deg=3, max_terms=3, vanish=True)
                for _ in range(rng.randint(1, 2))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        e = rng.choice([1, 2])
        value = nu(Ideal(gens, n=n, p=p), e).nu
        assert value <= n * (p**e - 1)


def test_fpt_enclosure_examples():
    enc = fpt_enclosure(ideal(["x", "y"], p=3), 2)
    assert (enc.low, enc.nu) == (Fraction(16, 9), 16)
    assert enc.low <= 2 <= enc.high  # k = 2 generators: high = 18/9
    enc7 = fpt_enclosure(cusp(7), 1)
    assert (enc7.low, enc7.high) == (Fraction(5, 7), Fraction(6, 7))
    assert enc7.low <= Fraction(5, 6) <= enc7.high
    enc5 = fpt_enclosure(cusp(5), 1)
    assert (enc5.low, enc5.high) == (Fraction(3, 5), Fraction(4, 5))
    assert enc5.width == Fraction(1, 5)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_adjunction(seed):
    """b <= c^[q] iff b^[1/q] <= c, via Groebner membership."""
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5])
    e = rng.choice([1, 2])
    q = prime_power(p, e)
    n = 2
    b = Ideal([rand_gfpoly(rng, n, p, 4, 3) for _ in range(rng.randint(1, 2))], n=n, p=p)
    c = Ideal([rand_gfpoly(rng, n, p, 4, 3) for _ in range(rng.randint(1, 2))], n=n, p=p)
    if rng.random() < 0.5 and not c.is_zero:
        # force the containment branch: build b inside c^[q]
        cq = bracket_power(c, q)
        mix = [sum((g.scale(rng.randint(1, p - 1)) for g in cq.gens), GFPoly.zero(n, p))
               for _ in range(2)]
        b = Ideal([m for m in mix if not m.is_zero], n=n, p=p)
    lhs = bracket_power(c, q).contains_ideal(b)
    rhs = c.contains_ideal(frobenius_root(b, q))
    assert lhs == rhs


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_root_of_sum(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5])
    q = prime_power(p, rng.choice([1, 2]))
    b = Ideal([rand_gfpoly(rng, 2, p, 4, 3)], n=2, p=p)
    c = Ideal([rand_gfpoly(rng, 2, p, 4, 3)], n=2, p=p)
    combined = Ideal(list(b.gens) + list(c.gens), n=2, p=p)
    lhs = frobenius_root(combined, q)
    rhs = Ideal(list(frobenius_root(b, q).gens) + list(frobenius_root(c, q).gens), n=2, p=p)
    assert ideal_equal(lhs, rhs)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_nu_supermultiplicative_and_nested_enclosures(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5])
    f = rand_gfpoly(rng, 2, p, max_deg=4, max_terms=3, vanish=True)
    if f.is_zero:
        return
    I = Ideal([f], n=2, p=p)
    values = [nu(I, e).nu for e in (1, 2, 3)]
    for e in (1, 2):
        assert values[e] >= p * values[e - 1]
    encs = [fpt_enclosure(I, e) for e in (1, 2, 3)]
    for a, b in zip(encs, encs[1:]):
        assert b.low >= a.low
        assert max(a.low, b.low) <= min(a.high, b.high)  # intervals intersect


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_tau_monotone_in_lambda(seed):
    rng = random.Random(seed)
    p = rng.choice([3, 5, 7])
    f = rand_gfpoly(rng, 2, p, max_deg=4, max_terms=3, vanish=True)
    if f.is_zero:
        return
    a = Ideal([f], n=2, p=p)
    k = rng.randint(1, 11)
    lam = Fraction(k, 12)
    mu = Fraction(k + rng.randint(1, 12 - k), 12)
    t_lam = tau_chain(a, lam, 3)
    t_mu = tau_chain(a, mu, 3)
    assert t_lam.ideal.contains_ideal(t_mu.ideal)


def test_test_ideal_spot_values():
    a = ideal(["x^2", "y^3"], p=7)
    half = tau_chain(a, Fraction(1, 2), 3)
    assert half.ideal.is_unit()
    five_sixths = tau_chain(a, Fraction(5, 6), 3)
    assert ideal_equal(five_sixths.ideal, ideal(["x", "y"], p=7))
    assert five_sixths.stabilized and five_sixths.e_used <= 3
    anything = tau_chain(ideal(["x^3 + y^4"], p=5), Fraction(0), 2)
    assert anything.ideal.is_unit()


def test_test_ideal_derived_floor_example():
    # ceil(5 * 49 / 6) = 41; floors of a^41 exponent pairs give exactly (x, y)
    a = ideal(["x^2", "y^3"], p=7)
    got = set()
    for k in range(42):
        beta = ((2 * k) // 49, (3 * (41 - k)) // 49)
        got.add(beta)
    assert (1, 0) in got and (0, 1) in got and (0, 0) not in got


@given(st.integers(0, 10**6))
@settings(max_examples=12, deadline=None)
def test_two_routes_consistency(seed):
    """Enclosures and the tau route never disagree (homogeneous inputs keep
    the relevant singular point at the origin)."""
    rng = random.Random(seed)
    p = rng.choice([3, 5, 7])
    f = rand_homogeneous(rng, 2, p, rng.randint(2, 4))
    if f.is_zero:
        return
    a = Ideal([f], n=2, p=p)
    lam = Fraction(rng.randint(1, 18), 12)
    result = tau_chain(a, lam, 3)
    encs = [fpt_enclosure(a, e) for e in (1, 2, 3)]
    if result.ideal.is_unit():
        for enc in encs:
            assert lam < enc.high
    elif result.stabilized:
        for enc in encs:
            assert lam >= enc.low


def test_tau_chain_no_false_stabilization():
    # I_1 = I_2 = (f), yet nu(3) = 26 >= ceil(11 * 27 / 12) = 25 makes I_3 = R
    f = ideal(["x^2 + y^2"], p=3)
    early = tau_chain(f, Fraction(11, 12), 2)
    assert ideal_equal(early.ideal, f) and not early.stabilized
    assert tau_chain(f, Fraction(11, 12), 3).ideal.is_unit()
    # I_1 = I_2 = (x, y), yet the threshold is at least nu(3)/125 = 74/125 > 7/12
    g = ideal(["x^3 + 4*x^2*y + x*y^2 + y^3"], p=5)
    assert fpt_enclosure(g, 3).low > Fraction(7, 12)
    early = tau_chain(g, Fraction(7, 12), 2)
    assert ideal_equal(early.ideal, ideal(["x", "y"], p=5)) and not early.stabilized
    assert tau_chain(g, Fraction(7, 12), 3).ideal.is_unit()


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_tau_chain_stabilized_is_the_limit(seed):
    """A stabilized value equals a chain term further down (level 4 to 6)."""
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    den = rng.choice([4, 6, 12])
    lam = Fraction(rng.randint(1, 2 * den), den)
    if rng.random() < 0.5:
        f = rand_homogeneous(rng, 2, p, rng.randint(2, 4))
        if f.is_zero:
            return
        a = Ideal([f], n=2, p=p)
        q = prime_power(p, 6)
        deep = frobenius_root_principal_power(f, math.ceil(lam * q.q), q)
    else:
        points = [(rng.randint(1, 4), 0), (0, rng.randint(1, 4)),
                  (rng.randint(1, 3), rng.randint(1, 3))]
        a = MonomialIdeal(points, 2).to_ideal(p)
        q = prime_power(p, 6 if p == 2 else 4)
        deep = MonomialIdeal(points, 2).pow(math.ceil(lam * q.q)).floor_root(q).to_ideal(p)
    result = tau_chain(a, lam, 3)
    if result.stabilized:
        assert ideal_equal(result.ideal, deep)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_principal_power_digit_vs_expand(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    f = rand_gfpoly(rng, 2, p, max_deg=3, max_terms=3)
    if f.is_zero:
        return
    for e in (1, 2):
        q = prime_power(p, e)
        for N in (0, 1, 2, 3, 5, 8, 12):
            fast = frobenius_root_principal_power(f, N, q)
            slow = frobenius_root(Ideal([f.pow(N)], n=2, p=p), q)
            assert ideal_equal(fast, slow)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_nu_fast_paths_match_dp(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5])
    style = rng.choice(["principal", "monomial", "mixed"])
    if style == "principal":
        f = rand_gfpoly(rng, 2, p, max_deg=3, max_terms=3, vanish=True)
        if f.is_zero:
            return
        I = Ideal([f], n=2, p=p)
    elif style == "monomial":
        pts = [tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(rng.randint(1, 3))]
        pts = [m for m in pts if sum(m) > 0]
        if not pts:
            return
        I = Ideal([GFPoly.from_monomial(m, 2, p) for m in pts], n=2, p=p)
    else:
        f = gf("x^2 + y^3", 2, p)
        I = truncate_ideal(Ideal([f], n=2, p=p), rng.randint(1, 4))
    for e in (1, 2):
        assert nu(I, e).nu == nu_dp(list(I.gens), p**e)


def _rand_split_ideal(rng: random.Random):
    """(f) + M: f with at least two terms vanishing at 0, M one to three monomials."""
    n = rng.choice([2, 3])
    p = rng.choice([2, 3, 5])
    e = rng.choice([e for e in (1, 2, 3) if p**e <= (27 if n == 2 else 9)])
    f = GFPoly.zero(n, p)
    while f.is_zero or f.is_monomial():
        f = rand_gfpoly(rng, n, p, max_deg=3, max_terms=3, vanish=True)
    pts = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))}
    pts = [m for m in sorted(pts) if sum(m) > 0] or [(1,) * n]
    gens = [f] + [GFPoly.from_monomial(m, n, p, rng.randint(1, p - 1)) for m in pts]
    return Ideal(gens, n=n, p=p), e


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_nu_split_matches_dp(seed):
    rng = random.Random(seed)
    I, e = _rand_split_ideal(rng)
    assert nu(I, e).nu == nu_dp(list(I.gens), I.p**e)


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_monomial_packing_closed_form(seed):
    """nu_M(b) against a search over every generator that fits, for M holding
    all or some of the monomials of degree d in the variables U, plus larger
    generators, mostly in U.  M is full iff it holds every monomial of its
    least degree in the coordinates its generators use; then no node is spent."""
    rng = random.Random(seed)
    n, d = rng.randint(1, 3), rng.randint(1, 3)
    U = rng.sample(range(n), rng.randint(1, n))
    least = [m for m in itertools.product(range(d + 1), repeat=n)
             if sum(m) == d and all(m[i] == 0 for i in range(n) if i not in U)]
    points = least if rng.random() < 0.5 else rng.sample(least, rng.randint(1, len(least)))
    for _ in range(rng.randint(0, 2)):
        coords = U if rng.random() < 0.75 else range(n)
        extra = [0] * n
        for _ in range(d + rng.randint(1, 3)):
            extra[rng.choice(list(coords))] += 1
        points = points + [tuple(extra)]
    used = [i for i in range(n) if any(m[i] for m in points)]
    full = all(m in points for m in itertools.product(range(d + 1), repeat=n)
               if sum(m) == d and all(m[i] == 0 for i in range(n) if i not in used))
    packing = frobenius._MonomialPacking(points)
    assert packing.full == full
    for _ in range(4):
        budget = tuple(rng.randint(0, 9) for _ in range(n))
        assert packing.solve(budget) == packing_oracle(points, budget), (points, budget)
    assert full == (packing.nodes == 0)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_nu_reduces_modulo_monomial_generators(seed):
    """nu of monomials M plus one or two generators with terms in M equals
    nu_dp of the generators as given: dropping those terms keeps the ideal,
    also where a generator is left a monomial or zero."""
    rng = random.Random(seed)
    n = rng.choice([2, 3])
    p = rng.choice([2, 3, 5])
    e = rng.choice([e for e in (1, 2, 3) if p**e <= (27 if n == 2 else 9)])
    pts = {tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 3))}
    pts = [m for m in sorted(pts) if sum(m) > 0] or [(1,) * n]
    gens = [GFPoly.from_monomial(m, n, p, rng.randint(1, p - 1)) for m in pts]
    for _ in range(rng.randint(1, 2)):
        g = rand_gfpoly(rng, n, p, max_deg=3, max_terms=2, vanish=True)
        for _ in range(rng.randint(1, 3)):
            m = tuple(x + rng.randint(0, 1) for x in rng.choice(pts))
            g = g + GFPoly.from_monomial(m, n, p, rng.randint(1, p - 1))
        gens.append(g)
    I = Ideal(gens, n=n, p=p)
    assert nu(I, e).nu == nu_dp(list(I.gens), p**e), (I.gens, e)


def test_nu_routes_on_given_generators(monkeypatch):
    """Two generators that are not monomials go to the digit root even when
    the reduction leaves one: x*y^3 + y^4 reduces to x*y^3 modulo y^4, and
    the split route's search on M = {x*y^3, y^4}, which is not full, meets
    NODE_CAP where the digit root answers."""
    I = ideal(["x^2 + y^3", "x*y^3 + y^4", "y^4"], n=2, p=5)

    def no_split(*args):
        raise AssertionError("split route taken")

    monkeypatch.setattr(frobenius, "_nu_split", no_split)
    assert nu(I, 6).nu == 12889


def _rand_root_ideal(rng: random.Random) -> Ideal:
    """Two or three generators that are not monomials, all vanishing at 0,
    and in half the cases one monomial more; k generators in all, with
    k(p-1) <= 12 to bound the power table."""
    n = rng.choice([2, 3])
    k = rng.randint(2, 3)
    mono = tuple(rng.randint(0, 3) for _ in range(n)) if rng.random() < 0.5 else (0,) * n
    p = rng.choice([p for p in (2, 3, 5) if (k + (sum(mono) > 0)) * (p - 1) <= 12])
    gens = []
    while len(gens) < k:
        g = rand_gfpoly(rng, n, p, max_deg=3, max_terms=3, vanish=True)
        if not g.is_zero and not g.is_monomial():
            gens.append(g)
    if sum(mono):
        gens.append(GFPoly.from_monomial(mono, n, p))
    return Ideal(gens, n=n, p=p)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_nu_root_matches_dp(seed):
    rng = random.Random(seed)
    I = _rand_root_ideal(rng)
    e = rng.choice([e for e in (1, 2, 3) if I.p**e <= (27 if I.n + len(I.gens) <= 5 else 9)])
    assert nu(I, e).nu == nu_dp(list(I.gens), I.p**e)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_power_root_matches_expansion(seed):
    """(a^N)^[1/q] by the digit root equals the root of the expanded power."""
    rng = random.Random(seed)
    a = _rand_root_ideal(rng)
    q = prime_power(a.p, rng.choice([1, 2]))
    N = rng.randint(0, min(2 * q.q, 12 if a.n == 2 else 8))
    slow = frobenius_root(Ideal(expanded_power(list(a.gens), N), n=a.n, p=a.p), q)
    assert _power_root(a, N, q).equals(slow)


def test_digit_root_examples():
    # Two generators that are not monomials; each case runs in under a second.
    a = ideal(["x^2 + y^3", "x^3 + y^2"], p=7)
    assert nu(a, 3).nu == 342
    b = ideal(["x^2 + y^3", "x*y^2 + x^3*y"], p=7)
    assert tau_chain(b, Fraction(5, 6), 6).ideal.equals(ideal(["x", "y"], p=7))
    # nu(l+1) - p nu(l) reaches k(p-1) = 4 > p - 1 here, as for m = (x, y).
    assert nu(ideal(["x + y^2", "y + x^2"], p=3), 2).nu == 16


def _term_ideal_lct(gens) -> Fraction:
    """lct of the ideal of all terms of `gens`, by the simplex oracle."""
    n = gens[0].n
    P = NewtonPolytope.from_points([m for g in gens for m in g.terms], n)
    return order_lp(P, [1] * n).optimum


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_nu_root_cap_and_box_truncated_probe(seed):
    """nu(l) <= floor((p^l - 1) lct(T)) at every level, and the box-truncated
    probe agrees with the exact digit root on every r of every window."""
    rng = random.Random(seed)
    n = rng.choice([2, 3])
    k = rng.choice([1, 2])
    p = rng.choice([2, 3, 5, 7])
    gens = []
    while len(gens) < k:
        g = rand_gfpoly(rng, n, p, max_deg=3, max_terms=3, vanish=True)
        if not g.is_zero and not g.is_monomial():
            gens.append(g)
    a = Ideal(gens, n=n, p=p)
    lct = _term_ideal_lct(gens)
    powers = eager_powers(gens)
    top = len(powers) - 1
    prev = None
    for level in range(1, 4):
        if p**level > (49 if n == 2 else 25):
            break
        value = nu(a, level).nu
        assert value <= math.floor((p**level - 1) * lct)
        if prev is not None:
            for r in range(p * prev, p * prev + top + 1):
                J, M = frobenius._digit_root(powers, r, level)
                exact = M == 0 and any(g.constant_term() for g in J)
                assert frobenius._escapes(powers, r, level) == exact, (r, level)
        prev = value


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_escapes_matches_full_echelon_oracle(seed):
    """The probe with local generators between root steps and a box test at
    the last step decides every r of every level's window, and a few r
    anywhere below k p^level, as the full echelon of every level does
    (n <= 3, k <= 3, p <= 7, e <= 4)."""
    rng = random.Random(seed)
    n, k, p = rng.randint(1, 3), rng.randint(1, 3), rng.choice([2, 3, 5, 7])
    gens = [g for g in (rand_gfpoly(rng, n, p, max_deg=3, max_terms=3, vanish=True)
                        for _ in range(k)) if not g.is_zero]
    if not gens:
        return
    limit = 343 if n * len(gens) <= 3 else 125 if n * len(gens) <= 4 else 49
    e = max(level for level in range(1, 5) if level == 1 or p**level <= limit)
    powers = frobenius._PowerTable(gens, p**e)
    top = len(powers) - 1
    value = 0
    for level in range(1, e + 1):
        window = list(range(p * value, p * value + top + 2))
        got = [frobenius._escapes(powers, r, level) for r in window]
        assert got == [escapes_oracle(powers, r, level) for r in window], level
        value = max(r for r, escapes in zip(window, got) if escapes)
        for r in (rng.randrange(len(gens) * p**level) for _ in range(3)):
            assert frobenius._escapes(powers, r, level) == escapes_oracle(powers, r, level)


def test_nu_root_cap_is_not_nu():
    # Cusp at p = 5: lct(x^2, y^3) = 5/6 caps nu(2) at 20, but fpt = 4/5.
    assert _term_ideal_lct(list(cusp(5).gens)) == Fraction(5, 6)
    assert nu(cusp(5), 2).nu == 19


def test_nu_root_probe_counts(monkeypatch):
    calls = []
    escapes = frobenius._escapes

    def counted(powers, r, level):
        calls.append((r, level))
        return escapes(powers, r, level)

    monkeypatch.setattr(frobenius, "_escapes", counted)
    # Level 1 probes like every other level, from min(p - 1, floor((p - 1) lct(T))).
    # nu(1) = 5 = (7 - 1) * 5/6 = (p - 1) lct(T): the closed form answers.
    assert nu(cusp(7), 4).nu == 2000
    assert calls == [(5, 1)]
    calls.clear()
    # At p = 5 the bounds never meet (fpt = 4/5 < 5/6).  After level 1 one
    # probe at level 4 jumps to min(floor(624 * 5/6), 125 * 3 + (125 - 1)) = 499,
    # which escapes, so levels 2 and 3 are never probed.
    assert nu(cusp(5), 4).nu == 499
    assert calls == [(3, 1), (499, 4)]
    calls.clear()
    assert nu(cusp(13), 3).nu == 1830
    assert calls == [(10, 1)]
    calls.clear()
    # The jump to floor(1330 lct(T)) = 1108 fails, and levels 2 and 3 are
    # scanned, level 3 from below 1108.
    assert nu(ideal(["x^2 + y^3", "x*y^2 + x^3*y"], p=11), 3).nu == 1105
    assert calls == [(8, 1), (1108, 3), (100, 2), (99, 2), (1107, 3), (1106, 3), (1105, 3)]


def test_nu_root_closed_form():
    # lct(x^2, y^2) = 1 = fpt, met at level 1: nu = q - 1, not q.
    for e in range(1, 5):
        assert nu(ideal(["x^2 + y^2"], p=5), e).nu == 5**e - 1
    # The cusp meets 5/6 at level 1 for p = 1 (mod 6).
    for p, e in ((7, 3), (13, 2), (19, 2), (19, 3), (7, 5)):
        assert nu(cusp(p), e).nu == cusp_nu_oracle(p, e)


def _principal_curve(rng: random.Random, p: int) -> GFPoly:
    """A binomial or trinomial in x, y vanishing at the origin."""
    support = set()
    while len(support) < rng.choice([2, 3]):
        m = (rng.randint(0, 4), rng.randint(0, 4))
        if 1 <= sum(m) <= 5:
            support.add(m)
    return GFPoly.make(2, p, [(m, rng.randint(1, p - 1)) for m in sorted(support)])


def test_nu_root_closed_form_matches_dp(monkeypatch):
    """nu of principal binomials and trinomials equals nu_dp.  Unless the
    closed form answers at level 1, the probe after level 1 is the jump to
    level e, which answers exactly when nu(e) is its value; otherwise the
    closed form answers (the last probe lies below level e) exactly when
    nu(l) = (p^l - 1) lct(T) at a level l < e."""
    calls, fired = [], []
    escapes = frobenius._escapes

    def recorded(powers, r, level):
        calls.append((r, level))
        return escapes(powers, r, level)

    monkeypatch.setattr(frobenius, "_escapes", recorded)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def check(seed):
        rng = random.Random(seed)
        p = rng.choice([2, 3, 5, 7])
        e = rng.choice([e for e in (2, 3, 4, 5) if p**e <= 49])
        f = _principal_curve(rng, p)
        lct = _term_ideal_lct([f])
        expected = [nu_dp([f], p**level) for level in range(1, e + 1)]
        calls.clear()
        assert nu(Ideal([f], n=2, p=p), e).nu == expected[-1]
        after = [c for c in calls if c[1] > 1]
        assert calls[:len(calls) - len(after)] == [c for c in calls if c[1] == 1]
        jumped = False
        if expected[0] == (p - 1) * lct:
            assert after == []
        else:
            jump = min(math.floor((p**e - 1) * lct), p**(e - 1) * expected[0] + p**(e - 1) - 1)
            assert after[0] == (jump, e)
            jumped = expected[-1] == jump
            assert (len(after) == 1) == jumped
            assert after.count((jump, e)) == 1
        meets = any(v == (p**level - 1) * lct for level, v in enumerate(expected[:-1], start=1))
        assert (calls[-1][1] < e) == (meets and not jumped)
        fired.append(meets and not jumped)

    check()
    assert any(fired)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_power_table_matches_eager(seed):
    """Every entry of the lazy table spans the same space as the eager one."""
    rng = random.Random(seed)
    a = _rand_root_ideal(rng)
    gens = list(a.gens)
    table = frobenius._PowerTable(gens)
    eager = eager_powers(gens)
    assert len(table) == len(eager)
    for t in rng.sample(range(len(eager)), min(4, len(eager))):
        rank = len(echelonize(eager[t], a.n, a.p))
        assert len(echelonize(table[t], a.n, a.p)) == rank
        assert len(echelonize(table[t] + eager[t], a.n, a.p)) == rank


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_principal_power_table_matches_eager(seed):
    """Each k = 1 entry, read in a random order, without a box and with the
    box p^e, is the eager chain's f^t truncated to that box.  A dense quartic
    of one variable at p = 11, 13 sends its top entries to the chain."""
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5, 7, 11, 13])
    if rng.random() < 0.25:
        f = GFPoly.make(1, p, [((a,), rng.randint(1, p - 1)) for a in range(5)])
    else:
        f = GFPoly.zero(1, p)
        while f.is_zero:
            f = rand_gfpoly(rng, rng.randint(1, 3), p, max_deg=4, max_terms=5)
    eager = eager_powers([f])
    for box in (None, p**rng.randint(1, 2)):
        table = frobenius._PowerTable([f], box)
        for t in rng.sample(range(p), p):
            want = eager[t][0].truncate(box) if box else eager[t][0]
            assert table[t] == [want], (t, box)


def test_power_table_builds_only_what_is_read(monkeypatch):
    # The eager table passed POWER_TABLE_CAP at p >= 59 and raised CapacityError.
    assert nu(ideal(["x^2 + y^3", "x^3 + y^2"], p=59), 3).nu == 59**3 - 1
    # Four generators at 5^2: the eager table took seconds.
    four = ideal(["4*x^2*y + 3*y", "4*x^2*y + 3*x", "y^3 + 3*x", "x^2*y^2"])
    assert nu(four, 2).nu == 48
    # (a^1)^[1/q] reads a^1 only, which builds nothing.
    a = ideal(["x^2 + y", "x*y + x", "y^2 + x*y", "x^3 + y^2"], p=3)
    cap = 20
    assert sum(len(h.terms) for span in eager_powers(list(a.gens)) for h in span) > cap
    monkeypatch.setattr(frobenius, "POWER_TABLE_CAP", cap)
    q = prime_power(3, 2)
    assert _power_root(a, 1, q).equals(frobenius_root(a, q))


def test_nu_root_memory_is_bounded_by_the_basis():
    # Every product streams into the echelon, so the peak is the power table
    # plus one basis, about 0.4 MB here.
    a = ideal(["x^2 + y^3", "x*y^2 + x^3*y"], p=13)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        assert nu(a, 3).nu == 1830
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 2 * 10**6


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_truncated_powers_match_repeated_products(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 2, 3])
    p = rng.choice([2, 3, 5])
    e = rng.choice([e for e in (1, 2, 3) if p**e <= (125 if n < 3 else 27)])
    qv = p**e
    f = rand_gfpoly(rng, n, p, max_deg=3, max_terms=4, vanish=True)
    if f.is_zero:
        return
    chain = []
    t = GFPoly.one(n, p)
    while not t.is_zero:
        chain.append(t)
        t = t.mul_truncated(f, qv)
    # A cap no term of the box exceeds keeps the chain whole; the last level
    # runs to the end of the level below it, so zeros may follow the chain.
    got = list(truncated_powers(f, e, 10**6, lambda k: n * (qv - 1)))
    assert got[:len(chain)] == chain
    assert len(got) < len(chain) + p
    assert all(t.is_zero for t in got[len(chain):])
    # Random caps: each product T_k is the chain's power with the terms of
    # degree > cap(k) dropped; T_(p b) needs no product and comes back whole.
    caps = {}

    def cap(k):
        assert k % p and k not in caps
        caps[k] = rng.randint(-1, n * (qv - 1))
        return caps[k]

    got = list(truncated_powers(f, e, 10**6, cap))
    assert len(got) < len(chain) + p
    for k, t in enumerate(got):
        want = chain[k] if k < len(chain) else GFPoly.zero(n, p)
        if k % p:
            want = GFPoly.make(n, p, [(m, c) for m, c in want.terms.items()
                                      if sum(m) <= caps[k]])
        assert t == want


def test_nu_split_capacity(monkeypatch):
    m5 = truncate_ideal(cusp(7), 5)
    # At 7^2 every power is built at the last level, where the degree cap
    # leaves fewer than 3 terms; at 7^3 the uncapped level below exceeds 3.
    monkeypatch.setattr(frobenius, "TERM_CAP", 3)
    with pytest.raises(CapacityError, match="term cap"):
        nu(m5, 3)
    monkeypatch.undo()
    monkeypatch.setattr(frobenius, "NODE_CAP", 100)
    with pytest.raises(CapacityError, match="node cap"):
        nu(ideal(["x^3", "y^4", "z^5"], n=3, p=7), 4)
    # One node count covers all the solves of a call.  m^5 is full and spends
    # no node, so this M has only two of the five monomials of degree 4.
    with pytest.raises(CapacityError, match="node cap"):
        nu(ideal(["x^2 + y^3", "x^3*y", "x*y^3"], p=7), 4)


def test_nu_split_degree_cut(monkeypatch):
    # m^5 is full, so nu_M is read in closed form: no truncated power spends
    # a node of the search.
    monkeypatch.setattr(frobenius, "NODE_CAP", 0)
    assert nu(truncate_ideal(cusp(7), 5), 4).nu == 2000
    monkeypatch.undo()
    # The diagonal closed form sum (q-1) // a_i at q = 7^5, within the default
    # node cap.
    assert nu(ideal(["x^3", "y^4", "z^5"], n=3, p=7), 5).nu == 5602 + 4201 + 3361
    # y^3 lies in m^3, so (x^2 + y^3) + m^3 = (x^2) + m^3, a monomial ideal.
    I = ideal(["x^2 + y^3", "x^3", "x^2*y", "x*y^2", "y^3"], n=2, p=5)
    assert nu(I, 6).nu == frobenius._nu_root(list(I.gens), 6) == 13020
    # From here on f keeps two terms below the least degree of M, so the
    # split route runs with f.  (x^2 + y^3) + m^4 is also (x^2 + y^3, x*y^3,
    # y^4), a shorter input for the digit root: x^2 y^2 = y^2 f - y^5,
    # x^3 y = x y f - x y^4 and x^4 = x^2 f - y x^2 y^2.
    for p, e, value in [(5, 6, 12889), (7, 3, 285)]:
        I = truncate_ideal(cusp(p), 4)
        shorter = ideal(["x^2 + y^3", "x*y^3", "y^4"], n=2, p=p)
        assert nu(I, e).nu == frobenius._nu_root(list(shorter.gens), e) == value
    # The last level's powers keep only the degrees that can still raise nu;
    # a cap one below that bound loses nu by one at 7^3 above and on each of
    # these.
    for gens, p, e, value in [
        (["x^3 + y^2 + x*y", "x^2*y"], 11, 2, 120),
        (["x^2 + y^3", "x^2*y^2"], 7, 3, 285),
    ]:
        I = ideal(gens, n=2, p=p)
        assert nu(I, e).nu == frobenius._nu_root(list(I.gens), e) == value


@pytest.mark.parametrize("gens, n, p, e, value", [
    (["3*z", "2*x", "3*x*z + y"], 3, 5, 4, 1872),
    (["x + y*z", "y^2", "z^3"], 3, 7, 3, 627),
])
def test_nu_split_bound_skips_unused_coordinates(gens, n, p, e, value):
    # No monomial generator uses y, so the budget left in y limits no count;
    # counted in the degree bound, it kept the bound from ever cutting and the
    # search ran into NODE_CAP.
    I = ideal(gens, n=n, p=p)
    assert nu(I, e).nu == frobenius._nu_root(list(I.gens), e) == value


def test_fpt_point_certification():
    assert point(cusp(7), 2) == Fraction(5, 6)
    assert point(ideal(["x", "y"], p=3), 2) == 2
    # fpt = 4/5 at p = 5 and 1/2 at p = 2 are the upper ends of the enclosures
    # [99/125, 4/5] and [7/16, 1/2], but nu/(q - 1) stays below them.
    assert point(cusp(5), 3) is None
    assert point(cusp(2), 4) is None
    # The enclosure at 2^2 is [1/4, 1/2] and its simplest point 1/2 is wrong:
    # at 2^4 the enclosure is [3/8, 7/16].  A point is only returned where the
    # proved bounds meet.
    assert point(ideal(["x^3*y + x*y^4"], p=2), 2) is None


def test_fpt_point_where_the_bounds_meet(monkeypatch):
    """nu/(q - 1) <= fpt <= min((nu + k)/q, lct(T)): where the two meet, fpt_point
    returns the value without a tau chain."""
    def no_tau(*args):
        raise AssertionError("test_ideal called")

    monkeypatch.setattr(frobenius, "test_ideal", no_tau)
    # The cusp at p = 1 (mod 6): nu(e) = (p^e - 1) 5/6 meets lct(x^2, y^3).
    for p, e in ((7, 1), (7, 3), (13, 2), (19, 1), (31, 2), (37, 1), (43, 1)):
        assert point(cusp(p), e) == Fraction(5, 6), p
    assert point(ideal(["x^2", "y^3"], p=7), 3) == Fraction(5, 6)
    assert point(ideal(["x^3 + y^3 + z^3"], n=3, p=7), 3) == 1
    # At p = 5 (mod 6), fpt = 5/6 - 1/(6p): the bounds stay apart.
    for p in (5, 11):
        assert point(cusp(p), 2) is None, p


def test_diagonal_curves_match_the_closed_form():
    """x^a + y^b, 2 <= a <= b <= 7, at every q = p^e <= 3000 with
    p in {2, 3, 5, 7, 11, 13}: the closed form of Hernandez (diagonal_fpt)
    lies in the enclosure and is at least nu/(q - 1), and every point that
    fpt_point returns equals it.  The enclosures come from the digit root's
    probes, so this pins its root steps to a source that shares no code."""
    rows = points = 0
    for p in (2, 3, 5, 7, 11, 13):
        for a, b in itertools.combinations_with_replacement(range(2, 8), 2):
            I = ideal([f"x^{a} + y^{b}"], p=p)
            fpt = diagonal_fpt((a, b), p)
            e = 1
            while p**e <= 3000:
                enc = fpt_enclosure(I, e)
                assert enc.low <= fpt <= enc.high, (a, b, p, e)
                assert Fraction(enc.nu, p**e - 1) <= fpt, (a, b, p, e)
                found = fpt_point(I, enc)
                if found is not None:
                    assert found == fpt, (a, b, p, e)
                    points += 1
                rows += 1
                e += 1
    assert (rows, points) == (672, 90)


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_fpt_lower_bounds_below_upper_bounds(seed):
    """Every proved lower bound nu(l)/(p^l - 1) is at most every proved upper
    bound, (nu(l) + k)/p^l and lct(T), over the levels l <= e of a random ideal
    (n <= 3, k <= 3, p <= 7, e <= 4)."""
    rng = random.Random(seed)
    n, k, p = rng.randint(1, 3), rng.randint(1, 3), rng.choice([2, 3, 5, 7])
    gens = [g for g in (rand_gfpoly(rng, n, p, max_deg=3, max_terms=3, vanish=True)
                        for _ in range(k)) if not g.is_zero]
    if not gens:
        return
    a = Ideal(gens, n=n, p=p)
    lows, highs = [], [frobenius._term_lct(gens)]
    for level in range(1, 5):
        if p**level > (2401 if n * len(gens) <= 3 else 343 if n * len(gens) <= 4 else 125):
            break
        v = nu(a, level).nu
        lows.append(Fraction(v, p**level - 1))
        highs.append(Fraction(v + len(gens), p**level))
    assert max(lows) <= min(highs), (a, lows, highs)


def test_ascending_chain_is_verified():
    # stabilization loop runs the containment check internally; a healthy input
    # must pass it for every step up to e_max without raising
    a = ideal(["x^2 + y^3"], p=5)
    result = tau_chain(a, Fraction(4, 5), 4)
    assert not result.ideal.is_unit()


def test_tau_general_route_matches_principal():
    # (f, x*f) generates the same ideal as (f): the explicit power-expansion
    # route must agree with the digit route on it
    for p in (3, 5):
        f = gf("x^2 + y^3", 2, p)
        plain = Ideal([f], n=2, p=p)
        padded = Ideal([f, gf("x", 2, p) * f], n=2, p=p)
        for lam in (Fraction(1, 2), Fraction(5, 6), Fraction(1)):
            t1 = tau_chain(plain, lam, 2)
            t2 = tau_chain(padded, lam, 2)
            assert ideal_equal(t1.ideal, t2.ideal), (p, lam)


def test_power_table_capacity(monkeypatch):
    # Level 1 of nu reads a^6 first, min(p - 1, floor((p - 1) lct(T))) = 6: the
    # table builds f^6 alone, whose 7 terms and the unit pass a cap of 7.
    monkeypatch.setattr(frobenius, "POWER_TABLE_CAP", 7)
    f = ideal(["x + y"], p=7)
    with pytest.raises(CapacityError, match=r"at a\^6 \(8 terms\)"):
        nu(f, 1)
    monkeypatch.setattr(frobenius, "POWER_TABLE_CAP", 15)
    with pytest.raises(CapacityError, match="power table cap of 15"):
        tau_chain(ideal(["x^2 + y", "x*y + x"], p=5), Fraction(3, 2), 3)
    # nu keeps its table modulo m^[p^e]: f^2 = x^6 + 2 x^3 y^4 + y^8 is kept as
    # its one term 2 x^3 y^4 inside the box 5, and fits a cap of 3 terms.
    monkeypatch.setattr(frobenius, "POWER_TABLE_CAP", 3)
    assert nu(ideal(["x^3 + y^4"], p=5), 1).nu == 2


def test_power_table_cap_bounds_the_multinomial(monkeypatch):
    # lct(T) = 2/3, so level 1 reads f^66 first and nu(1) = 66.  Under a cap of
    # 10^4 the multinomial theorem would visit C(69, 3) = 52394 compositions
    # for it, so the entry comes from the chain, which passes the cap.
    a = ideal(["x^4 + y^3 + x*y^2 + 2*x^2*y"], p=101)
    assert nu(a, 1).nu == 66
    monkeypatch.setattr(frobenius, "POWER_TABLE_CAP", 10**4)
    with pytest.raises(CapacityError, match=r"at a\^66 "):
        nu(a, 1)


def test_tau_monomial_route():
    # monomial ideals take exponent floors; powers stay antichains
    a = ideal(["x^2", "y^3"], p=7)
    res = tau_chain(a, Fraction(5, 6), 3)
    assert ideal_equal(res.ideal, ideal(["x", "y"], p=7))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_monomial_power_root_matches_expansion(seed):
    """(M^N)^[1/q] by the digit identity equals the floor root of M^N expanded."""
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    mono = MonomialIdeal([tuple(rng.randint(0, 4) for _ in range(n))
                          for _ in range(rng.randint(2, 4))], n)
    p = rng.choice([2, 3, 5, 7])
    q = prime_power(p, rng.choice([e for e in (1, 2, 3) if p**e <= 49]))
    N = rng.randint(0, min(2 * q.q, 24))
    assert frobenius._monomial_power_root(mono, N, q) == mono.pow(N).floor_root(q)
