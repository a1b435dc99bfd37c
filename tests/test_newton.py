"""Newton polytope orders, lct, multiplier ideals, jumping numbers, exact LP."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fthresholds.errors import CapacityError, DomainError
from fthresholds.groebner import MonomialIdeal
from fthresholds.newton import (
    BOX_CAP,
    INFINITY,
    NewtonPolytope,
    jumping_candidates,
    lct_monomial,
    multiplier_ideal_monomial,
    newton_order,
)

from conftest import OPTIMAL, UNBOUNDED, order_lp, simplex_max


def poly(points, n=2):
    return NewtonPolytope.from_points(points, n)


def ones(n=2):
    return [Fraction(1)] * n


def test_simplex_basic():
    # max x + y s.t. 2x <= 1, 3y <= 1
    res = simplex_max([1, 1], [[2, 0], [0, 3]], [1, 1])
    assert res.status == OPTIMAL
    assert res.optimum == Fraction(5, 6)
    assert res.witness == (Fraction(1, 2), Fraction(1, 3))


def test_simplex_unbounded():
    res = simplex_max([1], [[0]], [1])
    assert res.status == "unbounded"


def test_simplex_degenerate_terminates():
    # Bland's rule must exit despite a degenerate vertex
    res = simplex_max([3, 4], [[1, 1], [1, 1], [2, 1]], [1, 1, 1])
    assert res.status == OPTIMAL
    assert res.optimum == Fraction(4)


def test_newton_order_examples():
    assert newton_order(poly([(1, 0), (0, 1)]), ones()) == 2
    assert newton_order(poly([(2, 0), (0, 3)]), ones()) == Fraction(5, 6)
    for a, b in [(1, 2), (3, 4), (2, 2)]:
        assert newton_order(poly([(a, b)]), ones()) == min(Fraction(1, a), Fraction(1, b))


def test_newton_order_errors():
    with pytest.raises(DomainError):
        newton_order(NewtonPolytope((), 2), ones())
    with pytest.raises(DomainError):
        newton_order(poly([(1, 0)]), [Fraction(1), Fraction(0)])


def test_lct_examples():
    assert lct_monomial(MonomialIdeal([(1, 0), (0, 1)], 2)) == 2
    assert lct_monomial(MonomialIdeal([(2, 0), (0, 3)], 2)) == Fraction(5, 6)
    assert lct_monomial(MonomialIdeal([(3,)], 1)) == Fraction(1, 3)


def test_lct_conventions():
    assert lct_monomial(MonomialIdeal([], 2)) == 0
    assert lct_monomial(MonomialIdeal([(0, 0)], 2)) is INFINITY
    assert INFINITY > Fraction(10**9)
    assert not (INFINITY < Fraction(10**9))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unit_ideal_through_the_polytope(n):
    # The polytope of the unit ideal has 0 as a point, so its facet form has
    # no vertex: the order is infinite everywhere and every monomial passes.
    unit = MonomialIdeal([(0,) * n], n)
    assert lct_monomial(unit) is INFINITY
    for lam in (Fraction(0), Fraction(1, 2), Fraction(3)):
        assert multiplier_ideal_monomial(unit, lam) == unit


def test_multiplier_ideal_examples():
    a = MonomialIdeal([(2, 0), (0, 3)], 2)
    assert multiplier_ideal_monomial(a, Fraction(1, 2)).is_unit()
    at_threshold = multiplier_ideal_monomial(a, Fraction(5, 6))
    assert not at_threshold.is_unit()  # strictness at the jump
    assert set(at_threshold.gens) == {(1, 0), (0, 1)}
    assert multiplier_ideal_monomial(MonomialIdeal([(1, 0), (0, 1)], 2), 0).is_unit()


def test_jumping_examples():
    axes = jumping_candidates(MonomialIdeal([(1, 0), (0, 1)], 2), Fraction(2))
    assert axes[0] == 2  # lct is the smallest jumping number
    cusp_terms = jumping_candidates(MonomialIdeal([(2, 0), (0, 3)], 2), Fraction(1))
    assert cusp_terms[0] == Fraction(5, 6)
    assert jumping_candidates(MonomialIdeal([(3,)], 1), Fraction(1)) == [
        Fraction(1, 3), Fraction(2, 3), Fraction(1)
    ]


def rand_monomial_ideal(rng, n, max_exp=4, max_gens=4, proper=True):
    pts = []
    for _ in range(rng.randint(1, max_gens)):
        m = tuple(rng.randint(0, max_exp) for _ in range(n))
        if proper and sum(m) == 0:
            continue
        pts.append(m)
    if not pts:
        pts = [tuple(1 for _ in range(n))]
    return MonomialIdeal(pts, n)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_multiplier_monotone_in_lambda(seed):
    rng = random.Random(seed)
    a = rand_monomial_ideal(rng, rng.choice([2, 3]))
    lam = Fraction(rng.randint(0, 12), 12)
    mu = lam + Fraction(rng.randint(1, 6), 12)
    bigger, smaller = multiplier_ideal_monomial(a, lam), multiplier_ideal_monomial(a, mu)
    assert bigger.contains(smaller)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_lct_monotone_under_inclusion(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3])
    a = rand_monomial_ideal(rng, n)
    b = MonomialIdeal(a.gens + rand_monomial_ideal(rng, n).gens, n)  # a included in b
    assert lct_monomial(a) <= lct_monomial(b)


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_right_constancy_between_jumps(seed):
    rng = random.Random(seed)
    a = rand_monomial_ideal(rng, 2, max_exp=3, max_gens=3)
    if a.is_unit():
        return
    jumps = jumping_candidates(a, Fraction(2))
    grid = [Fraction(0)] + jumps
    for lo, hi in zip(grid, grid[1:]):
        mid1 = lo + (hi - lo) / 3
        mid2 = lo + (hi - lo) * 2 / 3
        assert multiplier_ideal_monomial(a, mid1) == multiplier_ideal_monomial(a, mid2)
        # and the value jumps exactly at hi
        assert multiplier_ideal_monomial(a, mid2) != multiplier_ideal_monomial(a, hi) or hi == mid2


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_order_scaling(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3])
    a = rand_monomial_ideal(rng, n)
    P = NewtonPolytope.from_monomial_ideal(a)
    v = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]
    base = newton_order(P, v)
    for c in [Fraction(1, 2), Fraction(2), Fraction(3)]:
        assert newton_order(P, [c * x for x in v]) == c * base


def test_witness_certificate_and_infeasibility_margin():
    # the witness is an exact certificate: constraints hold and the optimum is
    # attained; and v lies outside (t + 1/1000) P, certified by a second LP
    P = poly([(2, 0), (0, 3)])
    v = ones()
    res = order_lp(P, v)
    assert res.status == OPTIMAL
    t = res.optimum
    for i in range(2):
        assert sum(z * pt[i] for z, pt in zip(res.witness, P.points)) <= v[i]
    assert sum(res.witness) == t
    # membership in s*P is: max sum(z) s.t. sum z_j a_j <= v/s reaches 1
    s = t + Fraction(1, 1000)
    feas = simplex_max([1, 1], [[2, 0], [0, 3]], [x / s for x in v])
    assert feas.status == OPTIMAL and feas.optimum < 1


def compositions(d, n):
    """The exponent vectors of degree d in n variables: the generators of m^d."""
    return [c for c in itertools.product(range(d + 1), repeat=n) if sum(c) == d]


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_newton_order_matches_lp(seed):
    # the facet form against one exact LP per query; degenerate inputs put
    # several points on one hyperplane |c| = d, and a zero point makes the
    # order infinite
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    pts = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.5:
        hyperplane = compositions(rng.randint(1, 5), n)
        pts += rng.sample(hyperplane, min(len(hyperplane), rng.randint(1, 6)))
    if rng.random() < 0.1:
        pts.append((0,) * n)
    P = NewtonPolytope.from_points(pts, n)
    for _ in range(4):
        v = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n)]
        res = order_lp(P, v)
        assert newton_order(P, v) == (INFINITY if res.status == UNBOUNDED else res.optimum)


@pytest.mark.parametrize("n, d", [(3, 10), (4, 4), (2, 30), (3, 6)])
def test_maximal_ideal_power_closed_forms(n, d):
    # m^d has C(d + n - 1, n - 1) generators, but Q has the one vertex (1/d, ..., 1/d)
    m_d = MonomialIdeal(compositions(d, n), n)
    assert lct_monomial(m_d) == Fraction(n, d)
    half = max(d // 2 - n + 1, 0)
    assert multiplier_ideal_monomial(m_d, Fraction(1, 2)) == MonomialIdeal(compositions(half, n), n)
    assert jumping_candidates(m_d, Fraction(1)) == [Fraction(k, d) for k in range(n, d + 1)]


def scanned_orders(a, top):
    """ord_P(u + 1) for every u of the box {0..cap}^n that the scans use at
    exponent `top`, each from one exact LP."""
    P = NewtonPolytope.from_monomial_ideal(a)
    cap = math.ceil(top * max(max(pt) for pt in a.gens))
    orders = {}
    for u in itertools.product(range(cap + 1), repeat=a.n):
        res = order_lp(P, [e + 1 for e in u])
        orders[u] = INFINITY if res.status == UNBOUNDED else res.optimum
    return orders


def scanned_multiplier_ideal(a, lam, orders):
    """The box scan: for each prefix, the first last exponent whose order
    exceeds lam."""
    cap = math.ceil(lam * max(max(pt) for pt in a.gens))
    points = []
    for prefix in itertools.product(range(cap + 1), repeat=a.n - 1):
        last = next((u for u in range(cap + 1) if orders[(*prefix, u)] > lam), None)
        if last is not None:
            points.append((*prefix, last))
    return MonomialIdeal(points, a.n)


def scanned_jumps(a, bound, orders):
    cap = math.ceil(bound * max(max(pt) for pt in a.gens))
    box = itertools.product(range(cap + 1), repeat=a.n)
    return sorted({v for u in box if (v := orders[u]) is not INFINITY and 0 < v <= bound})


@st.composite
def monomial_ideals(draw):
    n = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=4))
    return MonomialIdeal(points, n)


@given(monomial_ideals(), st.integers(0, 12), st.integers(0, 50))
@settings(max_examples=200, deadline=None)
@example(MonomialIdeal([(2, 0), (1, 3)], 2), 9, 4)  # not m-primary: a row has c_k = 0
@example(MonomialIdeal([(0, 0, 0)], 3), 6, 0)  # the unit ideal: no row at all
@example(MonomialIdeal([(0, 2, 1), (3, 0, 0)], 3), 12, 1)
def test_closed_forms_match_the_box_scan(a, k, pick):
    # The integer kernel against the box scan it replaced, with every order
    # taken from its own LP: the multiplier ideal at 0, at k/12 of the bound
    # and at a jump, and the jumps up to the bound and up to that jump.
    bound = Fraction(1) if a.n == 3 else Fraction(2)
    orders = scanned_orders(a, bound)
    jumps = scanned_jumps(a, bound, orders)
    lams = [Fraction(0), bound * k / 12] + ([jumps[pick % len(jumps)]] if jumps else [])
    for lam in lams:
        assert multiplier_ideal_monomial(a, lam) == scanned_multiplier_ideal(a, lam, orders)
    if a.is_unit():
        return
    assert jumping_candidates(a, bound) == jumps
    if jumps:
        assert jumping_candidates(a, lams[-1]) == [v for v in jumps if v <= lams[-1]]


def test_box_cap_refuses_before_scanning():
    # x^2, y^3 at 1000: the box {0..3000}^2 is past the cap, so both scans
    # refuse at once.
    a = MonomialIdeal([(2, 0), (0, 3)], 2)
    with pytest.raises(CapacityError, match=r"\{0\.\.3000\}\^2"):
        jumping_candidates(a, Fraction(1000))
    with pytest.raises(CapacityError, match=r"\{0\.\.3000\}\^2"):
        multiplier_ideal_monomial(a, Fraction(1000))
    # x^3 at (BOX_CAP - 1)/3: the box {0..BOX_CAP - 1} has BOX_CAP points and
    # one prefix, whose u* the closed form gives at once.
    lam = Fraction(BOX_CAP - 1, 3)
    assert multiplier_ideal_monomial(MonomialIdeal([(3,)], 1), lam).gens == ((BOX_CAP - 1,),)
