"""Polynomial arithmetic over F_p and the truncated-power kernel."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fthresholds.errors import DomainError
from fthresholds.exact import prime_power
from fthresholds.frobenius import frobenius_root
from fthresholds.gfpoly import (GFPoly, _add_row, _divides, _lcm, _pack, _unpack, _width, drl_key,
                                echelonize, local_generators, root_echelon, root_local_generators)
from fthresholds.groebner import Ideal, normal_form
from fthresholds.parsing import parse_gfpoly

from conftest import (
    drl,
    pow_truncate_oracle,
    rand_gfpoly,
    ref_add_row,
    ref_linear_reduce,
    ref_mul,
    ref_mul_term,
    ref_mul_truncated,
    ref_normal_form,
    ref_root_pieces,
    ref_truncate,
    root_local_reference,
)


def gf(text, n=2, p=7):
    return parse_gfpoly(text, n, p)


def test_add_examples():
    assert gf("x + y", 2, 5) + gf("4*x", 2, 5) == gf("y", 2, 5)
    assert gf("3*x", 2, 5) + gf("4*x", 2, 5) == gf("2*x", 2, 5)
    f = gf("x^2 + 3*y")
    assert f + GFPoly.zero(2, 7) == f


def test_mul_examples():
    f = gf("x + y", 2, 2)
    assert f * f == gf("x^2 + y^2", 2, 2)
    assert gf("x^3") * gf("y^2") == gf("x^3*y^2")
    assert gf("x + 1") * gf("x - 1") == gf("x^2 + 6")


def test_ambient_mismatch():
    with pytest.raises(DomainError):
        gf("x", 2, 5) + gf("x", 2, 7)
    with pytest.raises(DomainError):
        gf("x", 2, 5) * gf("x", 3, 5)


def test_degrevlex_order():
    # same degree: the monomial with the smaller last exponent wins
    assert drl_key((1, 0)) > drl_key((0, 1))
    assert drl_key((2, 1)) > drl_key((1, 2))
    assert drl_key((0, 3)) > drl_key((2, 0))  # higher total degree first
    assert gf("x^2 + x*y + y^2").lead_monomial() == (2, 0)


def test_pow_truncated_examples():
    f = gf("x^2 + y^3", 2, 7)
    r5 = GFPoly.one(2, 7).truncate(7)
    for _ in range(5):
        r5 = r5.mul_truncated(f, 7)
    # independent oracle: full power then one deletion pass
    assert r5 == pow_truncate_oracle(f, 5, 7)
    assert r5.terms.get((6, 6)) == 3  # C(5,3) = 10 = 3 mod 7
    assert r5.mul_truncated(f, 7).is_zero
    assert pow_truncate_oracle(f, 6, 7).is_zero

    x = gf("x", 1, 5)
    x24 = GFPoly.one(1, 5).truncate(25)
    for _ in range(24):
        x24 = x24.mul_truncated(x, 25)
    assert x24 == parse_gfpoly("x^24", 1, 5)
    assert x24.mul_truncated(x, 25).is_zero


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_pow_truncated_matches_oracle(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5])
    n = rng.choice([1, 2])
    f = rand_gfpoly(rng, n, p, max_deg=3, max_terms=4)
    e = rng.choice([1, 2])
    q = prime_power(p, e)
    power = GFPoly.one(n, p).truncate(q.q)
    for r in range(7):
        assert power == pow_truncate_oracle(f, r, q.q)
        power = power.mul_truncated(f, q.q)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_freshmans_dream(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5])
    f = rand_gfpoly(rng, 2, p, max_deg=3, max_terms=4)
    fp = f.pow(p)
    assert set(fp.terms) == {tuple(p * e for e in m) for m in f.terms}


def guard_oracle(f: GFPoly, t: int) -> bool:
    """The multinomial guard by its definition: compositions of t into the s
    terms against s times the largest term counts of f^u, u < t."""
    s, d, n = len(f.terms), f.total_degree(), f.n
    return math.comb(t + s - 1, s - 1) <= s * sum(math.comb(u * d + n, n) for u in range(t))


def dense_quartic(rng: random.Random, p: int) -> GFPoly:
    """Every monomial 1, x, ..., x^4, each with a nonzero coefficient."""
    return GFPoly.make(1, p, [((a,), rng.randint(1, p - 1)) for a in range(5)])


@given(st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_pow_matches_repeated_product(seed):
    """f.pow(r) equals the r-fold product by `*` (n <= 3, p <= 13, at most 5
    terms, r <= 3p), and the guard picks the multinomial route exactly as
    its definition says.  A quarter of the draws take the dense quartic of
    one variable, which the guard refuses for the digits 10..12 at p = 11,
    13, so both digit-power routes and the lifts run."""
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5, 7, 11, 13])
    if rng.random() < 0.25:
        f = dense_quartic(rng, p)
    else:
        n = rng.randint(1, 3)
        f = GFPoly.make(n, p, [(tuple(rng.randint(0, 4) for _ in range(n)), rng.randint(1, p - 1))
                               for _ in range(rng.randint(0, 5))])
    r = rng.randint(0, 3 * p)
    product = GFPoly.one(f.n, p)
    for _ in range(r):
        product = product * f
    assert f.pow(r) == product
    if not f.is_zero:
        for t in range(1, p):
            assert f.multinomial_fits(t) == guard_oracle(f, t), t


def test_pow_guard_refuses_dense_powers():
    rng = random.Random(0)
    quartic = dense_quartic(rng, 13)
    assert [t for t in range(1, 13) if not quartic.multinomial_fits(t)] == [10, 11, 12]
    product = GFPoly.one(1, 13)
    for _ in range(38):  # 38 = 12 + 2 * 13: a refused digit and a lifted one
        product = product * quartic
    assert quartic.pow(38) == product
    # Every monomial of degree <= 4 in two variables but one, at p = 101:
    # about 3.8e16 compositions of 100 against a chain bound of about 3.7e7.
    dense = GFPoly.make(2, 101, [((a, b), 1) for a in range(5) for b in range(5 - a)][1:])
    assert len(dense.terms) == 14 and not dense.multinomial_fits(100)
    assert gf("x^2 + y^3 + x*y", 2, 101).multinomial_fits(100)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_truncated_vanishing_is_monotone(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5])
    f = rand_gfpoly(rng, 2, p, max_deg=3, max_terms=4, vanish=True)
    q = prime_power(p, rng.choice([1, 2]))
    died = False
    power = GFPoly.one(2, p).truncate(q.q)
    for r in range(10):
        z = power.is_zero
        power = power.mul_truncated(f, q.q)
        if died:
            assert z
        died = died or z


def test_canonical_form_no_zero_coeffs():
    f = GFPoly.make(2, 5, [((1, 0), 5), ((0, 1), 3), ((0, 1), 2)])
    assert f.is_zero
    g = GFPoly.make(2, 5, [((1, 0), 7), ((1, 0), 3)])  # 7 + 3 = 0 mod 5
    assert g.terms == {}
    assert g.is_zero


def test_exponent_overflow():
    with pytest.raises(OverflowError):
        GFPoly.make(1, 5, [((2**32,), 1)])
    big = GFPoly.make(1, 5, [((2**31,), 1)])
    with pytest.raises(OverflowError):
        big * big
    for r in (2, 5):  # a digit power, and a lift by 5
        with pytest.raises(OverflowError):
            big.pow(r)
    # Total degree 2^32 with every exponent below it: a valid square.
    wide = GFPoly.make(2, 5, [((2**30, 2**30), 1), ((1, 0), 1)])
    assert wide.pow(2) == wide * wide
    x = GFPoly.make(1, 3, [((2**31 + 1,), 1)])
    with pytest.raises(OverflowError):
        x.mul_truncated(x, 3**21)
    # One division step: x*y^(2^32-1) - y^(2^31-1) * (x*y^(2^31) + y^(2^31+1)).
    g = GFPoly.make(2, 5, [((1, 2**31), 1), ((0, 2**31 + 1), 1)])
    with pytest.raises(OverflowError):
        normal_form(GFPoly.make(2, 5, [((1, 2**32 - 1), 1)]), [g])


# -- packed kernels against the tuple-dict reference ---------------------------

# Exponents near 2^31: a product of two of them may reach the 2^32 limit.
WIDE_EXPONENTS = (2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1)


def rand_terms(rng: random.Random, n: int, p: int, wide: bool) -> dict:
    terms = {}
    for _ in range(rng.randint(1, 5)):
        mono = tuple(rng.choice(WIDE_EXPONENTS) if wide and rng.random() < 0.4
                     else rng.randint(0, 4) for _ in range(n))
        terms[mono] = rng.randint(1, p - 1)
    return terms


def rand_poly(rng: random.Random, n: int, p: int, wide: bool) -> GFPoly:
    return GFPoly.make(n, p, rand_terms(rng, n, p, wide).items())


def as_dict(f: GFPoly) -> dict:
    return dict(f.terms.items())


def outcome(fn):
    """fn()'s value, or OverflowError if it raised that."""
    try:
        return fn()
    except OverflowError:
        return OverflowError


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_products_match_tuple_reference(seed):
    rng = random.Random(seed)
    n, p = rng.randint(1, 4), rng.choice([2, 3, 5, 7])
    wide = rng.random() < 0.5
    F, G = rand_terms(rng, n, p, wide), rand_terms(rng, n, p, wide)
    f, g = GFPoly.make(n, p, F.items()), GFPoly.make(n, p, G.items())
    assert as_dict(f) == F and as_dict(g) == G
    assert outcome(lambda: as_dict(f * g)) == outcome(lambda: ref_mul(F, G, p))
    bound = rng.choice([2, p, p**2, 2**31, 3**21])
    assert (outcome(lambda: as_dict(f.mul_truncated(g, bound)))
            == outcome(lambda: ref_mul_truncated(F, G, bound, p)))
    if not wide:
        cap = rng.randint(-1, max(map(sum, F), default=0) + max(map(sum, G), default=0))
        assert as_dict(f.mul_truncated(g, bound, cap)) == {
            m: c for m, c in ref_mul_truncated(F, G, bound, p).items() if sum(m) <= cap}
    assert as_dict(f.truncate(bound)) == ref_truncate(F, bound)
    mono = next(iter(G))
    c = rng.randint(1, p - 1)
    assert outcome(lambda: as_dict(f.mul_term(mono, c))) == outcome(lambda: ref_mul_term(F, mono, c, p))
    assert f.sorted_terms() == sorted(F.items(), key=lambda kv: drl(kv[0]), reverse=True)
    assert f.lead_monomial() == max(F, key=drl)
    assert all(f.terms[m] == c for m, c in F.items()) and len(f.terms) == len(F)


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_roots_match_tuple_reference(seed):
    rng = random.Random(seed)
    n, p = rng.randint(1, 4), rng.choice([2, 3, 5])
    q = prime_power(p, rng.randint(1, 2))
    wide = rng.random() < 0.3
    polys = [rand_poly(rng, n, p, wide) for _ in range(rng.randint(1, 3))]
    pieces = [ref_root_pieces(as_dict(f), q.q) for f in polys]
    for f, ref in zip(polys, pieces):
        assert [as_dict(g) for g in f.root_pieces(q.q)] == ref
    if wide:
        return
    flat = [GFPoly.make(n, p, piece.items()) for ref in pieces for piece in ref]
    root = frobenius_root(Ideal(polys, n=n, p=p), q)
    assert root.groebner_basis() == Ideal(flat, n=n, p=p).groebner_basis()
    # One Frobenius level with p: echelon rows span the pieces' ideal, and are
    # exactly the rows of the reference elimination.
    pieces_p = [piece for f in polys for piece in ref_root_pieces(as_dict(f), p)]
    step = root_echelon(polys, n, p, p)
    assert [as_dict(g) for g in step] == ref_linear_reduce(pieces_p, p)
    assert (Ideal(step, n=n, p=p).groebner_basis()
            == Ideal([GFPoly.make(n, p, r.items()) for r in pieces_p], n=n, p=p).groebner_basis())


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_normal_form_matches_tuple_reference(seed):
    # Small exponents only: dividing x^(2^31) by x takes 2^31 steps.
    rng = random.Random(seed)
    n, p = rng.randint(1, 4), rng.choice([2, 3, 5, 7])
    f = rand_poly(rng, n, p, wide=False)
    basis = [rand_poly(rng, n, p, wide=False) for _ in range(rng.randint(1, 3))]
    assert (outcome(lambda: as_dict(normal_form(f, basis)))
            == outcome(lambda: ref_normal_form(as_dict(f), [as_dict(g) for g in basis], p)))


# Small exponents make divisibility and equal fields common; the rest reach
# the 2^32 - 1 limit of a stored exponent.
EXPONENTS = st.one_of(st.integers(0, 3), st.sampled_from(WIDE_EXPONENTS),
                      st.integers(0, 2**32 - 1))


@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(*[st.lists(EXPONENTS, min_size=n, max_size=n)] * 2)))
@settings(max_examples=300, deadline=None)
def test_packed_lcm_and_divides_match_tuples(pair):
    a, b = pair
    n = len(a)
    w = _width(n)
    ka, kb = _pack(a, w), _pack(b, w)
    assert _unpack(_lcm(ka, kb, n, w), n, w) == tuple(map(max, a, b))
    assert _divides(ka, kb, n, w) == all(x <= y for x, y in zip(a, b))
    assert _divides(ka, _lcm(ka, kb, n, w), n, w)


def test_local_generators_example():
    # The root J of the cusp's probe: (x, y) generate it at the origin.
    rows = echelonize([gf(t) for t in ("x*y", "y^2", "x", "y")], 2, 7)
    assert local_generators(rows, 7) == [gf("x"), gf("y")]
    assert local_generators([], 7) == []


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_local_generators_lie_in_the_ideal_and_span_it_locally(seed):
    """The kept rows are rows of the input, so they lie in its ideal; there
    are no more of them; a row with a constant term is kept if any row has
    one; and every row lies in the span of the kept rows and the shifts
    x_i g, truncated to the box, which is what Nakayama's lemma asks."""
    rng = random.Random(seed)
    n, p = rng.randint(1, 3), rng.choice([2, 3, 5, 7])
    box = rng.choice([1, 2, 3, p, p * p])
    polys = [rand_gfpoly(rng, n, p, max_deg=4, max_terms=4).truncate(box)
             for _ in range(rng.randint(1, 5))]
    rows = echelonize(polys, n, p)
    kept = local_generators(rows, box)
    assert len(kept) <= len(rows)
    ideal = Ideal(rows, n=n, p=p)
    assert all(ideal.contains(g) for g in kept)
    if any(g.constant_term() for g in rows):
        assert any(g.constant_term() for g in kept)
    shifts = [g.mul_term(tuple(int(j == i) for j in range(n)), 1).truncate(box)
              for g in rows for i in range(n)]
    rank = len(echelonize(shifts + kept, n, p))
    assert len(echelonize(shifts + kept + rows, n, p)) == rank


def test_add_row_one_term_fast_path_examples():
    w = _width(2)
    x, y, xy = _pack((1, 0), w), _pack((0, 1), w), _pack((1, 1), w)
    pivots = {}
    assert _add_row(pivots, {x: 3}, 7) and pivots == {x: {x: 1}}
    assert not _add_row(pivots, {x: 5}, 7)
    # A one-term row on a pivot with more terms runs the general loop:
    # 2 x y - 2 (x y + 3 y) = -6 y, whose monic form is the new pivot y.
    pivots[xy] = {xy: 1, y: 3}
    assert _add_row(pivots, {xy: 2}, 7) and pivots[y] == {y: 1}
    assert not _add_row(pivots, {xy: 4}, 7)
    assert pivots == {x: {x: 1}, xy: {xy: 1, y: 3}, y: {y: 1}}


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_add_row_matches_the_general_loop(seed):
    """_add_row, fast path included, makes the pivots and answers of the
    reference loop, on rows mixing one-term rows with polynomials that put
    several terms under the leads those rows land on."""
    rng = random.Random(seed)
    n, p = rng.randint(1, 3), rng.choice([2, 3, 5, 7, 11])
    rows = []
    for _ in range(rng.randint(1, 20)):
        if rng.random() < 0.6:
            mono = tuple(rng.randint(0, 2) for _ in range(n))
            rows.append(GFPoly.make(n, p, [(mono, rng.randint(1, p - 1))]))
        else:
            rows.append(rand_gfpoly(rng, n, p, max_deg=2, max_terms=4))
    w = _width(n)
    pivots, ref = {}, {}
    for g in rows:
        assert _add_row(pivots, g._terms, p) == ref_add_row(ref, as_dict(g), p)
        assert {_unpack(m, n, w): {_unpack(k, n, w): c for k, c in piv.items()}
                for m, piv in pivots.items()} == ref


def step_products(rng: random.Random, n: int, p: int, box: int) -> list[GFPoly]:
    """Products like those of a nu probe's root step, truncated to box p.
    Sparse ones have terms spread over many residues mod p, so most of their
    root pieces are monomials; dense ones are products of full polynomials of
    low degree, whose pieces share residues; a repeated product repeats every
    one-term pivot."""
    polys = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            f = GFPoly.make(n, p, [(tuple(rng.randrange(box) for _ in range(n)),
                                    rng.randint(1, p - 1)) for _ in range(rng.randint(1, 12))])
        else:
            f = rand_gfpoly(rng, n, p, max_deg=3, max_terms=8)
            for _ in range(rng.randint(0, 2)):
                f = f.mul_truncated(rand_gfpoly(rng, n, p, max_deg=3, max_terms=8), box)
        polys.append(f.truncate(box))
        if rng.random() < 0.2:
            polys.append(polys[-1])
    return polys


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_root_local_generators_match_the_composition(seed):
    """The fused root step returns the rows, in order, of local_generators of
    echelonize of the root pieces, and both match the reference over
    exponent tuples, whose echelon has no one-term shortcut (n <= 3,
    p <= 11, the products in box p^(k+1) and the next box p^k)."""
    rng = random.Random(seed)
    n, p, k = rng.randint(1, 3), rng.choice([2, 3, 5, 7, 11]), rng.randint(0, 2)
    box = p**k
    polys = step_products(rng, n, p, box * p)
    fused = root_local_generators(polys, n, p, box)
    pieces = [piece for f in polys for piece in f.root_pieces(p)]
    assert fused == local_generators(echelonize(pieces, n, p), box)
    assert [as_dict(g) for g in fused] == root_local_reference([as_dict(f) for f in polys], p, box)
