"""Polynomial arithmetic over F_p and the truncated-power kernel."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fthresholds.errors import DomainError
from fthresholds.exact import prime_power
from fthresholds.frobenius import _root_step, frobenius_root
from fthresholds.gfpoly import GFPoly, drl_key
from fthresholds.groebner import Ideal, normal_form
from fthresholds.parsing import parse_gfpoly

from conftest import (
    drl,
    pow_truncate_oracle,
    rand_gfpoly,
    ref_linear_reduce,
    ref_mul,
    ref_mul_term,
    ref_mul_truncated,
    ref_normal_form,
    ref_root_pieces,
    ref_truncate,
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
    step = _root_step(polys, n, p)
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
