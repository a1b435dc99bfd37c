"""Newton polytopes of monomial ideals: orders, thresholds, multiplier ideals.

The Newton polytope P of a monomial ideal is the convex hull of its exponent
vectors a_j plus the nonnegative orthant.  For a positive rational vector v,

    ord_P(v) = max { t >= 0 : v in t*P }

is the optimum of the exact LP  max sum(z_j)  s.t.  sum_j z_j * a_j <= v, z >= 0:
writing a point of t*P as t * (convex combination) + (nonnegative slack) and
substituting z_j = t * theta_j linearizes the problem, and the optimum equals
the largest admissible t.  By LP duality it is also the minimum of <w, v> over

    Q = { w >= 0 : <w, a_j> >= 1 for every j },

and since v > 0 and Q lies in the orthant, the minimum is attained at a vertex:
ord_P(v) = min_k <w_k, v> over the vertices w_k of Q, the facet normals of P
scaled to <w_k, .> = 1 on their facet.  Q is empty, and ord_P infinite, exactly
when 0 is an exponent point.

The vertices are found once per polytope by the double-description method
(Motzkin et al. 1953; Fukuda-Prodon 1996) on the cone

    C = { (w, s) : w >= 0, s >= 0, <a_j, w> >= s },

whose extreme rays with s > 0 are the vertices of Q scaled by s.  Start from
the unit rays of the orthant and add the constraints h = (a_j, -1) one at a
time: keep the rays r with <h, r> >= 0, and for each adjacent pair with
<h, r+> > 0 > <h, r->, add <h, r+> * r- - <h, r-> * r+, which lies on h = 0.
Rays are integer vectors divided by the gcd of their entries, and each carries
the bitmask of the constraints it makes tight.  Two rays are adjacent iff their
common tight set Z has at least n - 1 members (dim C - 2) and no other ray's
tight set contains Z.  The new ray is tight on Z and h; a kept ray on h = 0
gains h.

Q is kept in integers as (W, L): L is the lcm of the rays' s, and each ray
(w, s) with s > 0 gives the row W_k = (L / s) w, so the vertices are W_k / L
and, for an integer vector v,

    ord_P(v) = min_k <W_k, v> / L.

Every box scan below is integer dot products and compares; a Fraction is made
only for a value that is returned.

The log canonical threshold of the ideal is ord_P(1,...,1), and membership of
x^u in the multiplier ideal at exponent lambda is the strict inequality
ord_P(u + 1) > lambda, that is min_k <W_k, u + 1> > lambda L.  The jumping
numbers up to a bound are the values ord_P(u + 1) in (0, bound].  Both scan a
box of exponents, and BOX_CAP bounds the box a scan may cover.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, total_ordering
from typing import Iterable, Sequence

from .errors import CapacityError, DomainError
from .gfpoly import Monomial
from .groebner import MonomialIdeal, minimize_points


@total_ordering
class _Infinity:
    """Exact positive infinity for threshold conventions (no floats)."""

    def __lt__(self, other):
        return False

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("_Infinity")

    def __repr__(self):
        return "inf"


INFINITY = _Infinity()

# Largest box {0..cap}^n of exponents that a scan may cover.  Jumping numbers
# visit every point of it.  A multiplier ideal visits only its (cap+1)^(n-1)
# prefixes, but MonomialIdeal then tests each found point against the
# generators kept so far, which is quadratic in the prefixes; the whole box
# bounds that work too (for n = 2 it is the square of the prefixes).
BOX_CAP = 1_000_000


@dataclass(frozen=True)
class NewtonPolytope:
    """conv(exponent points) + nonnegative orthant; up-closed by construction."""

    points: tuple[Monomial, ...]
    n: int

    @classmethod
    def from_points(cls, points: Iterable[Monomial], n: int) -> "NewtonPolytope":
        pts = [tuple(q) for q in points]
        for q in pts:
            if len(q) != n or any(e < 0 for e in q):
                raise DomainError(f"bad exponent point {q} for n={n}")
        # Dominated points (componentwise >= another) never support the lower
        # boundary, so pruning them changes no order value.
        return cls(minimize_points(pts), n)

    @classmethod
    def from_monomial_ideal(cls, a: MonomialIdeal) -> "NewtonPolytope":
        return cls.from_points(a.gens, a.n)

    @property
    def is_empty(self) -> bool:
        return not self.points

    @cached_property
    def facets(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(W, L): the vertices of Q = {w >= 0 : <w, a_j> >= 1} are W_k / L,
        with integer rows W_k and L the lcm of the rays' s; by double description."""
        # A ray of C is (integer (w, s), bitmask of its tight constraints): bit
        # i < d for coordinate i of (w, s) being 0, bit d + j for <a_j, w> = s.
        d = self.n + 1
        rays = [(tuple(int(i == k) for k in range(d)), ((1 << d) - 1) ^ (1 << i))
                for i in range(d)]
        for j, a in enumerate(self.points):
            h = (*a, -1)
            bit = 1 << (d + j)
            dots = [sum(x * y for x, y in zip(h, r)) for r, _ in rays]
            pos = [i for i, x in enumerate(dots) if x > 0]
            neg = [k for k, x in enumerate(dots) if x < 0]
            new = []
            for i, k in itertools.product(pos, neg):
                z = rays[i][1] & rays[k][1]
                if z.bit_count() < d - 2 or any(
                        (t & z) == z for m, (_, t) in enumerate(rays) if m != i and m != k):
                    continue  # not adjacent
                r = tuple(dots[i] * y - dots[k] * x for x, y in zip(rays[i][0], rays[k][0]))
                g = math.gcd(*r)
                new.append((tuple(x // g for x in r), z | bit))
            rays = [(r, t | bit if dot == 0 else t)
                    for (r, t), dot in zip(rays, dots) if dot >= 0] + new
        rays = [r for r, _ in rays if r[-1]]
        L = math.lcm(*(r[-1] for r in rays))
        return tuple(tuple(x * (L // r[-1]) for x in r[:-1]) for r in rays), L


def _check_box(side: int, dims: int, what: str) -> None:
    """CapacityError before a scan of the box {0..side-1}^dims when it has more
    than BOX_CAP points."""
    if side ** dims > BOX_CAP:
        raise CapacityError(f"box cap of {BOX_CAP} points exceeded: {what} would cover "
                            f"the box {{0..{side - 1}}}^{dims}")


def newton_order(P: NewtonPolytope, v: Sequence[Fraction]):
    """ord_P(v) = max{t >= 0 : v in t*P}; INFINITY when 0 is a polytope point.

    v is put over one denominator D as v = a / D with a integer, so that
    ord_P(v) = min_k <W_k, a> / (L D)."""
    if P.is_empty:
        raise DomainError("empty Newton polytope")
    if len(v) != P.n:
        raise DomainError(f"vector length {len(v)} != n = {P.n}")
    v = [Fraction(x) for x in v]
    if any(x <= 0 for x in v):
        raise DomainError("order vector must be strictly positive")
    W, L = P.facets
    if not W:
        return INFINITY
    D = math.lcm(*(x.denominator for x in v))
    a = [x.numerator * (D // x.denominator) for x in v]
    return Fraction(min(sum(x * y for x, y in zip(w, a)) for w in W), L * D)


def lct_monomial(a: MonomialIdeal):
    """Log canonical threshold of a monomial ideal at the origin.

    Conventions: lct(0) = 0 and lct of the unit ideal is infinite.
    """
    if a.is_zero:
        return Fraction(0)
    ones = [Fraction(1)] * a.n
    return newton_order(NewtonPolytope.from_monomial_ideal(a), ones)


def _membership_box(a: MonomialIdeal, lam: Fraction) -> int:
    # Enumeration cap per coordinate.  For t slightly above lam, any witness z
    # with sum(z) = t satisfies, in constraint row i,
    #     sum_j z_j * a_j[i] <= t * M < ceil(lam * M) + 1,
    # where M is the largest coordinate over all exponent points.  So once
    # u_i >= ceil(lam * M), row i is slack and raising u_i further cannot change
    # membership: minimal generators of the multiplier ideal live in the box.
    M = max(max(pt) for pt in a.gens)
    return math.ceil(lam * M)


def multiplier_ideal_monomial(a: MonomialIdeal, lam: Fraction) -> MonomialIdeal:
    """Multiplier ideal of a monomial ideal: {x^u : ord_P(u + 1) > lam}.

    ord_P is nondecreasing in each coordinate, so the minimal generators are
    among the points (prefix, u*) of the box, where u* is the least last
    exponent that passes for the prefix (u_1, ..., u_(n-1)).  u* has a closed
    form.  Write lam * L = N / D with D the denominator of lam, and split each
    row as W_k = (w_k', c_k).  Since ord_P(v) = min_k <W_k, v> / L, the point
    (prefix, u) passes iff for every k

        (s_k + c_k (u + 1)) D > N,    where s_k = <w_k', prefix + 1>.

    A row with c_k = 0 does not depend on u.  If s_k D <= N, it fails for every
    u and the prefix has no generator.  A row with c_k > 0 holds iff
    u + 1 > (N - s_k D) / (c_k D).  As u + 1 is an integer, and an integer t
    exceeds x iff t >= floor(x) + 1, that is u >= floor((N - s_k D) / (c_k D)).
    So the least passing u >= 0 is

        u* = max(0, max over k with c_k > 0 of floor((N - s_k D) / (c_k D))).

    A scan of u = 0..cap finds u* when u* <= cap and no point otherwise, so the
    point is kept iff u* <= cap.  With W empty (0 is an exponent point) no row
    constrains u, every prefix gives u* = 0, and the ideal is the unit ideal.
    """
    lam = Fraction(lam)
    if a.is_zero:
        raise DomainError("multiplier ideal of the zero ideal is not defined here")
    if lam < 0:
        raise DomainError("exponent must be >= 0")
    W, L = NewtonPolytope.from_monomial_ideal(a).facets
    cap = _membership_box(a, lam)
    _check_box(cap + 1, a.n, "the multiplier ideal")
    N, D = lam.numerator * L, lam.denominator
    rows = [(w[:-1], w[-1] * D) for w in W]
    points = []
    for prefix in itertools.product(range(cap + 1), repeat=a.n - 1):
        least = 0
        for head, cD in rows:
            rest = N - D * sum(x * (e + 1) for x, e in zip(head, prefix))
            if cD:
                least = max(least, rest // cD)
            elif rest >= 0:
                break  # the row fails for every u
        else:
            if least <= cap:
                points.append((*prefix, least))
    return MonomialIdeal(points, a.n)


def jumping_candidates(a: MonomialIdeal, bound: Fraction) -> list[Fraction]:
    """All jumping numbers of a monomial ideal in (0, bound], sorted ascending.

    Every value is of the form ord_P(u + 1) = m / L with m = min_k <W_k, u + 1>;
    scanning u over the enumeration box for exponent `bound` finds every jump
    up to the bound.
    """
    bound = Fraction(bound)
    if a.is_zero or a.is_unit():
        raise DomainError("jumping numbers need a nonzero proper ideal")
    if bound <= 0:
        return []
    W, L = NewtonPolytope.from_monomial_ideal(a).facets
    side = _membership_box(a, bound) + 1
    _check_box(side, a.n, "jumping numbers")
    top = bound.numerator * L // bound.denominator  # m <= bound * L iff m <= top
    box = itertools.product(range(1, side + 1), repeat=a.n)
    values = {m for v in box if 0 < (m := min(sum(x * y for x, y in zip(w, v)) for w in W)) <= top}
    return [Fraction(m, L) for m in sorted(values)]
