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

The log canonical threshold of the ideal is ord_P(1,...,1), and membership of
x^u in the multiplier ideal at exponent lambda is the strict inequality
ord_P(u + 1) > lambda.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, total_ordering
from typing import Iterable, Sequence

from .errors import DomainError
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
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        """The vertices of Q = {w >= 0 : <w, a_j> >= 1}, by double description."""
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
        return tuple(tuple(Fraction(x, r[-1]) for x in r[:-1]) for r, _ in rays if r[-1])


def _order(vertices, v):
    """min_k <w_k, v>, or INFINITY when Q has no vertex."""
    return min((sum(x * y for x, y in zip(w, v)) for w in vertices), default=INFINITY)


def newton_order(P: NewtonPolytope, v: Sequence[Fraction]):
    """ord_P(v) = max{t >= 0 : v in t*P}; INFINITY when 0 is a polytope point."""
    if P.is_empty:
        raise DomainError("empty Newton polytope")
    if len(v) != P.n:
        raise DomainError(f"vector length {len(v)} != n = {P.n}")
    v = [Fraction(x) for x in v]
    if any(x <= 0 for x in v):
        raise DomainError("order vector must be strictly positive")
    return _order(P.vertices, v)


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
    """Multiplier ideal of a monomial ideal: {x^u : ord_P(u + 1) > lam}."""
    lam = Fraction(lam)
    if a.is_zero:
        raise DomainError("multiplier ideal of the zero ideal is not defined here")
    if lam < 0:
        raise DomainError("exponent must be >= 0")
    W = NewtonPolytope.from_monomial_ideal(a).vertices
    cap = _membership_box(a, lam)
    points = []
    # ord_P is nondecreasing, so only the least passing last exponent of each
    # prefix can be a minimal generator.
    for prefix in itertools.product(range(cap + 1), repeat=a.n - 1):
        last = next((u for u in range(cap + 1)
                     if _order(W, [e + 1 for e in prefix] + [u + 1]) > lam), None)
        if last is not None:
            points.append((*prefix, last))
    return MonomialIdeal(points, a.n)


def jumping_candidates(a: MonomialIdeal, bound: Fraction) -> list[Fraction]:
    """All jumping numbers of a monomial ideal in (0, bound], sorted ascending.

    Every value is of the form ord_P(u + 1); scanning u over the enumeration
    box for exponent `bound` finds every jump up to the bound.
    """
    bound = Fraction(bound)
    if a.is_zero or a.is_unit():
        raise DomainError("jumping numbers need a nonzero proper ideal")
    if bound <= 0:
        return []
    W = NewtonPolytope.from_monomial_ideal(a).vertices
    box = itertools.product(range(_membership_box(a, bound) + 1), repeat=a.n)
    return sorted({val for u in box if 0 < (val := _order(W, [e + 1 for e in u])) <= bound})
