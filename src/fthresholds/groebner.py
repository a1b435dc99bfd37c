"""Buchberger's algorithm over F_p[x_1..x_n], plus monomial-ideal fast paths.

The monomial order is degrevlex everywhere.  `groebner_basis` prunes its
S-pairs with the Gebauer-Moller criteria (chain, product and B-criterion; see
its docstring), so most pairs whose S-polynomial would reduce to zero are never
reduced, and PAIR_CAP counts only the pairs that are.  Reduced Groebner bases
are unique, so ideal equality is a term-for-term comparison of bases.  Monomial
ideals bypass Buchberger entirely: membership is divisibility and every
operation keeps the generator antichain minimal.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .errors import CapacityError, DomainError
from .exact import PrimePower
from .gfpoly import (
    GFPoly,
    Monomial,
    drl_key,
    monomial_divides,
    monomial_mul,
    s_polynomial,
    update_pairs,
)

PAIR_CAP = 100_000


def normal_form(f: GFPoly, basis: Sequence[GFPoly]) -> GFPoly:
    """Remainder of multivariate division of f by `basis` under degrevlex.

    No term of the result is divisible by the lead monomial of any divisor.
    """
    return f.remainder(basis)


def groebner_basis(gens: Iterable[GFPoly]) -> tuple[GFPoly, ...]:
    """The unique reduced Groebner basis of the ideal generated by `gens`.

    Buchberger's algorithm with the Gebauer-Moller pair criteria: the
    generators, then each nonzero remainder h, join the basis one at a time,
    and each time the pair set is updated in three steps (`UPDATE` of
    Becker-Weispfenning, Groebner Bases, 1993, section 5.5; Gebauer-Moller,
    J. Symbolic Comput. 6, 1988):
      * chain criterion: a new pair (g, h) is dropped when the lcm of another
        new pair (g', h), not itself dropped, divides lcm(g, h);
      * product criterion: then the new pairs whose leads are coprime go;
      * B-criterion: an old pair (g1, g2) is dropped when LM(h) divides
        lcm(g1, g2) and neither lcm(g1, h) nor lcm(g2, h) equals it.
    Every element stays in the list that remainders are taken by; only the
    pair set is pruned.

    Why the dropped pairs are safe: the basis is a Groebner basis once every
    S-polynomial has a standard representation.  One always exists for
    coprime leads (Buchberger's first criterion), and one exists for (g1, g2)
    as soon as it does for (g1, g) and (g, g2), with LM(g) dividing
    lcm(g1, g2) (his second criterion).  The chain criterion drops (g, h) by
    that rule with g' in the middle, and the B-criterion drops (g1, g2) with h
    in the middle.  What keeps the rule from going in a circle, among pairs
    with equal lcms, is that a pair dropped by the chain criterion is never a
    witness and that the B-criterion asks both lcms to differ.

    Pairs are reduced by degrevlex of their lcm, then by index: deterministic.
    Raises CapacityError after PAIR_CAP S-pairs reduced; dropped pairs are not
    counted."""
    basis: list[GFPoly] = []
    leads: list = []
    pairs: list = []
    for g in gens:
        if not g.is_zero:
            update_pairs(pairs, leads, g)
            basis.append(g.monic())
    processed = 0
    while pairs:
        _, i, j = heapq.heappop(pairs)
        processed += 1
        if processed > PAIR_CAP:
            raise CapacityError(f"S-pair cap of {PAIR_CAP} exceeded")
        r = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if not r.is_zero:
            update_pairs(pairs, leads, r)
            basis.append(r.monic())
    return _reduce_basis(basis)


def _reduce_basis(basis: list[GFPoly]) -> tuple[GFPoly, ...]:
    """The reduced basis of a monic Groebner basis, by descending lead.

    Minimalize: for each minimal lead, by ascending lead, keep the first
    element with it (the last to enter a dict over the reversed basis).  Then
    one pass of tail reduction is exact:
      * in a minimal basis no lead divides another, so no reduction touches a
        lead, and each element keeps its lead and its coefficient 1;
      * a divisor of a monomial is never larger than it in a monomial order,
        and every tail term of g_i lies below lead(g_i), so only the elements
        with smaller leads, keep[:i], can divide it.
    """
    first = {g.lead_monomial(): g for g in reversed(basis)}
    keep = [first[m] for m in minimize_points(first)]
    return tuple(normal_form(keep[i], keep[:i]) for i in reversed(range(len(keep))))


class Ideal:
    """Finitely generated ideal of F_p[x_1..x_n] with a cached reduced GB."""

    __slots__ = ("gens", "n", "p", "_gb")

    def __init__(self, gens: Iterable[GFPoly], n: int = None, p: int = None):
        gens = [g for g in gens if not g.is_zero]
        if n is None or p is None:
            if not gens:
                raise DomainError("ambient (n, p) required for the zero ideal")
            n, p = gens[0].n, gens[0].p
        for g in gens:
            if g.n != n or g.p != p:
                raise DomainError("generators live in different ambient rings")
        self.gens = tuple(gens)
        self.n = n
        self.p = p
        self._gb = None

    @classmethod
    def from_strings(cls, texts: list[str] | str, n: int, p: int) -> "Ideal":
        from .parsing import parse_ideal

        return parse_ideal(texts, n, p)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def groebner_basis(self) -> tuple[GFPoly, ...]:
        if self._gb is None:
            self._gb = groebner_basis(self.gens)
        return self._gb

    def contains(self, f: GFPoly) -> bool:
        if f.is_zero:
            return True
        return normal_form(f, self.groebner_basis()).is_zero

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.gens)

    def equals(self, other: "Ideal") -> bool:
        if self.n != other.n or self.p != other.p:
            raise DomainError("ambient mismatch in ideal comparison")
        return self.groebner_basis() == other.groebner_basis()

    def is_unit(self) -> bool:
        gb = self.groebner_basis()
        return any(g.total_degree() == 0 for g in gb)

    def to_strings(self) -> list[str]:
        return [str(g) for g in self.gens]

    def __repr__(self) -> str:
        return f"Ideal({self.to_strings()}, n={self.n}, p={self.p})"


def minimize_points(points: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Antichain of minimal exponent vectors under componentwise <=, in
    ascending degrevlex order: a proper divisor sorts first, so one scan
    suffices."""
    keep: list[Monomial] = []
    for q in sorted(set(tuple(p) for p in points), key=drl_key):
        if not any(monomial_divides(k, q) for k in keep):
            keep.append(q)
    return tuple(keep)


class MonomialIdeal:
    """Monomial ideal given by its minimal generator antichain."""

    __slots__ = ("n", "gens")

    def __init__(self, points: Iterable[Monomial], n: int):
        if n < 1:
            raise DomainError(f"need at least one variable, got n={n}")
        pts = [tuple(q) for q in points]
        for q in pts:
            if len(q) != n:
                raise DomainError(f"exponent vector {q} has wrong length (n={n})")
            if any(e < 0 for e in q):
                raise DomainError(f"negative exponent in {q}")
        self.n = n
        self.gens = minimize_points(pts)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return self.gens == ((0,) * self.n,)

    def contains_monomial(self, mono: Monomial) -> bool:
        return any(monomial_divides(g, mono) for g in self.gens)

    def contains(self, other: "MonomialIdeal") -> bool:
        return all(self.contains_monomial(g) for g in other.gens)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.n == other.n and self.gens == other.gens

    def __hash__(self) -> int:
        return hash((self.n, self.gens))

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return MonomialIdeal(self.gens + other.gens, self.n)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return MonomialIdeal(
            [monomial_mul(a, b) for a in self.gens for b in other.gens], self.n
        )

    def pow(self, r: int) -> "MonomialIdeal":
        if r < 0:
            raise DomainError("negative power")
        result = MonomialIdeal([(0,) * self.n], self.n)
        for _ in range(r):
            result = result * self
        return result

    def floor_root(self, q: PrimePower) -> "MonomialIdeal":
        """Smallest monomial ideal J with self contained in J^[q]."""
        return MonomialIdeal([tuple(e // q.q for e in g) for g in self.gens], self.n)

    def to_ideal(self, p: int) -> Ideal:
        return Ideal([GFPoly.from_monomial(g, self.n, p) for g in self.gens], n=self.n, p=p)

    def to_strings(self) -> list[str]:
        from .parsing import format_monomial

        return [format_monomial(g, self.n) or "1" for g in self.gens]

    def __repr__(self) -> str:
        return f"MonomialIdeal({self.to_strings()}, n={self.n})"
