"""Minimal Buchberger engine over F_p[x_1..x_n], plus monomial-ideal fast paths.

The monomial order is degrevlex everywhere.  Reduced Groebner bases are unique,
so ideal equality is a term-for-term comparison of bases.  Monomial ideals
bypass Buchberger entirely: membership is divisibility and every operation
keeps the generator antichain minimal.
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
    lead_lcm,
    leads_coprime,
    monomial_divides,
    monomial_mul,
    s_polynomial,
)

PAIR_CAP = 100_000


def normal_form(f: GFPoly, basis: Sequence[GFPoly]) -> GFPoly:
    """Remainder of multivariate division of f by `basis` under degrevlex.

    No term of the result is divisible by the lead monomial of any divisor.
    """
    return f.remainder(basis)


def groebner_basis(gens: Iterable[GFPoly]) -> tuple[GFPoly, ...]:
    """The unique reduced Groebner basis of the ideal generated by `gens`.

    Raises CapacityError after PAIR_CAP S-pairs."""
    basis = [g.monic() for g in gens if not g.is_zero]
    if not basis:
        return ()
    # Pairs are processed by degrevlex of the lcm of their lead monomials, then
    # by index: deterministic.
    heap: list = []
    for i in range(len(basis)):
        for j in range(i):
            heapq.heappush(heap, (lead_lcm(basis[i], basis[j]), j, i))
    processed = 0
    while heap:
        _, i, j = heapq.heappop(heap)
        f, g = basis[i], basis[j]
        if leads_coprime(f, g):
            continue  # product criterion
        processed += 1
        if processed > PAIR_CAP:
            raise CapacityError(f"S-pair cap of {PAIR_CAP} exceeded")
        r = normal_form(s_polynomial(f, g), basis)
        if r.is_zero:
            continue
        r = r.monic()
        k = len(basis)
        for t in range(k):
            heapq.heappush(heap, (lead_lcm(basis[t], r), t, k))
        basis.append(r)
    return _reduce_basis(basis)


def _reduce_basis(basis: list[GFPoly]) -> tuple[GFPoly, ...]:
    """The reduced basis of a monic Groebner basis, by descending lead.

    Minimalize: keep, by ascending lead, each element whose lead no kept lead
    divides.  Then one pass of tail reduction is exact:
      * in a minimal basis no lead divides another, so no reduction touches a
        lead, and each element keeps its lead and its coefficient 1;
      * a divisor of a monomial is never larger than it in a monomial order,
        and every tail term of g_i lies below lead(g_i), so only the elements
        with smaller leads, keep[:i], can divide it.
    """
    leads = [g.lead_monomial() for g in basis]
    keep: list[GFPoly] = []
    kept: list[Monomial] = []
    for i in sorted(range(len(basis)), key=lambda i: drl_key(leads[i])):
        if not any(monomial_divides(m, leads[i]) for m in kept):
            kept.append(leads[i])
            keep.append(basis[i])
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
        if self.is_zero:
            return False
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
        if self.is_zero or other.is_zero:
            return MonomialIdeal((), self.n)
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

    def bracket(self, q: PrimePower) -> "MonomialIdeal":
        return MonomialIdeal([tuple(e * q.q for e in g) for g in self.gens], self.n)

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
