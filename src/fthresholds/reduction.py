"""Integer-coefficient models, reduction mod p, truncation, and the lct corpus.

An IntegerIdeal is a list of integer-coefficient sparse polynomials; reducing
it modulo a prime gives the positive-characteristic object the Frobenius-side
machinery works on.  Primes killing every generator are rejected (degenerate
reduction) and excluded from sweeps.  The corpus ships known log canonical
thresholds with provenance tags; monomial-LP entries are recomputable in-tree.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources

from .errors import DegenerateReductionError, DomainError
from .exact import parse_rational
from .gfpoly import GFPoly, Monomial
from .groebner import Ideal
from .parsing import format_terms, parse_int_poly, split_generators


@dataclass(frozen=True)
class IntegerIdeal:
    """Finite generator list over Z[x_1..x_n]."""

    gens: tuple
    n: int

    def __post_init__(self):
        if not self.gens:
            raise DomainError("an integer ideal needs at least one generator")

    @classmethod
    def from_strings(cls, texts: list[str] | str, n: int) -> "IntegerIdeal":
        if isinstance(texts, str):
            texts = split_generators(texts)
        gens = tuple(parse_int_poly(s, n) for s in texts)
        return cls(gens, n)

    def vanishes_at_origin(self) -> bool:
        zero = (0,) * self.n
        return all(g.get(zero, 0) == 0 for g in self.gens)

    def to_strings(self) -> list[str]:
        return [format_terms(g, self.n) for g in self.gens]

    def __repr__(self) -> str:
        return f"IntegerIdeal({self.to_strings()}, n={self.n})"


def reduce_mod_p(I: IntegerIdeal, p: int) -> Ideal:
    """Coefficient-wise reduction mod p; zero generators are stripped.

    Raises DegenerateReductionError when every generator dies, mirroring the
    exclusion of bad primes from a sweep.
    """
    gens = [GFPoly.make(I.n, p, g.items()) for g in I.gens]
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise DegenerateReductionError(f"all generators vanish mod {p}")
    return Ideal(gens, n=I.n, p=p)


def degree_monomials(n: int, d: int) -> list[Monomial]:
    """All exponent vectors of total degree exactly d in n variables."""
    return sorted(tuple(c.count(i) for i in range(n))
                  for c in itertools.combinations_with_replacement(range(n), d))


def truncate_ideal(a: Ideal, d: int) -> Ideal:
    """a + m^d, with m^d contributed by its degree-d monomial antichain."""
    if d < 1:
        raise DomainError("truncation order must be >= 1")
    extra = [GFPoly.from_monomial(m, a.n, a.p) for m in degree_monomials(a.n, d)]
    return Ideal(list(a.gens) + extra, n=a.n, p=a.p)


@dataclass(frozen=True)
class CorpusEntry:
    """An integer ideal with its known lct at the origin and provenance."""

    name: str
    ideal: IntegerIdeal
    lct0: Fraction
    provenance: str  # "monomial-LP" | "literature"


@cache
def _load_corpus() -> tuple[CorpusEntry, ...]:
    raw = json.loads(resources.files("fthresholds").joinpath("corpus.json").read_text())
    return tuple(CorpusEntry(item["name"], IntegerIdeal.from_strings(item["gens"], item["n"]),
                             parse_rational(item["lct0"]), item["provenance"]) for item in raw)


def corpus() -> list[CorpusEntry]:
    """The versioned list of known-lct targets shipped with the package."""
    return list(_load_corpus())
