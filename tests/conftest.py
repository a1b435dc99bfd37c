"""Shared helpers: random generators and independent brute-force oracles.

The oracles here deliberately avoid the code paths they check: truncation is
applied only once at the end (nu_dp truncates each product, which drops only
terms that no later factor can bring back), ideal powers are expanded as
explicit products, binomial survival is decided with exact binomial
coefficients, and Newton-polytope orders are solved as one exact LP each
(order_lp) instead of read off the facet normals.
"""

import itertools
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from fthresholds.errors import DomainError
from fthresholds.gfpoly import GFPoly
from fthresholds.newton import NewtonPolytope

# pytest puts src/ on sys.path (pyproject.toml); tests that start
# `python -m fthresholds` in a subprocess need it on PYTHONPATH as well.
SRC = Path(__file__).resolve().parent.parent / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


def rand_gfpoly(rng: random.Random, n: int, p: int, max_deg: int, max_terms: int,
                vanish: bool = False) -> GFPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(n))
        if sum(mono) > max_deg:
            continue
        if vanish and sum(mono) == 0:
            continue
        terms[mono] = rng.randint(1, p - 1)
    return GFPoly.make(n, p, terms.items())


def rand_homogeneous(rng: random.Random, n: int, p: int, deg: int) -> GFPoly:
    monos = [m for m in itertools.product(range(deg + 1), repeat=n) if sum(m) == deg]
    terms = {}
    for m in monos:
        c = rng.randint(0, p - 1)
        if c:
            terms[m] = c
    return GFPoly.make(n, p, terms.items())


def pow_truncate_oracle(f: GFPoly, r: int, qv: int) -> GFPoly:
    """Full power first, one deletion pass at the end."""
    return f.pow(r).truncate(qv)


def nu_bruteforce(gens: list[GFPoly], qv: int) -> int:
    """Largest r such that some full product of r generators survives truncation.

    Expands every generator multiset without intermediate truncation; only
    usable on tiny instances.
    """
    n, p = gens[0].n, gens[0].p
    best = 0
    r = 1
    while True:
        survivor = False
        for combo in itertools.combinations_with_replacement(gens, r):
            prod = GFPoly.one(n, p)
            for g in combo:
                prod = prod * g
            if not prod.truncate(qv).is_zero:
                survivor = True
                break
        if not survivor:
            return best
        best = r
        r += 1


def nu_dp(gens: list[GFPoly], qv: int) -> int:
    """nu by level sets of deduplicated q-truncated generator products.

    Level r holds every nonzero truncation of a product of r generators;
    nu is the last r with a nonempty level.
    """
    truncated = [g.truncate(qv) for g in gens]
    level = {g for g in truncated if not g.is_zero}
    r = 0
    while level:
        r += 1
        level = {prod for u in level for g in truncated
                 if not (prod := u.mul_truncated(g, qv)).is_zero}
    return r


def expanded_power(gens: list[GFPoly], N: int) -> list[GFPoly]:
    """The distinct products of N generators, each expanded in full."""
    n, p = gens[0].n, gens[0].p
    prods = {GFPoly.one(n, p)}
    for _ in range(N):
        prods = {u * g for u in prods for g in gens}
    return list(prods)


def cusp_nu_oracle(p: int, e: int) -> int:
    """nu of (x^2 + y^3) over F_p by exact binomial survival.

    f^r = sum_k C(r,k) x^(2k) y^(3(r-k)); a term survives iff 2k <= q-1,
    3(r-k) <= q-1 and C(r,k) is nonzero mod p.
    """
    q = p**e
    best = 0
    for r in range(q):
        k_lo = max(0, r - (q - 1) // 3)
        k_hi = min(r, (q - 1) // 2)
        for k in range(k_hi, k_lo - 1, -1):
            if math.comb(r, k) % p:
                best = r
                break
    return best


# -- tuple-dict reference for the packed GFPoly kernels ------------------------
#
# Polynomials here are plain dicts {exponent tuple: residue}.  The functions
# follow the definitions term by term, with no packing, and raise
# OverflowError for an output exponent >= 2^32 as the package does.

EXPONENT_LIMIT = 2**32


def drl(m):
    """Degrevlex key of an exponent tuple; larger key means larger monomial."""
    return (sum(m), tuple(-e for e in reversed(m)))


def _ref_out(terms: dict, p: int) -> dict:
    out = {m: c % p for m, c in terms.items() if c % p}
    for m in out:
        if max(m) >= EXPONENT_LIMIT:
            raise OverflowError(f"exponent {max(m)} >= 2^32")
    return out


def ref_mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return _ref_out(out, p)


def ref_mul_truncated(a: dict, b: dict, bound: int, p: int) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            if max(m) < bound:
                out[m] = out.get(m, 0) + c1 * c2
    return _ref_out(out, p)


def ref_truncate(a: dict, bound: int) -> dict:
    return {m: c for m, c in a.items() if max(m) < bound}


def ref_mul_term(a: dict, mono: tuple, coeff: int, p: int) -> dict:
    return _ref_out({tuple(x + y for x, y in zip(m, mono)): c * coeff for m, c in a.items()}, p)


def ref_root_pieces(a: dict, q: int) -> list[dict]:
    """a = sum_gamma (a_gamma)^q x^gamma: the a_gamma in ascending degrevlex of gamma."""
    buckets: dict = {}
    for m, c in a.items():
        buckets.setdefault(tuple(e % q for e in m), {})[tuple(e // q for e in m)] = c
    return [buckets[g] for g in sorted(buckets, key=drl)]


def ref_linear_reduce(rows: list[dict], p: int) -> list[dict]:
    """Row echelon form: distinct nonzero rows taken in descending order of
    (lead monomial, degrevlex-sorted term list), each reduced by the pivots so
    far; the pivots are returned monic, by descending lead monomial."""
    def term_list(r):
        return tuple(sorted(r.items(), key=lambda kv: drl(kv[0]), reverse=True))

    distinct = {frozenset(r.items()): r for r in rows if r}
    ordered = sorted(distinct.values(), key=lambda r: (drl(max(r, key=drl)), term_list(r)),
                     reverse=True)
    pivots: dict = {}
    for r in ordered:
        work = dict(r)
        while work:
            m = max(work, key=drl)
            if m not in pivots:
                inv = pow(work[m], -1, p)
                pivots[m] = {k: c * inv % p for k, c in work.items()}
                break
            c = work[m]
            for k, v in pivots[m].items():
                work[k] = (work.get(k, 0) - c * v) % p
                if not work[k]:
                    del work[k]
    return [pivots[m] for m in sorted(pivots, key=drl, reverse=True)]


def ref_normal_form(f: dict, divisors: list[dict], p: int) -> dict:
    """Remainder of degrevlex division of f by the divisors, taken in order."""
    leads = [(max(g, key=drl), g) for g in divisors if g]
    work = dict(f)
    rem: dict = {}
    while work:
        m = max(work, key=drl)
        c = work[m]
        for lead, g in leads:
            if all(x <= y for x, y in zip(lead, m)):
                factor = c * pow(g[lead], -1, p) % p
                shift = tuple(y - x for x, y in zip(lead, m))
                for gm, gc in g.items():
                    k = tuple(x + y for x, y in zip(gm, shift))
                    work[k] = (work.get(k, 0) - factor * gc) % p
                    if not work[k]:
                        del work[k]
                break
        else:
            rem[m] = c
            del work[m]
    return _ref_out(rem, p)


# Exact rational simplex for small linear programs: maximize c.x subject to
# A x <= b, x >= 0 with b >= 0, entirely in Fraction arithmetic.  Bland's
# anti-cycling rule guarantees termination.

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LPResult:
    status: str
    optimum: Fraction | None
    witness: tuple[Fraction, ...] | None


def simplex_max(c: Sequence, A: Sequence[Sequence], b: Sequence) -> LPResult:
    """Primal simplex from the slack basis (requires b >= 0)."""
    m = len(A)
    k = len(c)
    c = [Fraction(x) for x in c]
    b = [Fraction(x) for x in b]
    if any(x < 0 for x in b):
        raise DomainError("simplex_max requires b >= 0 (slack start)")
    if any(len(row) != k for row in A):
        raise DomainError("ragged constraint matrix")

    # Tableau columns: k structural variables then m slacks.
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(m)] + [b[i]]
            for i, row in enumerate(A)]
    cost = c + [Fraction(0)] * m + [Fraction(0)]
    basis = list(range(k, k + m))

    while True:
        enter = next((j for j in range(k + m) if cost[j] > 0), None)
        if enter is None:
            break
        # Ratio test; Bland: among the tight rows pick the smallest basic index.
        leave = None
        best = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return LPResult(UNBOUNDED, None, None)
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter]:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leave])]
        f = cost[enter]
        cost = [x - f * y for x, y in zip(cost, rows[leave])]
        basis[leave] = enter

    x = [Fraction(0)] * (k + m)
    for i, bi in enumerate(basis):
        x[bi] = rows[i][-1]
    optimum = sum((ci * xi for ci, xi in zip(c, x[:k])), Fraction(0))
    return LPResult(OPTIMAL, optimum, tuple(x[:k]))


def order_lp(P: NewtonPolytope, v: Sequence[Fraction]) -> LPResult:
    """The LP whose optimum is ord_P(v); exposes the exact witness z."""
    if P.is_empty:
        raise DomainError("empty Newton polytope")
    if len(v) != P.n:
        raise DomainError(f"vector length {len(v)} != n = {P.n}")
    v = [Fraction(x) for x in v]
    if any(x <= 0 for x in v):
        raise DomainError("order vector must be strictly positive")
    A = [[Fraction(pt[i]) for pt in P.points] for i in range(P.n)]
    c = [Fraction(1)] * len(P.points)
    return simplex_max(c, A, v)
