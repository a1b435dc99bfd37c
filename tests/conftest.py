"""Shared helpers: random generators and independent brute-force oracles.

The oracles here deliberately avoid the code paths they check: truncation is
applied only once at the end (nu_dp truncates each product, which drops only
terms that no later factor can bring back), ideal powers are expanded as
explicit products, binomial survival is decided digit by digit with
Lucas' theorem, Groebner bases come from Buchberger's loop over every pair
(buchberger_all_pairs), Newton-polytope orders are solved as one exact LP
each (order_lp) instead of read off the facet normals, a nu probe keeps
the full echelon of every level's root (escapes_oracle), a root step's local
generators come from an echelon over exponent tuples with no one-term
shortcut (root_local_reference), nu_M(b) of a monomial ideal is a search
over every generator that fits (packing_oracle), the fpt of a diagonal
hypersurface is read from base-p digits (diagonal_fpt), and that of a smooth
plane cubic from its Hasse invariant (cubic_fpt).

Hypothesis runs under a derandomized profile: each test draws the same
examples on every run (seeded from the test itself), so the suite's time and
its verdicts repeat.  The per-test settings change only max_examples and
deadline.
"""

import heapq
import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Sequence

from hypothesis import settings

from fthresholds.errors import DomainError
from fthresholds.gfpoly import GFPoly, echelonize, monomial_divides, s_polynomial
from fthresholds.groebner import normal_form
from fthresholds.newton import NewtonPolytope

# pytest puts src/ on sys.path (pyproject.toml); tests that start
# `python -m fthresholds` in a subprocess need it on PYTHONPATH as well.
SRC = Path(__file__).resolve().parent.parent / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")


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


def packing_oracle(points: list[tuple], budget: tuple) -> int:
    """nu_M(b): the most monomials of `points`, with repetition, whose exponent
    sum is at most b componentwise, by trying every point that fits at every
    step (memoized on the budget left)."""

    @cache
    def most(b: tuple) -> int:
        return max((1 + most(tuple(x - y for x, y in zip(b, m))) for m in points
                    if all(y <= x for x, y in zip(b, m))), default=0)

    return most(tuple(budget))


def eager_powers(gens: list[GFPoly]) -> list[list[GFPoly]]:
    """Spanning sets of a^t for every t = 0..k(p-1), a = (gens), built in
    full by repeated multiplication by the generators: f^t for k = 1,
    echelonized products otherwise."""
    n, p = gens[0].n, gens[0].p
    powers = [[GFPoly.one(n, p)]]
    for _ in range(len(gens) * (p - 1)):
        span = [h * g for h in powers[-1] for g in gens]
        powers.append(echelonize(span, n, p) if len(gens) > 1 else span)
    return powers


def escapes_oracle(powers, r: int, level: int) -> bool:
    """Whether a^r is not contained in m^[p^level], powers[t] spanning a^t for
    t <= k(p-1): the digit root with the full echelon of every level's root,
    each step's products truncated to the box p^(level-i) that still matters,
    then a constant term of the last J (and no power of a left over)."""
    one = powers[0][0]
    n, p = one.n, one.p
    top = len(powers) - 1
    J, M = [one], r
    for i in range(level):
        t = min(M, top)
        t -= (t - M) % p
        if t:
            J = [h.mul_truncated(g, p**(level - i)) for h in powers[t] for g in J]
        J = echelonize([piece for g in J for piece in g.root_pieces(p)], n, p)
        M = (M - t) // p
    return M == 0 and any(g.constant_term() for g in J)


def expanded_power(gens: list[GFPoly], N: int) -> list[GFPoly]:
    """The distinct products of N generators, each expanded in full."""
    n, p = gens[0].n, gens[0].p
    prods = {GFPoly.one(n, p)}
    for _ in range(N):
        prods = {u * g for u in prods for g in gens}
    return list(prods)


def _binomial_nonzero_mod_p(r: int, k: int, p: int) -> bool:
    """Lucas' theorem: C(r, k) is nonzero mod p iff no base-p digit of k
    exceeds the matching digit of r."""
    while k:
        if k % p > r % p:
            return False
        r //= p
        k //= p
    return True


def cusp_nu_oracle(p: int, e: int) -> int:
    """nu of (x^2 + y^3) over F_p by binomial survival.

    f^r = sum_k C(r,k) x^(2k) y^(3(r-k)); a term survives iff 2k <= q-1,
    3(r-k) <= q-1 and C(r,k) is nonzero mod p.
    """
    q = p**e
    for r in range(q - 1, 0, -1):
        k_lo = max(0, r - (q - 1) // 3)
        k_hi = min(r, (q - 1) // 2)
        if any(_binomial_nonzero_mod_p(r, k, p) for k in range(k_lo, k_hi + 1)):
            return r
    return 0


def diagonal_fpt(exps: Sequence[int], p: int) -> Fraction:
    """fpt of x_1^a_1 + ... + x_n^a_n over F_p in closed form (Hernandez,
    "F-invariants of diagonal hypersurfaces", Proc. AMS 2015).

    Expand each 1/a_i in base p without terminating (1/2 = 0.0111..._2):
    digit j of x in (0, 1] is ceil(x p) - 1, and x p minus it is the next x.
    Let L be the last position such that at every position up to L the
    digits of the 1/a_i sum to at most p - 1.  Then fpt is the sum of the
    expansions cut after L digits, plus 1/p^L.  If no position sums past
    p - 1, it is sum 1/a_i.  The digits repeat once the tuple of the x's
    does, so the search ends.
    """
    xs = tuple(Fraction(1, a) for a in exps)
    cut, scale, seen = Fraction(0), Fraction(1), set()
    while xs not in seen:
        seen.add(xs)
        digits = [-(-x.numerator * p // x.denominator) - 1 for x in xs]
        if sum(digits) > p - 1:
            return cut + scale
        scale /= p
        cut += sum(digits) * scale
        xs = tuple(x * p - d for x, d in zip(xs, digits))
    return sum(Fraction(1, a) for a in exps)


def cubic_fpt(f: GFPoly, p: int) -> Fraction:
    """fpt of a smooth plane cubic f in x, y, z over F_p from its Hasse
    invariant (Bhatt-Singh, "The F-pure threshold of a Calabi-Yau
    hypersurface", Math. Ann. 2015): 1 when the coefficient of (xyz)^(p-1)
    in f^(p-1) is nonzero (ordinary), else 1 - 1/p (supersingular).  The
    theorem asks p to be large against the degree; callers check each value
    against the proved enclosures, so a prime it does not cover would show."""
    if f.pow(p - 1).terms.get((p - 1,) * 3, 0):
        return Fraction(1)
    return 1 - Fraction(1, p)


def buchberger_all_pairs(gens: list[GFPoly]) -> tuple[GFPoly, ...]:
    """The reduced Groebner basis by Buchberger's loop over every pair, skipping
    only pairs whose leads are coprime: the reference for the pair criteria of
    `groebner.groebner_basis`.  Pairs are taken by degrevlex of the lcm."""
    basis = [g.monic() for g in gens if not g.is_zero]

    def lcm(f, g):
        return tuple(map(max, f.lead_monomial(), g.lead_monomial()))

    heap = [(drl(lcm(basis[i], basis[j])), j, i)
            for i in range(len(basis)) for j in range(i)]
    heapq.heapify(heap)
    while heap:
        _, i, j = heapq.heappop(heap)
        f, g = basis[i], basis[j]
        if not any(a and b for a, b in zip(f.lead_monomial(), g.lead_monomial())):
            continue
        r = normal_form(s_polynomial(f, g), basis)
        if r.is_zero:
            continue
        r = r.monic()
        for t in range(len(basis)):
            heapq.heappush(heap, (drl(lcm(basis[t], r)), t, len(basis)))
        basis.append(r)
    # Reduce without the package's reduction: drop each element whose lead
    # another lead divides (of equal leads, keep the first), then replace each
    # kept g by its remainder on the others.  No other lead divides lead(g),
    # so g keeps its lead, and every tail term ends outside the lead ideal.
    leads = [g.lead_monomial() for g in basis]
    keep = [dict(g.terms.items()) for i, g in enumerate(basis)
            if not any(monomial_divides(m, leads[i]) and (m != leads[i] or j < i)
                       for j, m in enumerate(leads))]
    reduced = [ref_normal_form(g, keep[:i] + keep[i + 1:], gens[0].p)
               for i, g in enumerate(keep)]
    reduced.sort(key=lambda g: drl(max(g, key=drl)), reverse=True)
    return tuple(GFPoly.make(gens[0].n, gens[0].p, g.items()) for g in reduced)


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


def ref_add_row(pivots: dict, row: dict, p: int) -> bool:
    """Reduce `row` by the monic `pivots` (lead -> terms) with no shortcut for
    one-term rows, and add a nonzero rest as a monic pivot; return whether
    one was added."""
    work = dict(row)
    while work:
        m = max(work, key=drl)
        if m not in pivots:
            inv = pow(work[m], -1, p)
            pivots[m] = {k: c * inv % p for k, c in work.items()}
            return True
        c = work[m]
        for k, v in pivots[m].items():
            work[k] = (work.get(k, 0) - c * v) % p
            if not work[k]:
                del work[k]
    return False


def ref_linear_reduce(rows: list[dict], p: int) -> list[dict]:
    """Row echelon form: rows taken in the order given, each reduced by the
    pivots so far; the pivots are returned monic, by descending lead monomial."""
    pivots: dict = {}
    for r in rows:
        ref_add_row(pivots, r, p)
    return [pivots[m] for m in sorted(pivots, key=drl, reverse=True)]


def ref_local_generators(rows: list[dict], box: int, p: int) -> list[dict]:
    """The rows, in order, that stay independent of the shifts x_i g of every
    row g (each truncated to the box) and of the rows kept before them."""
    pivots: dict = {}
    for r in rows:
        for i in range(len(next(iter(r)))):
            shifted = {tuple(e + (j == i) for j, e in enumerate(m)): c for m, c in r.items()}
            ref_add_row(pivots, ref_truncate(shifted, box), p)
    return [r for r in rows if ref_add_row(pivots, r, p)]


def root_local_reference(polys: list[dict], p: int, box: int) -> list[dict]:
    """local_generators(echelonize(root pieces)) of the p-th root step of a
    nu probe, over exponent tuples: the pieces of each polynomial in turn
    (ref_root_pieces), their echelon, and the rows kept at the origin."""
    pieces = [piece for f in polys for piece in ref_root_pieces(f, p)]
    return ref_local_generators(ref_linear_reduce(pieces, p), box, p)


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
