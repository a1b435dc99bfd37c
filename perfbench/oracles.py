"""Independent references for the output of every benchmark op.

None of these checks calls the code path the op timed.  Polynomials are plain
dicts {exponent tuple: coefficient mod p} multiplied by the benchmark's own
loops; Groebner bases come from sympy; thresholds of monomial ideals come from
closed forms or from the facets of the Newton polyhedron.  Each ``check_*``
returns a list of problems, empty when the output is right.

The references are exact where an exact one has a bounded cost, and
otherwise check sound inequalities:

* sweep: nu of x^a + c*y^b is exact at every q (binomial survival by Lucas'
  theorem, as a carry-free digit problem).  For other curves nu is computed
  exactly at a small level q0 = p^l from the fully expanded power, truncated
  once, and the reported nu(e) must lie in the window
  p^(e-l) nu(l) <= nu(e) <= p^(e-l) (nu(l) + 1) - 1.
* truncation: nu of a + m^d and of (f, x^v) is exact for q <= SMALL_Q.  For
  every op the truncated low bound is >= the base low bound and the table gap
  is <= n/d.
* ideal-gb: every reduced Groebner basis equals sympy's (grevlex, modulus p)
  as a set of monic polynomials; chain terms ascend; chain terms with a small
  exponent N equal the root of the expanded f^N.
* monomial: closed forms for diagonal ideals; otherwise ord_P(v) is the
  minimum of <w, v> over the vertices w of {w >= 0 : <w, a_j> >= 1}, i.e. over
  the facets of the Newton polyhedron.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

SMALL_Q = 49            # truncation ops with q <= SMALL_Q get an exact nu
SWEEP_ORACLE_Q = 30     # sweep: largest level q0 = p^l <= this (at least l = 1)
CHAIN_EXPAND_MAX = 40   # chain terms with N <= this are compared with f^N


# -- polynomial dicts --------------------------------------------------------

def pmul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = (out.get(m, 0) + ca * cb) % p
    return {m: c for m, c in out.items() if c}


def reduce_terms(terms: dict, p: int) -> dict:
    return {m: c % p for m, c in terms.items() if c % p}


def in_box(m, q: int) -> bool:
    return all(x < q for x in m)


def powers_in_box(f: dict, p: int, q: int):
    """Yield (i, surviving monomials of f^i) for i = 0, 1, ... while f^i has a
    monomial with every exponent < q.  Powers are fully expanded; the box is
    applied once to each power, never inside the products."""
    n = len(next(iter(f)))
    power = {(0,) * n: 1}
    i = 0
    while True:
        inside = [m for m in power if in_box(m, q)]
        if not inside:
            return
        yield i, inside
        power = pmul(power, f, p)
        i += 1


def principal_nu(f: dict, p: int, q: int) -> int:
    """Largest r with f^r outside m^[q], from fully expanded powers."""
    last = 0
    for i, _ in powers_in_box(f, p, q):
        last = i
    return last


def binomial_exponents(f: dict):
    """(a, b) when f = c1*x^a + c2*y^b, else None."""
    if len(f) != 2:
        return None
    (m1, m2) = sorted(f)
    if m1[0] == 0 and m2[1] == 0 and m1[1] > 0 and m2[0] > 0:
        return m2[0], m1[1]
    return None


def binomial_nu(a: int, b: int, p: int, e: int) -> int:
    """nu of x^a + c*y^b at q = p^e.

    f^r = sum_k C(r,k) c^(r-k) x^(ak) y^(b(r-k)), so f^r escapes m^[q] iff some
    k has ak <= q-1, b(r-k) <= q-1 and C(r,k) != 0 mod p; by Lucas' theorem the
    last holds iff adding k and j = r-k in base p has no carry.  So nu is the
    largest k + j with k <= K, j <= J and carry-free digits, found by a digit
    recursion from the top digit."""
    q = p ** e
    K, J = (q - 1) // a, (q - 1) // b
    kd = [(K // p ** i) % p for i in range(e)]
    jd = [(J // p ** i) % p for i in range(e)]

    @lru_cache(maxsize=None)
    def best(i: int, tk: bool, tj: bool) -> int:
        if i < 0:
            return 0
        top_k = kd[i] if tk else p - 1
        top_j = jd[i] if tj else p - 1
        value = -1
        for dk in range(top_k + 1):
            for dj in range(min(top_j, p - 1 - dk) + 1):
                v = (dk + dj) * p ** i + best(i - 1, tk and dk == kd[i], tj and dj == jd[i])
                value = max(value, v)
        return value

    return best(e - 1, True, True)


def largest_exponent(p: int, q_max: int) -> int:
    e = 1
    while p ** (e + 1) <= q_max:
        e += 1
    return e


class Oracles:
    """Reference values for one run, memoized where ops share them."""

    def __init__(self):
        self._principal: dict = {}
        self._sympy = None

    def principal(self, f: dict, p: int, e: int) -> tuple[int, int]:
        """(lo, hi) bounds on nu(f) at p^e; exact (lo == hi) for binomials and
        at the oracle level itself."""
        ab = binomial_exponents(f)
        if ab is not None:
            v = binomial_nu(ab[0], ab[1], p, e)
            return v, v
        level = min(e, largest_exponent(p, SWEEP_ORACLE_Q))
        key = (frozenset(f.items()), p, level)
        if key not in self._principal:
            self._principal[key] = principal_nu(f, p, p ** level)
        v = self._principal[key]
        scale = p ** (e - level)
        return v * scale, (v + 1) * scale - 1

    # -- sweep ---------------------------------------------------------------

    def check_sweep(self, op, out: str) -> list[str]:
        info = op.info
        data = json.loads(out)
        problems = []
        recs = data["records"]
        if [r["p"] for r in recs] != sorted(info["primes"]):
            problems.append(f"records for primes {[r['p'] for r in recs]}")
        for r in recs:
            p, e, nu = r["p"], r["e"], r["nu"]
            if e != largest_exponent(p, info["q_max"]):
                problems.append(f"p={p}: e={e}")
                continue
            f = reduce_terms(info["model"].gens[0], p)
            lo, hi = self.principal(f, p, e)
            if not lo <= nu <= hi:
                problems.append(f"p={p} e={e}: nu={nu} outside [{lo}, {hi}]")
            q = p ** e
            if Fraction(r["low"]) != Fraction(nu, q) or Fraction(r["high"]) != Fraction(nu + 1, q):
                problems.append(f"p={p}: enclosure {r['low']}, {r['high']}")
            target = info["target"]
            if target is not None and Fraction(r["gap"]) != target - Fraction(nu, q):
                problems.append(f"p={p}: gap {r['gap']}")
        if data["monotone_ok"] is not True:
            problems.append("monotone_ok is not true")
        if info["target"] is not None and data.get("below_lct_ok") is not True:
            problems.append("below_lct_ok is not true")
        return problems

    # -- truncation ----------------------------------------------------------

    def check_mixed(self, op, out) -> list[str]:
        info = op.info
        p, e, d = info["p"], info["e"], info["d"]
        q = p ** e
        f = reduce_terms(info["model"].gens[0], p)
        nu, low, high, ngens = out
        problems = []
        if ngens != 1 + (d + 1):
            problems.append(f"{ngens} generators")
        if low != Fraction(nu, q) or high != Fraction(nu + ngens, q):
            problems.append(f"enclosure [{low}, {high}] for nu={nu}")
        if q <= SMALL_Q:
            # (f) + m^d: a product f^i x^v with |v| = d*j escapes m^[q] iff some
            # monomial c of f^i inside the box has d*j <= n(q-1) - |c|.
            limit = 2 * (q - 1)
            powers = list(powers_in_box(f, p, q))
            want = max(i + (limit - min(sum(m) for m in inside)) // d for i, inside in powers)
            if nu != want:
                problems.append(f"nu={nu}, expanded products give {want}")
            base_lo = base_hi = powers[-1][0]
        else:
            base_lo, base_hi = self.principal(f, p, e)
        # a is inside a + m^d, so nu can only grow; and |fpt(a + m^d) - fpt(a)| <= n/d.
        if nu < base_lo:
            problems.append(f"truncated low {low} below base low {Fraction(base_lo, q)}")
        gap = max(low - Fraction(base_hi + 1, q), Fraction(base_lo, q) - high, Fraction(0))
        if gap > Fraction(2, d):
            problems.append(f"table gap {gap} > 2/{d}")
        return problems

    def check_two_gen(self, op, out) -> list[str]:
        info = op.info
        p, e = info["p"], info["e"]
        q = p ** e
        f, mono = (dict(g.terms) for g in info["gens"])
        (v,) = mono
        nu, low, high, ngens = out
        problems = []
        if ngens != 2 or low != Fraction(nu, q) or high != Fraction(nu + 2, q):
            problems.append(f"enclosure [{low}, {high}] with {ngens} generators")
        if q <= SMALL_Q:
            # f^i (x^v)^j escapes m^[q] iff some monomial c of f^i has c + j*v < q.
            want = max(i + max(min((q - 1 - c[k]) // v[k] for k in range(len(v)) if v[k])
                               for c in inside)
                       for i, inside in powers_in_box(f, p, q))
            if nu != want:
                problems.append(f"nu={nu}, expanded products give {want}")
        return problems

    # -- ideal-gb ------------------------------------------------------------

    def _sympy_basis(self, polys: list[dict], n: int, p: int) -> set:
        if self._sympy is None:
            import sympy
            self._sympy = sympy
        sympy = self._sympy
        gens = sympy.symbols(f"x1:{n + 1}")
        polys = [g for g in polys if g]
        if not polys:
            return set()
        F = [sympy.Poly.from_dict(g, *gens, modulus=p) for g in polys]
        G = sympy.groebner(F, *gens, modulus=p, order="grevlex")
        return {monic({tuple(m): int(c) % p for m, c in g.terms()}, p) for g in G.polys}

    def check_gb(self, op, out) -> list[str]:
        info = op.info
        gens = [dict(g.terms) for g in info["gens"]]
        return compare_bases(out, self._sympy_basis(gens, 3, info["p"]), info["p"])

    def check_froot(self, op, out) -> list[str]:
        info = op.info
        q = info["p"] ** info["e"]
        pieces = []
        for g in info["gens"]:
            buckets: dict = {}
            for m, c in g.terms.items():
                buckets.setdefault(tuple(x % q for x in m), {})[tuple(x // q for x in m)] = c
            pieces.extend(buckets.values())
        return compare_bases(out, self._sympy_basis(pieces, 3, info["p"]), info["p"])

    def check_chain(self, op, out) -> list[str]:
        info = op.info
        p, lam = info["p"], info["lam"]
        f = dict(info["f"].terms)
        problems = []
        prev = None
        for e, (basis, (contains, equals)) in enumerate(out, start=1):
            polys = [dict(t) for t in basis]
            ref = self._sympy_basis(polys, 2, p)
            problems += [f"e={e}: {s}" for s in compare_bases(basis, ref, p)]
            q = p ** e
            N = math.ceil(lam * q)
            if N <= CHAIN_EXPAND_MAX:
                power = {(0, 0): 1}
                for _ in range(N):
                    power = pmul(power, f, p)
                buckets: dict = {}
                for m, c in power.items():
                    buckets.setdefault(tuple(x % q for x in m), {})[tuple(x // q for x in m)] = c
                want = self._sympy_basis(list(buckets.values()), 2, p)
                problems += [f"e={e} root of f^{N}: {s}" for s in compare_bases(basis, want, p)]
            if prev is not None:
                joined = self._sympy_basis(polys + prev, 2, p)
                if joined != ref:
                    problems.append(f"e={e}: chain term does not contain the previous one")
                if contains is not True:
                    problems.append(f"e={e}: contains_ideal reported {contains}")
                if equals != (ref == self._sympy_basis(prev, 2, p)):
                    problems.append(f"e={e}: equals reported {equals}")
            prev = polys
        return problems

    # -- monomial ------------------------------------------------------------

    def check_monomial(self, op, out) -> list[str]:
        info = op.info
        pts, n = info["points"], info["n"]
        order = order_function(pts, n, info["diagonal"])
        if op.kind == "lct":
            want = order((1,) * n)
            return [] if out == want else [f"lct {out}, want {want}"]
        if op.kind == "mult":
            lam = info["lam"]
            cap = math.ceil(lam * max(max(pt) for pt in pts))
            members = [u for u in itertools.product(range(cap + 1), repeat=n)
                       if order(tuple(x + 1 for x in u)) > lam]
            want = minimal(members)
            got = set(out)
            return [] if got == want else [f"multiplier ideal {sorted(got)}, want {sorted(want)}"]
        if op.kind == "jumps":
            bound = info["bound"]
            cap = math.ceil(bound * max(max(pt) for pt in pts)) + 1
            values = {order(tuple(x + 1 for x in u))
                      for u in itertools.product(range(cap + 1), repeat=n)}
            want = sorted(v for v in values if 0 < v <= bound)
            return [] if list(out) == want else [f"jumps {list(out)}, want {want}"]
        if op.kind == "nu":
            want = monomial_nu(pts, n, info["q"])
            return [] if out == want else [f"nu {out}, want {want}"]
        return [f"unknown op kind {op.kind}"]

    def check(self, op, out) -> list[str]:
        if op.kind in ("lct", "mult", "jumps", "nu"):
            return self.check_monomial(op, out)
        return getattr(self, "check_" + op.kind.replace("-", "_"))(op, out)


def monic(terms: dict, p: int) -> frozenset:
    lead = max(terms, key=lambda m: (sum(m), tuple(-e for e in reversed(m))))
    inv = pow(terms[lead], -1, p)
    return frozenset((m, (c * inv) % p) for m, c in terms.items())


def compare_bases(out, ref: set, p: int) -> list[str]:
    got = {monic(dict(t), p) for t in out}
    if len(got) != len(out):
        return ["basis has repeated elements"]
    if got != ref:
        return [f"basis of {len(out)} elements differs from sympy's {len(ref)}"]
    return []


def minimal(points) -> set:
    pts = set(points)
    return {a for a in pts
            if not any(b != a and all(x <= y for x, y in zip(b, a)) for b in pts)}


def _solve(rows: list, rhs: list):
    """Exact solution of a square linear system, or None when singular."""
    n = len(rows)
    M = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if M[i][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        for i in range(n):
            if i != col and M[i][col] != 0:
                f = M[i][col] / M[col][col]
                M[i] = [x - f * y for x, y in zip(M[i], M[col])]
    return [M[i][n] / M[i][i] for i in range(n)]


def facet_normals(pts, n: int) -> list:
    """Vertices w of {w >= 0 : <w, a_j> >= 1 for every point a_j}: the facets
    <w, v> >= 1 of the Newton polyhedron that do not pass through 0.  In two
    variables these are the edges of the lower hull of the Newton polygon."""
    constraints = [(tuple(a), 1) for a in pts]
    constraints += [(tuple(int(i == j) for j in range(n)), 0) for i in range(n)]
    normals = set()
    for chosen in itertools.combinations(constraints, n):
        w = _solve([c for c, _ in chosen], [r for _, r in chosen])
        if w is None or any(x < 0 for x in w):
            continue
        if all(sum(x * y for x, y in zip(w, a)) >= 1 for a in pts):
            normals.add(tuple(w))
    return sorted(normals)


def order_function(pts, n: int, diagonal: bool):
    """v -> ord_P(v) = max{t : v in t P}."""
    if diagonal:
        exps = [max(pt) for pt in sorted(pts, key=lambda pt: [i for i, x in enumerate(pt) if x])]
        # P = {v : sum_i v_i / a_i >= 1}, so ord_P(v) = sum_i v_i / a_i.
        return lambda v: sum((Fraction(x, a) for x, a in zip(v, exps)), Fraction(0))
    normals = facet_normals(pts, n)
    return lambda v: min(sum(x * y for x, y in zip(w, v)) for w in normals)


def monomial_nu(pts, n: int, q: int) -> int:
    """Largest number of generator factors whose product has every exponent < q.

    The ideal contains a pure power x_i^(a_i) of every variable, so once the
    counts of the mixed generators are fixed, each coordinate's remaining budget
    is filled independently by its pure power."""
    pure = {}
    mixed = []
    for pt in pts:
        support = [i for i, x in enumerate(pt) if x]
        if len(support) == 1:
            i = support[0]
            pure[i] = min(pure.get(i, pt[i]), pt[i])
        else:
            mixed.append(pt)
    best = 0

    def rec(k: int, count: int, budget: list):
        nonlocal best
        if k == len(mixed):
            best = max(best, count + sum(budget[i] // pure[i] for i in range(n)))
            return
        v = mixed[k]
        c = 0
        while all(budget[i] >= c * v[i] for i in range(n)):
            rec(k + 1, count + c, [budget[i] - c * v[i] for i in range(n)])
            c += 1

    rec(0, 0, [q - 1] * n)
    return best
