"""Bracket powers, Frobenius roots, nu-invariants, fpt enclosures, test ideals.

Central facts used throughout (R = F_p[x_1..x_n], q = p^e, m = (x_1..x_n)):

  * R is free over the subring R^q with monomial basis {x^g : 0 <= g_i <= q-1},
    and coefficient q-th roots in F_p are trivial (c^p = c).  Writing a
    polynomial b = sum_g (b_g)^q x^g, the ideal generated by all b_g over all
    generators of an ideal is its Frobenius root b^[1/q]: the smallest J with
    b contained in J^[q].
  * Adjunction: b <= c^[q]  iff  b^[1/q] <= c.  In particular a^r lies outside
    m^[q] exactly when (a^r)^[1/q] is not contained in m, which is the
    membership kernel behind the nu computations at large q.
  * For principal ideals, ((f^{pN'} * g))^[1/p] = f^{N'} * (g)^[1/p], so
    (f^N)^[1/p^e] follows the base-p digits of N one level at a time without
    ever expanding f^N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, DomainError, InvariantViolation
from .exact import PrimePower, farey_below, prime_power, simplest_between
from .gfpoly import GFPoly, drl_key, echelonize, monomials_ascending, truncated_powers
from .groebner import Ideal, MonomialIdeal, ideal_equal
from .newton import multiplier_ideal_monomial

DEFAULT_DP_CAP = 200_000
DEFAULT_NODE_CAP = 1_000_000
DEFAULT_EXPANSION_CAP = 2_000


@dataclass(frozen=True)
class NuValue:
    """nu(e): the largest r with a^r not contained in m^[p^e] (0 for a = (0))."""

    q: PrimePower
    nu: int


@dataclass(frozen=True)
class FptEnclosure:
    """Rigorous interval around the F-pure threshold at the origin.

    low = nu(e)/q is a lower bound because nu(e)/p^e increases to the
    threshold.  For the upper bound, let k be the number of generators: any
    product of (nu+1)q' + (k-1)(q'-1) generators contains some generator to
    the q'-th power at least nu+1 times, hence lies in (a^{nu+1})^[q'] which
    is inside m^[q q'].  Therefore nu(e+e')/p^(e+e') < (nu+k)/p^e for every
    e', and the threshold is at most high = (nu+k)/q.  For principal ideals
    (k = 1) this is the classical width-1/q enclosure.
    """

    low: Fraction
    high: Fraction
    q: PrimePower
    nu: int
    ngens: int

    @property
    def width(self) -> Fraction:
        return self.high - self.low


@dataclass(frozen=True)
class TestIdealResult:
    ideal: Ideal
    lam: Fraction
    e_used: int
    stabilized: bool


def bracket_power(I: Ideal, q: PrimePower) -> Ideal:
    """The ideal generated by g^q over the generators g of I."""
    if I.p != q.p:
        raise DomainError(f"ambient characteristic {I.p} does not match q = {q}")
    return Ideal([g.frobenius_power(q.q) for g in I.gens], n=I.n, p=I.p)


def frobenius_root(b: Ideal, q: PrimePower) -> Ideal:
    """The smallest ideal J with b contained in J^[q]."""
    if b.p != q.p:
        raise DomainError(f"ambient characteristic {b.p} does not match q = {q}")
    gens: list[GFPoly] = []
    seen = set()
    for g in b.gens:
        for piece in g.root_pieces(q.q):
            if piece not in seen:
                seen.add(piece)
                gens.append(piece)
    return Ideal(gens, n=b.n, p=b.p)


def _poly_sort_key(g: GFPoly):
    return tuple(g.sorted_terms())


def _root_step(polys: list[GFPoly], n: int, p: int) -> list[GFPoly]:
    """One-level Frobenius root of the ideal generated by `polys`, echelonized."""
    pieces: list[GFPoly] = []
    for g in polys:
        pieces.extend(g.root_pieces(p))
    return echelonize(pieces, n, p)


def _principal_digit_root(fpowers: list[GFPoly], N: int, e: int) -> tuple[list[GFPoly], int]:
    """Generators of (f^(N mod p^e))^[1/p^e] via base-p digits; returns residue N // p^e."""
    f = fpowers[1]
    n, p = f.n, f.p
    J = [GFPoly.one(n, p)]
    M = N
    for _ in range(e):
        d = M % p
        M //= p
        prods = J if d == 0 else [fpowers[d] * g for g in J]
        J = _root_step(prods, n, p)
    return J, M


def frobenius_root_principal_power(f: GFPoly, N: int, q: PrimePower) -> Ideal:
    """(f^N)^[1/q] without expanding f^N, one base-p digit of N at a time."""
    if N < 0:
        raise DomainError("negative power")
    if f.p != q.p:
        raise DomainError(f"field characteristic {f.p} does not match q = {q}")
    if N == 0:
        return Ideal([GFPoly.one(f.n, f.p)], n=f.n, p=f.p)
    if f.is_zero:
        return Ideal([], n=f.n, p=f.p)
    fpowers = _small_powers(f)
    J, M = _principal_digit_root(fpowers, N, q.e)
    if M:
        fM = f.pow(M)
        J = [fM * g for g in J]
    return Ideal(J, n=f.n, p=f.p)


def _small_powers(f: GFPoly) -> list[GFPoly]:
    """[f^0, f^1, ..., f^(p-1)]."""
    powers = [GFPoly.one(f.n, f.p)]
    for _ in range(f.p - 1):
        powers.append(powers[-1] * f)
    return powers


def _outside_m(gens: list[GFPoly]) -> bool:
    return any(g.constant_term() for g in gens)


def _nu_principal(f: GFPoly, e: int) -> int:
    """nu for a principal ideal via digit-root membership tests.

    nu(1) is found by direct truncated probing (nu(1) <= n(p-1)); then each
    level satisfies p*nu(l) <= nu(l+1) <= p*nu(l) + p - 1: the lower bound
    because survival is preserved by p-th powers, the upper because
    f^(nu+1) in m^[q] forces f^(p(nu+1)) into m^[pq].  The window is scanned
    from the top; f^r lies outside m^[q] iff (f^r)^[1/q] has a generator with
    nonzero constant term (adjunction against m).
    """
    p = f.p
    fpowers = _small_powers(f)
    value = 0
    t = GFPoly.one(f.n, p).truncate(p)
    while True:
        t = t.mul_truncated(f, p)
        if t.is_zero:
            break
        value += 1
    for level in range(2, e + 1):
        base = p * value
        found = None
        for s in range(p - 1, -1, -1):
            gens, _ = _principal_digit_root(fpowers, base + s, level)
            if _outside_m(gens):
                found = base + s
                break
        if found is None:
            raise InvariantViolation("principal nu window lost its lower bound")
        value = found
    return value


class _MonomialPacking:
    """nu_M(b): the most generators of a monomial ideal M, counted with
    repetition, whose exponent sum v satisfies v <= b componentwise.

    Branch-and-bound over the generator counts, generators taken by ascending
    degree, counts from the largest down.  A child is cut before it is visited
    when its count plus the rest of the degree budget over the least remaining
    degree cannot beat the best found; no such bound exceeds the root bound
    |b| // (least degree), so a solve ends as soon as the best reaches it.
    The generators are prepared once; `node_cap` bounds the nodes of all the
    solves together.
    """

    def __init__(self, points: list[tuple], node_cap: int):
        self.gens = sorted(set(points), key=lambda m: (sum(m), drl_key(m)))
        self.degs = [sum(m) for m in self.gens]
        self.min_degree = self.degs[0]
        self.node_cap = node_cap
        self.nodes = 0

    def solve(self, budget: tuple) -> int:
        gens, degs = self.gens, self.degs
        last = len(gens) - 1
        best = 0

        def rec(i: int, count: int, budget: tuple, rem: int):
            nonlocal best
            self.nodes += 1
            if self.nodes > self.node_cap:
                raise CapacityError(f"node cap of {self.node_cap} exceeded in monomial nu")
            v = gens[i]
            cmax = min(b // x for b, x in zip(budget, v) if x)
            if i == last:
                best = max(best, count + cmax)
                return
            d, d_next = degs[i], degs[i + 1]
            for c in range(cmax, -1, -1):
                # The bound is nondecreasing in c since d <= d_next.
                if count + c + (rem - c * d) // d_next <= best:
                    return
                rec(i + 1, count + c, tuple(b - c * x for b, x in zip(budget, v)), rem - c * d)

        rec(0, 0, budget, sum(budget))
        return best


def _nu_split(f: GFPoly | None, points: list[tuple], n: int, p: int, e: int,
              term_cap: int, node_cap: int) -> int:
    """nu for (f) + M, M generated by the monomials `points` (f = None: M alone).

    A generator product f^i x^mu, with mu a sum of j generators of M, lies
    outside m^[q] iff some term x^c of f^i has c + mu <= q - 1 componentwise:
    multiplying by a monomial cancels nothing.  Those c are the terms of the
    truncated power T_i, so nu = max over i and c in T_i of i + nu_M(q - 1 - c).
    Terms are scanned by ascending degree while i + (n(q-1) - |c|) // (least
    degree of M), an upper bound for the rest of T_i, can beat the best.  For
    M = m^d that bound is nu_M itself, so one solve per i suffices.  The same
    bound on a lower bound for the degrees of T_i decides whether T_i is built.
    """
    qv = p**e
    packing = _MonomialPacking(points, node_cap)
    mdeg = packing.min_degree
    limit = n * (qv - 1)
    best = 0

    def wanted(i: int, low: int) -> bool:
        return i + (limit - low) // mdeg > best

    powers = [GFPoly.one(n, p)] if f is None else truncated_powers(f, e, term_cap, wanted)
    for i, t in enumerate(powers):
        if t is None:
            continue
        for c in monomials_ascending(t):
            if not wanted(i, sum(c)):
                break
            best = max(best, i + packing.solve(tuple(qv - 1 - x for x in c)))
    return best


def _nu_dp(gens: list[GFPoly], qv: int, term_cap: int) -> int:
    """Reference path: level sets of deduplicated q-truncated generator products."""
    truncated = [g.truncate(qv) for g in gens]
    level = {g for g in truncated if not g.is_zero}
    r = 0
    while level:
        r += 1
        seen = set()
        for u in level:
            for g in truncated:
                prod = u.mul_truncated(g, qv)
                if not prod.is_zero:
                    seen.add(prod)
        if len(seen) > term_cap:
            raise CapacityError(f"term-set cap of {term_cap} exceeded in nu DP")
        level = seen
    return r


def nu(a: Ideal, e: int, *, method: str = "auto", term_cap: int = DEFAULT_DP_CAP,
       node_cap: int = DEFAULT_NODE_CAP) -> NuValue:
    """The largest r with a^r not contained in m^[p^e] (convention: 0 for a = (0)).

    Requires every generator to vanish at the origin.  Three exact routes, by
    the number of generators that are not monomials:

      * one, and no monomials: the principal digit window (_nu_principal);
      * at most one, with monomials: the Frobenius-split route (_nu_split) for
        (f) + M, truncated powers of f against a branch-and-bound over the
        monomials M; term_cap bounds each power, node_cap the search;
      * two or more: the deduplicated product DP (_nu_dp), capped by term_cap.

    method="dp" sends every ideal to the DP, as a reference.
    """
    q = prime_power(a.p, e)
    for g in a.gens:
        if not g.vanishes_at_origin():
            raise DomainError("nu requires generators vanishing at the origin")
    if a.is_zero:
        return NuValue(q, 0)
    if method == "dp":
        return NuValue(q, _nu_dp(list(a.gens), q.q, term_cap))
    if method != "auto":
        raise DomainError(f"unknown nu method {method!r}")
    monos = [g.lead_monomial() for g in a.gens if g.is_monomial()]
    others = [g for g in a.gens if not g.is_monomial()]
    if len(others) > 1:
        value = _nu_dp(list(a.gens), q.q, term_cap)
    elif not monos:
        value = _nu_principal(others[0], e)
    else:
        f = others[0] if others else None
        value = _nu_split(f, monos, a.n, a.p, e, term_cap, node_cap)
    return NuValue(q, value)


def fpt_enclosure(a: Ideal, e: int, **caps) -> FptEnclosure:
    """[nu/q, (nu+k)/q] with k the generator count; contains the true threshold."""
    nv = nu(a, e, **caps)
    k = len(a.gens)
    low = Fraction(nv.nu, nv.q.q)
    high = Fraction(nv.nu + k, nv.q.q)
    return FptEnclosure(low=low, high=high, q=nv.q, nu=nv.nu, ngens=k)


def _monomial_power_root(points: list[tuple], n: int, p: int, N: int, q: PrimePower) -> Ideal:
    a = MonomialIdeal(points, n)
    return a.pow(N).floor_root(q).to_ideal(p)


def _expanded_power_root(gens: list[GFPoly], n: int, p: int, N: int, q: PrimePower,
                         cap: int) -> Ideal:
    prods = {GFPoly.one(n, p)}
    for _ in range(N):
        nxt = set()
        for u in prods:
            for g in gens:
                nxt.add(u * g)
                if len(nxt) > cap:
                    raise CapacityError(f"power expansion cap of {cap} exceeded")
        prods = nxt
    return frobenius_root(Ideal(sorted(prods, key=_poly_sort_key), n=n, p=p), q)


def _power_root(a: Ideal, N: int, q: PrimePower, cap: int) -> Ideal:
    """(a^N)^[1/q] along the cheapest applicable route."""
    if N == 0:
        return Ideal([GFPoly.one(a.n, a.p)], n=a.n, p=a.p)
    if a.is_zero:
        return Ideal([], n=a.n, p=a.p)
    if len(a.gens) == 1:
        return frobenius_root_principal_power(a.gens[0], N, q)
    if all(g.is_monomial() for g in a.gens):
        return _monomial_power_root([g.lead_monomial() for g in a.gens], a.n, a.p, N, q)
    return _expanded_power_root(list(a.gens), a.n, a.p, N, q, cap)


def _denominator_period(lam: Fraction, p: int, t_max: int) -> tuple[int, int | None]:
    """(s, t) with lam * p^s * (p^t - 1) an integer and t the order of p
    modulo the p-free part of the denominator; t = 0 when that part is 1 and
    None when the order exceeds t_max."""
    w, s = lam.denominator, 0
    while w % p == 0:
        w //= p
        s += 1
    if w == 1:
        return s, 0
    t, r = 1, p % w
    while r != 1:
        if t >= t_max:
            return s, None
        r = r * p % w
        t += 1
    return s, t


def _principal_chain_is_final(a: Ideal, lam: Fraction, e: int, cap: int,
                              chain: dict) -> bool:
    """Whether the level-e chain term of a principal ideal (f) is tau(f^lam).

    For lam = u/p^s every term from level s on is (f^u)^[1/p^s], which is
    tau(f^lam) (Blickle-Mustata-Smith 2008).  Otherwise lam = b/(p^s (Q - 1))
    with Q = p^t; put M_k = ceil(lam p^s Q^k) and K_k = (f^M_k)^[1/Q^k], so the
    level-(s + tk) term is K_k^[1/p^s].  Since M_{k+1} = M_k + b Q^k and
    (g h^(Q^k))^[1/Q^k] = g^[1/Q^k] h, the K_k obey K_{k+1} = (f^b K_k)^[1/Q]:
    once K_{k-1} = K_k the sequence is constant, so the chain, which ascends
    to tau(f^lam), has reached it.  `chain` maps levels to computed terms.
    """
    s, t = _denominator_period(lam, a.p, e)
    if t is None:
        return False
    if t == 0:
        return e >= s
    k, r = divmod(e - s, t)
    if k < 1 or r:
        return False

    def K(j: int) -> Ideal:
        if s == 0 and j * t in chain:
            return chain[j * t]
        N = math.ceil(lam * a.p**(s + j * t))
        if j == 0:
            return Ideal([a.gens[0].pow(N)], n=a.n, p=a.p)
        return _power_root(a, N, prime_power(a.p, j * t), cap)

    return ideal_equal(K(k - 1), K(k))


def test_ideal(a: Ideal, lam: Fraction, e_max: int,
               expansion_cap: int = DEFAULT_EXPANSION_CAP) -> TestIdealResult:
    """tau(a^lam) via the ascending chain I_e = (a^ceil(lam p^e))^[1/p^e].

    The chain is verified ascending at every step and reaches tau(a^lam).  It
    stops (stabilized=True) only when a term is known to be the limit: a unit
    term, since the chain can only grow; for principal ideals, the fixed point
    of _principal_chain_is_final; for monomial ideals, a term equal to the
    multiplier ideal, which is tau(a^lam) in every characteristic
    (Hara-Yoshida 2003, Theorem 4.8).  Two equal consecutive terms prove
    nothing in general, so otherwise the chain runs to e_max and reports
    stabilized=False.
    """
    lam = Fraction(lam)
    if lam < 0:
        raise DomainError("exponent must be >= 0")
    if e_max < 1:
        raise DomainError("e_max must be >= 1")
    prime_power(a.p, e_max)  # validates p^e_max < 2^63
    monomial = not a.is_zero and all(g.is_monomial() for g in a.gens)
    howald = None
    chain = {}
    prev = None
    for e in range(1, e_max + 1):
        q = prime_power(a.p, e)
        N = math.ceil(lam * q.q)
        current = _power_root(a, N, q, expansion_cap)
        chain[e] = current
        if prev is not None and not current.contains_ideal(prev):
            raise InvariantViolation("test ideal chain is not ascending")
        if current.is_unit() or a.is_zero:
            return TestIdealResult(current, lam, e, True)
        if len(a.gens) == 1 and _principal_chain_is_final(a, lam, e, expansion_cap, chain):
            return TestIdealResult(current, lam, e, True)
        if monomial:
            if howald is None:
                points = [g.lead_monomial() for g in a.gens]
                howald = multiplier_ideal_monomial(MonomialIdeal(points, a.n), lam).to_ideal(a.p)
            if ideal_equal(current, howald):
                return TestIdealResult(current, lam, e, True)
        prev = current
    return TestIdealResult(prev, lam, e_max, False)


def is_unit_ideal(I: Ideal) -> bool:
    """True iff 1 lies in I (the reduced GB contains a nonzero constant)."""
    return I.is_unit()


def proves_below_threshold(a: Ideal, lam: Fraction, e_max: int) -> bool:
    """Sound one-sided proof that lam is strictly below the threshold at 0.

    ceil(lam * p^e) <= nu(e) means a^ceil(lam p^e) escapes m^[p^e], so the
    level-e chain value escapes m and tau(a^lam) is trivial at the origin.
    Complete in the limit: any lam below the threshold is eventually caught.
    """
    lam = Fraction(lam)
    for e in range(1, e_max + 1):
        q = prime_power(a.p, e)
        if math.ceil(lam * q.q) <= nu(a, e).nu:
            return True
    return False


def fpt_point(a: Ideal, e: int, *, e_max: int = None, den_limit: int = None) -> Fraction | None:
    """Rational point value of the threshold, when the tau route confirms it.

    Takes the smallest-denominator rational in the level-e enclosure as the
    candidate; confirms that the stabilized tau at the candidate vanishes at
    the origin while the largest grid rational below it (denominators up to q)
    is provably under the threshold.  Returns None when no confirmation is
    reached.  The stabilized tau value and the below-proof are exact, but the
    step to the grid rational assumes that the denominator of the threshold is
    at most the limit, which nothing proves.
    """
    enc = fpt_enclosure(a, e)
    dlim = den_limit if den_limit is not None else enc.q.q
    cand = simplest_between(enc.low, enc.high)
    if cand.denominator > dlim or cand <= 0:
        return None
    emax = e_max if e_max is not None else max(e, 3)
    at = test_ideal(a, cand, emax)
    at_origin_proper = all(g.vanishes_at_origin() for g in at.ideal.gens)
    if not (at.stabilized and at_origin_proper):
        return None
    below = farey_below(cand, dlim)
    if below > 0 and not proves_below_threshold(a, below, emax):
        return None
    return cand
