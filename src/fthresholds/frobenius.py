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
  * Digit identity.  Let a = (g_1..g_k), J any ideal, and t the largest
    integer <= min(N, k(p-1)) with t = N (mod p).  Then

        (a^N J)^[1/p] = a^((N-t)/p) (a^t J)^[1/p].

    a^N is spanned by the products g^c with |c| = N.  Split c = p s + r with
    r in [0, p)^k: (g^(ps) g^r J)^[1/p] = g^s (g^r J)^[1/p], |r| = N (mod p)
    and |r| <= k(p-1).  As a X^[1/p] = (a^[p] X)^[1/p] lies in (a^p X)^[1/p],
    the term of each |r| = t' lies in the term of t' + p, so the largest t
    dominates and the left side lies in the right.  Conversely
    (a^((N-t)/p))^[p] lies in a^(N-t), so the right side lies in the left.
    Applied once per level, it gives (a^N)^[1/p^e] = a^M J' without ever
    expanding a^N.  For k = 1, t is the last base-p digit of N, and a^t is
    (f^t) with t < p (_PowerTable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .errors import CapacityError, DomainError, InvariantViolation
from .exact import PrimePower, prime_power
from .gfpoly import (GFPoly, drl_key, echelonize, monomials_ascending, root_echelon,
                     root_local_generators)
from .groebner import Ideal, MonomialIdeal
from .newton import NewtonPolytope, multiplier_ideal_monomial

NODE_CAP = 1_000_000
POWER_TABLE_CAP = 4_000_000


@dataclass(frozen=True)
class NuValue:
    """nu(e): the largest r with a^r not contained in m^[p^e] (0 for a = (0))."""

    q: PrimePower
    nu: int


@dataclass(frozen=True)
class FptEnclosure:
    """Rigorous interval around the F-pure threshold at the origin.

    low = nu(e)/q is a lower bound because nu(e)/p^e increases to the
    threshold; _nu_root proves the sharper nu(e)/(p^e - 1) <= fpt, which
    low does not use.  For the upper bound, let k be the number of generators: any
    product of (nu+1)q' + (k-1)(q'-1) generators contains some generator to
    the q'-th power at least nu+1 times, hence lies in (a^{nu+1})^[q'] which
    is inside m^[q q'].  Therefore nu(e+e')/p^(e+e') < (nu+k)/p^e for every
    e', and the threshold is at most high = (nu+k)/q.  For principal ideals
    (k = 1) this is the classical width-1/q enclosure.  With q' = p, and
    (a^nu)^[p] inside a^(p nu) for the lower end, it is the window
    p nu(e) <= nu(e+1) <= p nu(e) + k(p-1) that the digit-root nu scans,
    from the top or from floor((p^(e+1) - 1) lct(T)) when that is lower, T
    the ideal of all terms of the generators (see _nu_root).
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
    """ideal is tau(a^lam) when stabilized, else the chain term of level
    e_used = e_max, which lies inside it.  e_used is the last chain level
    read, 0 when none was (a monomial ideal)."""

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
    return Ideal(root_echelon(b.gens, b.n, b.p, q.q), n=b.n, p=b.p)


class _PowerTable:
    """Spanning sets of a^t, t <= k(p-1), for a = (gens) with k generators,
    each built on its first read, the lifts a^M (J) (times) and, for k = 1,
    the truncated powers (truncated_powers): the one maker and counter of
    powers of the generators.  A table serves one call, with a box for
    _nu_root and _nu_split, without one for test_ideal, and is then dropped.

    powers[t] is [f^t] for k = 1, from f.pow(t), the multinomial theorem,
    unless f.multinomial_fits(t) refuses or f.power_terms_bound(t) passes
    POWER_TABLE_CAP, else from the chain f^j = f^(j-1) f (gen_power); for
    k >= 2, the echelonized products g^c, |c| = t, of the chains' powers.
    With a `box` all are kept modulo m^[box] by GFPoly.truncate and
    mul_truncated, which alone decide how a polynomial meets the box.
    POWER_TABLE_CAP counts the terms of every entry, chain power and product
    the table keeps, as each is added, of the lift being formed until it is
    returned, and of each truncated_powers level's latest product;
    CapacityError names the power whose making passed the cap.  The digit
    root's products of entries with J are streamed, not counted.
    """

    def __init__(self, gens: list[GFPoly], box: int | None = None):
        self.gens, self.box = gens, box
        self.n, self.p = gens[0].n, gens[0].p
        one = GFPoly.one(self.n, self.p)
        self.spans = {0: [one]}
        self.gen_powers = [[one, g] for g in gens]
        self.terms = 1

    def __len__(self) -> int:
        return len(self.gens) * (self.p - 1) + 1

    def __getitem__(self, t: int) -> list[GFPoly]:
        span = self.spans.get(t)
        if span is None:
            f = self.gens[0]
            if len(self.gens) > 1:
                span = echelonize(self._products(0, t, t), self.n, self.p)
            elif f.multinomial_fits(t) and f.power_terms_bound(t) <= POWER_TABLE_CAP:
                power = f.pow(t)
                span = [power.truncate(self.box) if self.box else power]
                self._count(len(span[0]), t)
            else:
                span = [self.gen_power(0, t, t)]
            self.spans[t] = span
        return span

    def times(self, J: list[GFPoly], M: int) -> Ideal:
        """a^M (J), counted on top of the entries until returned: for k = 1
        f^M J, by its term bound before f^M is expanded, else M rounds of
        products by the generators, each round alone."""
        kept, f = self.terms, self.gens[0]
        if M and len(self.gens) == 1:
            self._count(f.power_terms_bound(M) * sum(len(g) for g in J), M)
            fM = f.pow(M)
            J = [fM * g for g in J]
        elif len(self.gens) > 1:
            for _ in range(M):
                self.terms = kept
                J = echelonize((self._mul(h, g, M) for h in self.gens for g in J), self.n, self.p)
        self.terms = kept
        return Ideal(J, n=self.n, p=self.p)

    def _count(self, terms: int, t: int) -> None:
        """Count terms against the cap as part of a^t."""
        self.terms += terms
        if self.terms > POWER_TABLE_CAP:
            raise CapacityError(f"power table cap of {POWER_TABLE_CAP} terms exceeded "
                                f"at a^{t} ({self.terms} terms)")

    def _mul(self, f: GFPoly, g: GFPoly, t: int) -> GFPoly:
        """f g, modulo m^[box] if any, counted against the cap as part of a^t."""
        product = f.mul_truncated(g, self.box) if self.box else f * g
        self._count(len(product), t)
        return product

    def gen_power(self, i: int, j: int, t: int) -> GFPoly:
        powers = self.gen_powers[i]
        while len(powers) <= j:
            powers.append(self._mul(powers[-1], powers[1], t))
        return powers[j]

    def _products(self, i: int, s: int, t: int) -> Iterator[GFPoly]:
        """Yield the products g_i^c_i ... g_k^c_k with c_i + ... + c_k = s."""
        if i == len(self.gens) - 1:
            yield self.gen_power(i, s, t)
            return
        for j in range(s + 1):
            gj = self.gen_power(i, j, t)
            for h in self._products(i + 1, s - j, t):
                yield h if j == 0 else gj if j == s else self._mul(gj, h, t)

    def truncated_powers(self, e: int, cap: Callable[[int], int]) -> Iterator[GFPoly]:
        """T_0, T_1, ... for a = (f) and the box q = p^e, e >= 1: T_k is f^k
        with every term having some exponent >= q dropped, and, when p does
        not divide k, every term of total degree > cap(k) too; f vanishes at
        the origin, as nu() requires.

        f^k lies outside m^[q] iff its truncation to the box is nonzero; that
        holds for a prefix of k, and only for k < q since f^p = f^[p] lies in
        m^[p].  The powers are built one level L = 1..e at a time by the
        Frobenius split f^(a + p b) = f^a (f^b)^[p] with 0 <= a < p: T_(a + p b)
        at level L is trunc_(p^L)(f^a * T_b^[p]) for T_b of level L - 1.  That
        is exact: a term of (f^b)^[p] leaves the box p^L iff its term of f^b
        leaves the box p^(L-1), and products only raise exponents.

        The factors f^a, a < p, are the chain (gen_power), built first.  The
        levels are chained generators (_split_level), each reading the level
        below as it goes, so beside the factors a lifted power and a product
        per level are alive.  The count holds the factors and each level's
        latest product, which replaces its level's old count: POWER_TABLE_CAP
        bounds what the levels hold at once, up to each level's truncated
        factors and lifted power.  cap(k) is asked just before T_k, p not
        dividing k, is built, so it may depend on what the caller read of
        T_0..T_(k-1).  T_(p b) = T_b^[p] needs no product and is yielded
        whole.  Level e yields at most K + p powers when T_K is the last
        nonzero truncation.
        """
        chain = [self.gen_power(0, a, a) for a in range(self.p)]
        level: Iterable[GFPoly] = chain[:1]
        for L in range(1, e):
            level = self._split_level(level, chain, L, None)
        return self._split_level(level, chain, e, cap)

    def _split_level(self, level: Iterable[GFPoly], chain: list[GFPoly], L: int,
                     cap: Callable[[int], int] | None) -> Iterator[GFPoly]:
        """T_0, T_1, ... in the box p^L from the T_b in the box p^(L-1), read
        one at a time, and the chain's f^a, a < p.

        Without cap the powers are exact and end at the first zero: f^k in
        m^[p^L] puts every higher power there too.  With cap, each product T_k
        also drops its terms of total degree > cap(k).  That removes whole
        terms and changes no kept coefficient, so it is sound only for powers
        that are read and never multiplied again: the last level.  A zero
        product then proves nothing about the next, so the level runs through
        every T_b given, and ends early only when some factor f^a itself
        leaves the box.
        """
        p, bound, held = self.p, self.p**L, 0
        factors = [fa.truncate(bound) for fa in chain[1:]]
        for b, t in enumerate(level):
            lifted = t.frobenius_power(p)  # already inside the box
            yield lifted
            for a, fa in enumerate(factors, start=1):
                if fa.is_zero:
                    return
                prod = fa.mul_truncated(lifted, bound, None if cap is None else cap(a + p * b))
                if cap is None and prod.is_zero:
                    return
                size = len(prod)
                self._count(size - held, a + p * b)
                held = size
                yield prod


def _digits(N: int, e: int, top: int, p: int) -> tuple[list[int], int]:
    """The t of the digit identity at each of e levels, and the M left, so
    that (a^N)^[1/p^e] = a^M J: at each level t is the largest integer
    <= min(M, top) with t = M (mod p), top = k(p-1), and M becomes (M - t)/p."""
    ts = []
    for _ in range(e):
        t = min(N, top)
        t -= (t - N) % p
        ts.append(t)
        N = (N - t) // p
    return ts, N


def _digit_root(powers: _PowerTable, N: int, e: int,
                J: list[GFPoly] | None = None) -> tuple[list[GFPoly], int]:
    """(J', M) with (a^N J)^[1/p^e] = a^M (J'), from powers = _PowerTable(gens
    of a): the digit identity of the module docstring, which holds for any
    start J (None: the unit ideal), once per level.

    The products h g stream into root_echelon, so only the table, the previous
    J and the basis being built are kept.  J is the full echelon of each
    level's root, since tau and froot need the ideal itself; _escapes, which
    asks only whether the root lies in m, keeps far less.
    """
    one = powers[0][0]
    n, p = one.n, one.p
    digits, M = _digits(N, e, len(powers) - 1, p)
    J = [one] if J is None else J
    for t in digits:
        if t:
            prev = J
            J = (h * g for h in powers[t] for g in prev)
        J = root_echelon(J, n, p, p)
    return J, M


def _escapes(powers: _PowerTable, r: int, level: int) -> bool:
    """Whether a^r is not contained in m^[p^level], powers = _PowerTable(gens).

    By adjunction a^r escapes iff (a^r)^[1/p^level] = a^M (J) is not inside m
    (Mustata-Takagi-Watanabe 2005), that is iff M = 0 and J is not inside m.
    The digits alone fix M, so M > 0 answers False before any product.

    Box.  Since (I + m^[Q])^[1/p] = I^[1/p] + m^[Q/p] and m^[1] = m, the
    products of step i = 0, 1, ... are needed only modulo m^[p^(level-i)],
    so every term with an exponent >= p^(level-i) is dropped.  The J of the
    previous step already lies in that box.  Every product, the last step's
    too, is GFPoly.mul_truncated, which takes the plain `*` when the factors'
    total degrees add up to less than the box.

    Local generators.  Whether J lies in m is a question at the origin:
    an ideal lies in m iff its localization at the origin lies in the
    maximal ideal there.  Frobenius roots commute with localization
    (Blickle-Mustata-Smith 2008), and so do products and sums, so two
    ideals with the same localization have roots, products with a^t and
    sums with m^[Q] with the same localization, and every later step, hence
    the answer, is unchanged when J is replaced by such an ideal.  After
    each step but the last, the rows of J's echelon are kept that are
    independent modulo the shifts x_i g (truncated to the next box Q) and
    the rows kept before them.  With I = (J) + m^[Q], every row lies in
    (kept) + m^[Q] + m I, so by Nakayama (kept) + m^[Q] and I have the same
    localization, and m^[Q] is dropped by the box anyway.  Each such step is
    one pass over term dicts, gfpoly.root_local_generators: the products'
    root pieces go into the echelon as dicts, a one-term piece (most of
    them) settled by a lookup, its pivot dicts and their shifts into the
    local test, the shifts of a one-term row again by lookups, and only the
    rows kept become polynomials.  The rows and their order are those of
    gfpoly.local_generators of the step's echelonized root.

    Last level.  With box p, (h J)^[1/p] is generated by the root pieces of
    the products h g, and the piece of x^gamma, gamma in [0, p)^n, has a
    nonzero constant term iff h g has a nonzero term x^gamma.  So the last
    step forms the products truncated to the box p and stops at the first
    nonzero one, with no root split and no echelon.
    """
    one = powers[0][0]
    p = one.p
    digits, M = _digits(r, level, len(powers) - 1, p)
    if M:
        return False
    J = [one]
    for i, t in enumerate(digits[:-1]):
        if t:
            prev, box = J, p**(level - i)
            J = (h.mul_truncated(g, box) for h in powers[t] for g in prev)
        J = root_local_generators(J, one.n, p, p**(level - i - 1))
    return any(not h.mul_truncated(g, p).is_zero for h in powers[digits[-1]] for g in J)


def _root_iterates(powers: _PowerTable, lam: Fraction, s: int, t: int) -> Iterator[tuple]:
    """(K_(j-1), K_j, K_j^[1/p^s]), j >= 1, for lam = b/(p^s (p^t - 1)), K_0 =
    a^ceil(lam p^s), K_(j+1) = (a^b K_j)^[1/p^t] and powers = _PowerTable(gens of a).
    Each K_j = a^M (J) is made once, when read, by the digit root of a^(b+M') (J')
    over t levels from K_(j-1) = a^M' (J'); its root by one over s levels."""
    J, M, b = [powers[0][0]], math.ceil(lam * powers.p**s), lam * powers.p**s * (powers.p**t - 1)
    K = powers.times(J, M)
    while True:
        J, M = _digit_root(powers, int(b) + M, t, J)
        K_prev, K = K, powers.times(J, M)
        yield K_prev, K, powers.times(*_digit_root(powers, M, s, J)) if s else K


def _power_root(a: Ideal, N: int, q: PrimePower, powers: _PowerTable | None = None) -> Ideal:
    """(a^N)^[1/q] by the digit root over `powers` (by default a new
    _PowerTable of a's generators, without a box)."""
    if N == 0:
        return Ideal([GFPoly.one(a.n, a.p)], n=a.n, p=a.p)
    if a.is_zero:
        return Ideal([], n=a.n, p=a.p)
    powers = _PowerTable(list(a.gens)) if powers is None else powers
    return powers.times(*_digit_root(powers, N, q.e))


def frobenius_root_principal_power(f: GFPoly, N: int, q: PrimePower) -> Ideal:
    """(f^N)^[1/q] without expanding f^N, one base-p digit of N at a time."""
    if N < 0:
        raise DomainError("negative power")
    if f.p != q.p:
        raise DomainError(f"field characteristic {f.p} does not match q = {q}")
    return _power_root(Ideal([f], n=f.n, p=f.p), N, q)


def _term_lct(gens: list[GFPoly]) -> Fraction:
    """lct(T) for the term ideal T of `gens`, an upper bound for fpt (the
    _nu_root docstring defines T and proves the bound).  The polytope of a
    term set is shared, so the probes of every prime build its facets once."""
    points = [m for g in gens for m in g.terms]
    W, L = NewtonPolytope.from_points(points, gens[0].n).facets
    return Fraction(min(sum(w) for w in W), L)


def _nu_root(gens: list[GFPoly], e: int) -> int:
    """nu for any generators, by the digit root.

    Lower bound.  nu(l)/(p^l - 1) <= fpt for every ideal and every l >= 1.
    Put q = p^l, v = nu(l) and N_j = v (1 + q + ... + q^(j-1)).  Since
    (a^(N_j))^[q] lies in a^(q N_j),

        (a^(N_(j+1)))^[1/q^(j+1)]  contains  (a^v (a^(N_j))^[q])^[1/q^(j+1)]
                                        =  ((a^v)^[1/q] a^(N_j))^[1/q^j].

    (a^v)^[1/q] is not inside m, so it holds a unit u of the local ring at
    the origin, and a unit factor does not change a root at the origin (roots
    commute with localization): if (a^(N_j))^[1/q^j] is not inside m, neither
    is (u a^(N_j))^[1/q^j].  By induction nu(jl) >= N_j = v (q^j - 1)/(q - 1),
    so nu(jl)/(q^j - 1) >= v/(q - 1) for every j, and the limit of
    nu(e)/p^e, which is fpt, is at least v/(q - 1).

    Upper bound.  Let T be the term ideal, generated by every term of every
    generator, and lct = min <w, 1> over the vertices w of
    Q = {w >= 0 : <w, a_j> >= 1 for every exponent a_j}, the lct of T
    (Howald 2001), read as min_k <W_k, 1> / L over the integer rows (W, L) of
    NewtonPolytope.facets.  a lies in T, so fpt(a) <= fpt(T) = lct (Hara-Yoshida
    2003, Theorem 4.8).  Level by level, if a^r escapes m^[q], so does T^r,
    so some r terms have an exponent sum v <= (q-1) 1, and for every w in Q

        r <= <w, v> <= (q-1) <w, 1>.

    Hence nu(l) <= floor((p^l - 1) lct).

    Levels.  nu(0) = 0, and p nu(l) <= nu(l+1) <= p nu(l) + k(p-1)
    (FptEnclosure with q' = p).  Each level l = 1..e scans that window with
    _escapes, from its top or from floor((p^l - 1) lct) when that is lower.
    At level 1, r = 0 always escapes (a^0 = R), so the scan finds its value.

    Closed form.  For a principal ideal (k = 1), once a level l gives
    nu(l) = (p^l - 1) lct, the two bounds meet and fpt = lct.  For principal
    f, nu(e)/p^e < fpt <= (nu(e) + 1)/p^e (FptEnclosure with k = 1), so
    nu(e) = ceil(lct p^e) - 1 and the remaining levels are skipped.  With
    k >= 2 nu is not a function of fpt (nu((x+y^2, y+x^2), 3^2) = 16, while
    fpt = lct = 2), so those ideals keep probing.

    Jump.  After level 1, when e > 1 and the closed form has not answered,
    one probe at level e comes first, at

        U = min(floor((p^e - 1) lct), p^(e-1) nu(1) + k (p^(e-1) - 1)).

    Both terms bound nu(e) from above: the first is the upper bound above,
    the second the window iterated e - 1 times, as k(p - 1) (1 + p + ... +
    p^(e-2)) = k (p^(e-1) - 1).  If a^U escapes m^[p^e], then nu(e) >= U, so
    nu(e) = U.  Otherwise nu(e) < U, and levels 2..e are scanned as above
    with the level-e cap lowered to U - 1, so that U is not probed twice.

    The powers come from a _PowerTable that builds each a^t on its first read,
    modulo m^[p^e], as every probe truncates them to m^[p^l] with l <= e.
    """
    p, k = gens[0].p, len(gens)
    powers = _PowerTable(gens, p**e)
    top = len(powers) - 1
    lct = _term_lct(gens)
    num, den = lct.numerator, lct.denominator
    caps = [(p**level - 1) * num // den for level in range(e + 1)]
    value = 0
    for level in range(1, e + 1):
        for r in range(min(p * value + top, caps[level]), p * value - 1, -1):
            if _escapes(powers, r, level):
                value = r
                break
        else:
            raise InvariantViolation("nu window lost its lower bound")
        if k == 1 and value * den == (p**level - 1) * num:
            return -(-num * p**e // den) - 1
        if level == 1 < e:
            jump = min(caps[e], p**(e - 1) * value + k * (p**(e - 1) - 1))
            if _escapes(powers, jump, e):
                return jump
            caps[e] = jump - 1
    return value


class _MonomialPacking:
    """nu_M(b): the most generators of a monomial ideal M, counted with
    repetition, whose exponent sum v satisfies v <= b componentwise.

    Closed form.  Let U be the coordinates that some generator uses and d the
    least degree of M.  When every monomial of degree d in the variables U is
    a generator (C(d + |U| - 1, d) of them), M is full, and

        nu_M(b) = floor(sum_(i in U) b_i / d).

    At most: each generator has degree >= d and lives in U, so it takes at
    least d from that sum.  At least: with s the right side, pick v <= b on U
    with |v| = s d; peeling off monomials of degree d, v is a product of s
    monomials of degree d in U, each a generator.  A full M is solved with
    no node spent; M = m^d is full.

    Every other M: branch-and-bound over the generator counts, generators
    taken by ascending degree, counts from the largest down.  A child is cut
    before it is visited when its count plus the rest of the degree budget
    over the least remaining degree cannot beat the best found; the budget
    sums b_i only over U.  No bound exceeds the root bound (that sum) // d, so
    a solve ends as soon as the best reaches it.  The generators are prepared
    once; NODE_CAP bounds all solves' nodes.
    """

    def __init__(self, points: list[tuple]):
        self.gens = sorted(set(points), key=lambda m: (sum(m), drl_key(m)))
        self.degs = [sum(m) for m in self.gens]
        self.min_degree = d = self.degs[0]
        self.used = [i for i, column in enumerate(zip(*self.gens)) if any(column)]
        self.full = self.degs.count(d) == math.comb(d + len(self.used) - 1, d)
        self.nodes = 0

    def solve(self, budget: tuple) -> int:
        if self.full:
            return sum(budget[i] for i in self.used) // self.min_degree
        gens, degs = self.gens, self.degs
        last = len(gens) - 1
        best = 0

        def rec(i: int, count: int, budget: tuple, rem: int):
            nonlocal best
            self.nodes += 1
            if self.nodes > NODE_CAP:
                raise CapacityError(f"node cap of {NODE_CAP} exceeded in monomial nu")
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

        rec(0, 0, budget, sum(budget[i] for i in self.used))
        return best


def _nu_split(f: GFPoly, points: list[tuple], n: int, p: int, e: int) -> int:
    """nu for (f) + M, M generated by the monomials `points`.

    A generator product f^i x^mu, with mu a sum of j generators of M, lies
    outside m^[q] iff some term x^c of f^i has c + mu <= q - 1 componentwise:
    multiplying by a monomial cancels nothing.  Those c are the terms of the
    truncated power T_i, so nu = max over i and c in T_i of i + nu_M(q - 1 - c).

    Every generator of M has degree at least mdeg, the least degree of M, so
    nu_M(b) <= |b| // mdeg.  A term c of T_i can therefore beat the best found
    only if i + (n(q-1) - |c|) // mdeg > best, that is only if |c| <= D_i =
    n(q-1) - mdeg (best + 1 - i).  Terms are scanned by ascending degree up to
    D_i.  For a full M that uses every coordinate, as m^d, the bound is nu_M
    itself (the closed form of _MonomialPacking): the first term of T_i read
    raises best to its bound, and D_i falls below that term's degree.
    The same D_i, taken when T_i is built, caps its degree in the levels:
    best only grows, so D_i only shrinks, and a term dropped then is past the
    scan's D_i later.  The last level's powers are multiplied by nothing, so
    dropping their terms of high degree cannot change nu.

    One _PowerTable with the box q builds the T_i and counts their factors
    f^a, a < p, and each level's latest product against POWER_TABLE_CAP.
    """
    qv = p**e
    powers = _PowerTable([f], qv)
    packing = _MonomialPacking(points)
    mdeg = packing.min_degree
    limit = n * (qv - 1)
    best = 0

    def cap(i: int) -> int:
        return limit - mdeg * (best + 1 - i)

    for i, t in enumerate(powers.truncated_powers(e, cap)):
        for c in monomials_ascending(t):
            if sum(c) > cap(i):
                break
            best = max(best, i + packing.solve(tuple(qv - 1 - x for x in c)))
    return best


def nu(a: Ideal, e: int) -> NuValue:
    """The largest r with a^r not contained in m^[p^e] (convention: 0 for a = (0)).

    Requires every generator to vanish at the origin.  The route is chosen
    on the generators as given, so the reduction below never moves an ideal
    from the digit root to the split route's search, which can meet NODE_CAP
    where the digit root answers.  When some generators are monomials, each
    other generator is then replaced by its remainder on them, which drops
    every term divisible by one of them: g - c x^m and c x^m both lie in a,
    so the ideal, hence nu, is unchanged.  A generator left a monomial joins
    them and one left zero goes.  The two exact routes:

      * at most one generator that is not a monomial, and at least one
        monomial: nu_M(q-1, ..., q-1) for M alone, else the split route
        (_nu_split) for (f) + M, truncated powers of f against nu_M, which is
        read in closed form for a full M, else by a branch-and-bound;
        POWER_TABLE_CAP bounds the factors f^a, a < p, a _PowerTable's chain,
        with each chained level's latest product, and NODE_CAP the search;
      * every other ideal: the digit root (_nu_root), over a table of a^t
        modulo m^[p^e], t <= k(p-1), whose entries are built on first read
        and whose terms are capped by POWER_TABLE_CAP.  Level 1 scans the
        window [0, k(p-1)] from the top, capped by floor((p - 1) lct) for the
        lct of the term ideal T.  A principal ideal stops at the first level
        where nu meets that cap, with the closed form ceil(lct p^e) - 1.
        Otherwise one probe at level e tries the least proved upper bound
        for nu(e) and answers when it escapes; when it does not, each level
        l = 2..e scans its window [p nu, p nu + k(p-1)] the same way.  Each
        probe is decided at the origin (_escapes): products truncated to the
        box that still matters, local generators between root steps, and a
        box test at the last step.  The _nu_root docstring proves the bounds,
        nu(l)/(p^l - 1) <= fpt <= lct, and the jump, for any generators
        of a, so for the reduced ones too: their term ideal lies in T and
        still contains a.
    """
    q = prime_power(a.p, e)
    for g in a.gens:
        if not g.vanishes_at_origin():
            raise DomainError("nu requires generators vanishing at the origin")
    if a.is_zero:
        return NuValue(q, 0)
    gens = list(a.gens)
    mono_gens = [g for g in gens if g.is_monomial()]
    split = mono_gens and len(gens) - len(mono_gens) <= 1
    if mono_gens:
        reduced = (g if g.is_monomial() else g.remainder(mono_gens) for g in gens)
        gens = [g for g in reduced if not g.is_zero]
    if not split:
        return NuValue(q, _nu_root(gens, e))
    others = [g for g in gens if not g.is_monomial()]
    monos = [g.lead_monomial() for g in gens if g.is_monomial()]
    if not others:
        return NuValue(q, _MonomialPacking(monos).solve((q.q - 1,) * a.n))
    return NuValue(q, _nu_split(others[0], monos, a.n, a.p, e))


def fpt_enclosure(a: Ideal, e: int) -> FptEnclosure:
    """[nu/q, (nu+k)/q] with k the generator count; contains the true threshold."""
    nv, k = nu(a, e), len(a.gens)
    return FptEnclosure(Fraction(nv.nu, nv.q.q), Fraction(nv.nu + k, nv.q.q), nv.q, nv.nu, k)


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


def test_ideal(a: Ideal, lam: Fraction, e_max: int) -> TestIdealResult:
    """tau(a^lam).  For a nonzero monomial ideal it is the multiplier ideal
    in every characteristic (Hara-Yoshida 2003, Theorem 4.8), read from
    Howald's formula (newton.multiplier_ideal_monomial) with no chain level:
    e_used = 0 and stabilized = True.  Otherwise it is the limit of the
    ascending chain I_e = (a^ceil(lam p^e))^[1/p^e].

    The chain is verified ascending at every step.  It stops (stabilized=True)
    only when a term is known to be the limit: a unit term, since the chain
    can only grow, or for principal ideals (f), the fixed point below.  Two
    equal consecutive terms prove nothing in general, so otherwise the chain
    runs to e_max and reports stabilized=False.

    Fixed point.  With (s, t) from _denominator_period, lam = u/p^s (t = 0)
    makes every term from level s on (f^u)^[1/p^s], which is tau(f^lam)
    (Blickle-Mustata-Smith 2008).  Otherwise lam = b/(p^s (Q - 1)), Q = p^t.
    Put M_k = ceil(lam p^s Q^k) and K_k = (f^M_k)^[1/Q^k]; the term of level
    s + tk is K_k^[1/p^s], and is made so.  As M_(k+1) = M_k + b Q^k and
    (g h^(Q^k))^[1/Q^k] = g^[1/Q^k] h, K_(k+1) = (f^b K_k)^[1/Q]
    (_root_iterates): once K_(k-1) = K_k the sequence is constant, so the
    chain, which ascends to tau(f^lam), has reached it.  As s + tk >= t, t is
    searched to e_max; no K is made before level s + t.  All levels read one
    _PowerTable of a (none for a = 0), with no box, which forms each a^M (J).
    """
    lam = Fraction(lam)
    if lam < 0:
        raise DomainError("exponent must be >= 0")
    if e_max < 1:
        raise DomainError("e_max must be >= 1")
    prime_power(a.p, e_max)  # validates p^e_max < 2^63
    gens = list(a.gens)
    if not a.is_zero and all(g.is_monomial() for g in gens):
        mono = MonomialIdeal([g.lead_monomial() for g in gens], a.n)
        return TestIdealResult(multiplier_ideal_monomial(mono, lam).to_ideal(a.p), lam, 0, True)
    powers = None if a.is_zero else _PowerTable(gens)
    s, t = _denominator_period(lam, a.p, e_max)
    fixed = _root_iterates(powers, lam, s, t) if len(gens) == 1 and t else None
    prev = None
    for e in range(1, e_max + 1):
        K = None
        if fixed is not None and e > s and (e - s) % t == 0:
            K, K_next, current = next(fixed)
        else:
            current = _power_root(a, math.ceil(lam * a.p**e), prime_power(a.p, e), powers)
        if prev is not None and not current.contains_ideal(prev):
            raise InvariantViolation("test ideal chain is not ascending")
        if (current.is_unit() or a.is_zero or (len(gens) == 1 and t == 0 and e >= s)
                or (K is not None and K.equals(K_next))):
            return TestIdealResult(current, lam, e, True)
        prev = current
    return TestIdealResult(prev, lam, e_max, False)


def fpt_point(a: Ideal, enc: FptEnclosure) -> Fraction | None:
    """fpt at the origin where its proved bounds meet, else None; enc is
    fpt_enclosure(a, e), so a caller that has the enclosure computes nu once.

    nu/(q - 1) <= fpt <= min((nu + k)/q, lct(T)), T the term ideal: the
    _nu_root docstring proves both ends (Hara-Yoshida 2003, Theorem 4.8;
    Mustata-Takagi-Watanabe 2005).  When they are equal, that value is fpt.
    When every generator is a monomial, T = a and fpt = lct(T) (same theorem).
    None claims nothing; the zero ideal, which has no T, always gives None.
    """
    if a.is_zero:
        return None
    low, lct = Fraction(enc.nu, enc.q.q - 1), _term_lct(list(a.gens))
    monomial = all(g.is_monomial() for g in a.gens)
    return lct if monomial else low if low == min(enc.high, lct) else None
