"""Sparse multivariate polynomials over prime fields F_p.

A polynomial is a map from monomials to coefficients, with coefficients kept
as canonical residues in [0, p) and zero coefficients never stored.  Monomial
comparisons use degrevlex throughout, so printed output and every tie-break in
the package are deterministic.

Packed monomials.  Inside this module a monomial x^e of F_p[x_1..x_n] is one
Python int (Monagan-Pearce packed exponent vectors).  Field i, counting from
the low end, holds the prefix sum S_i = e_1 + ... + e_i; the top field holds
S_n, the total degree.  So:

  * integer order is exactly degrevlex: compare S_n, then S_(n-1) = deg - e_n,
    and so on;
  * the fields are linear in the exponents, so a monomial product is one
    integer add, a shift one subtract and a q-th power one multiply;
  * the exponents are the differences of adjacent fields:
    key - ((key << w) & fields) holds e_i in field i.  On that form the box
    test "every e_i < q", divisibility and the field-wise max of an lcm are
    guard-bit tests (Monagan-Pearce), and a multiply by sum_i 2^(iw) turns the
    exponents back into prefix sums; the root split e_i = q b_i + g_i unpacks
    the fields one by one.

Field width: every stored exponent is below EXPONENT_LIMIT = 2^32, so a sum of
two stored monomials has S_i < 2n * 2^32.  Each field is w = 33 + bitlen(n)
bits wide, which holds that, so adding two monomials never carries from one
field into the next.  The top bit of a field, 2^(w-1) >= max(2^33, n * 2^32),
is above every exponent the kernels meet, so it serves as the guard bit.

Overflow rule: every product path checks its output.  A term whose degree
field is below 2^32 has no exponent >= 2^32, so only when the largest degree
reaches 2^32 are the terms unpacked, and an exponent >= 2^32 raises
OverflowError.

This module is the only one that encodes or decodes the layout.  The public
API speaks exponent tuples: `make` takes them, `terms` is a read-only view
keyed by them, and `lead_monomial`, `sorted_terms` and `str` return them.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Mapping
from typing import Iterable, Iterator

from .errors import DomainError
from .exact import is_prime

EXPONENT_LIMIT = 2**32

Monomial = tuple  # tuple[int, ...], one entry per variable


def drl_key(m: Monomial):
    """Degrevlex sort key; larger key means larger monomial."""
    return (sum(m), tuple(-e for e in reversed(m)))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


# -- packed layout -------------------------------------------------------------

def _width(n: int) -> int:
    """Bits per field; see the module docstring."""
    return 33 + n.bit_length()


def _pack(mono: Iterable[int], w: int) -> int:
    key = s = shift = 0
    for e in mono:
        s += e
        key |= s << shift
        shift += w
    return key


def _unpack(key: int, n: int, w: int) -> Monomial:
    mask = (1 << w) - 1
    out = []
    prev = 0
    for _ in range(n):
        s = key & mask
        out.append(s - prev)
        prev = s
        key >>= w
    return tuple(out)


def _guards(n: int, w: int) -> tuple[int, int]:
    """(fields, guards): the mask of all n fields, and the top bit of each.

    For a key, key - ((key << w) & fields) holds e_i in field i (the prefix
    sums never decrease, so nothing borrows).
    """
    fields = (1 << (n * w)) - 1
    return fields, (fields // ((1 << w) - 1)) << (w - 1)


def _box(bound: int, n: int, w: int) -> tuple[int, int, int]:
    """(fields, bias, guards) for the test "every exponent is below bound" on
    a stored monomial or a sum of two, whose exponents are below 2^33.

    Adding bias to the exponent form puts e_i + 2^(w-1) - bound in field i,
    which has its guard bit set iff e_i >= bound and never carries.  So key is
    in the box iff not (key - ((key << w) & fields) + bias) & guards.
    """
    fields, guards = _guards(n, w)
    guard = 1 << (w - 1)
    bound = max(0, min(bound, guard))  # every exponent is below 2^33 <= guard
    return fields, (guards >> (w - 1)) * (guard - bound), guards


def _check_range(terms: dict, n: int, w: int) -> None:
    """Raise OverflowError when some term has an exponent >= EXPONENT_LIMIT."""
    if terms and max(terms) >> ((n - 1) * w) >= EXPONENT_LIMIT:
        for key in terms:
            for e in _unpack(key, n, w):
                if e >= EXPONENT_LIMIT:
                    raise OverflowError(f"exponent {e} >= 2^32")


def _lcm(a: int, b: int, n: int, w: int) -> int:
    """lcm of two stored monomials, packed.

    In field i, (ea | guards) - eb is e_i(a) - e_i(b) + 2^(w-1), whose guard
    bit is set iff e_i(a) >= e_i(b); that bit, less itself shifted down to the
    bottom of the field, masks the field in which a holds the max.  The max
    exponents times sum_i 2^(iw) are their prefix sums, which stay below
    n * 2^32 < 2^(w-1), so no field carries; the mask drops the fields above n.
    """
    fields, guards = _guards(n, w)
    ea = a - ((a << w) & fields)
    eb = b - ((b << w) & fields)
    ge = ((ea | guards) - eb) & guards
    top = eb ^ ((ea ^ eb) & (ge - (ge >> (w - 1))))
    return (top * (guards >> (w - 1))) & fields


def _divides(a: int, b: int, n: int, w: int) -> bool:
    """True iff the stored monomial a divides the stored monomial b: field i
    of (eb | guards) - ea is e_i(b) - e_i(a) + 2^(w-1), with its guard bit set
    iff e_i(a) <= e_i(b)."""
    fields, guards = _guards(n, w)
    ea = a - ((a << w) & fields)
    eb = b - ((b << w) & fields)
    return ((eb | guards) - ea) & guards == guards


def _drop_zeros(terms: dict) -> dict:
    """Delete the terms whose coefficient cancelled to 0, in place; return terms."""
    if 0 in terms.values():
        for k in [k for k, c in terms.items() if not c]:
            del terms[k]
    return terms


class _TermView(Mapping):
    """Read-only view of a polynomial's terms keyed by exponent tuples.

    It decodes on access and stores nothing, so a polynomial's memory stays its
    packed dict alone, and `len` costs nothing.
    """

    __slots__ = ("_poly",)

    def __init__(self, poly: "GFPoly"):
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly)

    def __iter__(self) -> Iterator[Monomial]:
        n = self._poly.n
        w = _width(n)
        return (_unpack(k, n, w) for k in self._poly._terms)

    def __getitem__(self, mono) -> int:
        n = self._poly.n
        if (not isinstance(mono, tuple) or len(mono) != n
                or not all(0 <= e < EXPONENT_LIMIT for e in mono)):
            raise KeyError(mono)
        return self._poly._terms[_pack(mono, _width(n))]

    def items(self) -> list[tuple[Monomial, int]]:
        n = self._poly.n
        w = _width(n)
        return [(_unpack(k, n, w), c) for k, c in self._poly._terms.items()]

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class GFPoly:
    """Immutable sparse polynomial in F_p[x_1..x_n]."""

    __slots__ = ("n", "p", "_terms", "_hash")

    def __init__(self, n: int, p: int, terms: dict):
        # Internal constructor: `terms` maps packed monomials to canonical
        # nonzero residues, every exponent below EXPONENT_LIMIT.
        self.n = n
        self.p = p
        self._terms = terms
        self._hash = None

    @classmethod
    def make(cls, n: int, p: int, items: Iterable[tuple[Monomial, int]]) -> "GFPoly":
        """Build from (monomial, coefficient) pairs, reducing mod p and merging."""
        if n < 1:
            raise DomainError(f"need at least one variable, got n={n}")
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        w = _width(n)
        terms: dict = {}
        for mono, coeff in items:
            mono = tuple(mono)
            if len(mono) != n:
                raise DomainError(f"monomial {mono} has {len(mono)} exponents, expected {n}")
            for e in mono:
                if e < 0:
                    raise DomainError(f"negative exponent in {mono}")
                if e >= EXPONENT_LIMIT:
                    raise OverflowError(f"exponent {e} >= 2^32")
            key = _pack(mono, w)
            c = (terms.get(key, 0) + coeff) % p
            if c:
                terms[key] = c
            elif key in terms:
                del terms[key]
        return cls(n, p, terms)

    @classmethod
    def zero(cls, n: int, p: int) -> "GFPoly":
        return cls.make(n, p, ())

    @classmethod
    def one(cls, n: int, p: int) -> "GFPoly":
        return cls.constant(1, n, p)

    @classmethod
    def constant(cls, c: int, n: int, p: int) -> "GFPoly":
        return cls.make(n, p, [((0,) * n, c)])

    @classmethod
    def variable(cls, i: int, n: int, p: int) -> "GFPoly":
        """The variable x_{i+1} (0-based index i)."""
        if not 0 <= i < n:
            raise DomainError(f"variable index {i} out of range for n={n}")
        mono = tuple(1 if j == i else 0 for j in range(n))
        return cls.make(n, p, [(mono, 1)])

    @classmethod
    def from_monomial(cls, mono: Monomial, n: int, p: int, coeff: int = 1) -> "GFPoly":
        return cls.make(n, p, [(tuple(mono), coeff)])

    @property
    def terms(self) -> Mapping:
        """The terms as a read-only mapping from exponent tuples to coefficients."""
        return _TermView(self)

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def constant_term(self) -> int:
        return self._terms.get(0, 0)

    def vanishes_at_origin(self) -> bool:
        return self.constant_term() == 0

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(self._terms) >> ((self.n - 1) * _width(self.n))

    def lead_monomial(self) -> Monomial:
        if not self._terms:
            raise DomainError("zero polynomial has no lead monomial")
        return _unpack(max(self._terms), self.n, _width(self.n))

    def lead_coeff(self) -> int:
        if not self._terms:
            raise DomainError("zero polynomial has no lead monomial")
        return self._terms[max(self._terms)]

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in descending degrevlex order."""
        n = self.n
        w = _width(n)
        return [(_unpack(k, n, w), c) for k, c in sorted(self._terms.items(), reverse=True)]

    def _check_ambient(self, other: "GFPoly"):
        if self.n != other.n or self.p != other.p:
            raise DomainError(
                f"ambient mismatch: (n={self.n}, p={self.p}) vs (n={other.n}, p={other.p})"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, GFPoly):
            return NotImplemented
        return self.n == other.n and self.p == other.p and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.p, frozenset(self._terms.items())))
        return self._hash

    def __add__(self, other: "GFPoly") -> "GFPoly":
        self._check_ambient(other)
        terms = dict(self._terms)
        p = self.p
        for m, c in other._terms.items():
            v = (terms.get(m, 0) + c) % p
            if v:
                terms[m] = v
            elif m in terms:
                del terms[m]
        return GFPoly(self.n, p, terms)

    def __neg__(self) -> "GFPoly":
        p = self.p
        return GFPoly(self.n, p, {m: p - c for m, c in self._terms.items()})

    def __sub__(self, other: "GFPoly") -> "GFPoly":
        return self + (-other)

    def scale(self, c: int) -> "GFPoly":
        c %= self.p
        if c == 0:
            return GFPoly.zero(self.n, self.p)
        return GFPoly(self.n, self.p, {m: (v * c) % self.p for m, v in self._terms.items()})

    def monic(self) -> "GFPoly":
        if self.is_zero:
            return self
        inv = pow(self.lead_coeff(), -1, self.p)
        return self.scale(inv)

    def mul_term(self, mono: Monomial, coeff: int) -> "GFPoly":
        """Multiply by a single term coeff * x^mono."""
        p = self.p
        coeff %= p
        if coeff == 0 or not self._terms:
            return GFPoly.zero(self.n, p)
        for e in mono:
            if e >= EXPONENT_LIMIT:
                raise OverflowError(f"exponent {e} >= 2^32")
        n = self.n
        w = _width(n)
        shift = _pack(mono, w)
        out = {m + shift: (c * coeff) % p for m, c in self._terms.items()}
        _check_range(out, n, w)
        return GFPoly(n, p, out)

    def __mul__(self, other: "GFPoly") -> "GFPoly":
        self._check_ambient(other)
        if self.is_zero or other.is_zero:
            return GFPoly.zero(self.n, self.p)
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out: dict = {}
        get = out.get
        p = self.p
        for m2, c2 in b.items():
            for m1, c1 in a.items():
                mm = m1 + m2
                out[mm] = (get(mm, 0) + c1 * c2) % p
        _drop_zeros(out)
        _check_range(out, self.n, _width(self.n))
        return GFPoly(self.n, self.p, out)

    def mul_truncated(self, other: "GFPoly", bound: int,
                      max_degree: int | None = None) -> "GFPoly":
        """Product with every term having some exponent >= bound dropped, and,
        when max_degree is given, every term of total degree > max_degree too.

        Deletion happens inside the accumulation loop; sound because exponents
        only grow under multiplication, so a dropped term can never contribute
        to a surviving one later.  The degree bound gives no such guarantee: a
        product truncated by degree is exact in the degrees it keeps, but it is
        no truncated power to multiply again.

        Without max_degree, when the factors' total degrees add up to less than
        bound, no exponent can reach it, and the product is the plain `*`;
        otherwise top = 2^(nw), above every key sum, so the loop never breaks.

        The top field of a key is its total degree, so a product key m1 + m2 is
        within the degree bound iff it is below top = (max_degree + 1) << (n-1)w.
        Then m1 is below top minus the least key of the other factor, and m2
        likewise; each factor keeps only those keys, sorted ascending, and the
        inner loop stops at the first product key past top.  Every pair whose
        product is kept is still visited, so the kept coefficients are exact.
        """
        self._check_ambient(other)
        n, p = self.n, self.p
        w = _width(n)
        a, b = self._terms.items(), other._terms.items()
        if max_degree is None:
            if self.total_degree() + other.total_degree() < bound:
                return self * other
            top = 1 << (n * w)
        else:
            top = (max_degree + 1) << ((n - 1) * w)
            # An empty factor leaves the loops empty whatever its least key.
            low_a, low_b = min(self._terms, default=0), min(other._terms, default=0)
            if low_a + low_b >= top:
                return GFPoly.zero(n, p)
            top_a, top_b = top - low_b, top - low_a
            a = sorted([(m, c) for m, c in a if m < top_a])
            b = sorted([(m, c) for m, c in b if m < top_b])
        fields, bias, guards = _box(bound, n, w)
        out: dict = {}
        get = out.get
        for m1, c1 in a:
            for m2, c2 in b:
                mm = m1 + m2
                if mm >= top:
                    break
                if (mm - ((mm << w) & fields) + bias) & guards:
                    continue
                out[mm] = (get(mm, 0) + c1 * c2) % p
        _drop_zeros(out)
        _check_range(out, n, w)
        return GFPoly(n, p, out)

    def pow(self, r: int) -> "GFPoly":
        """self^r, one base-p digit of r at a time.

        Over F_p, f^(p^d) = f^[p^d], the lift sum c x^(p^d a) of f = sum c x^a
        (Lucas: every other multinomial coefficient vanishes mod p).  So with
        r = sum_d r_d p^d, f^r is the `*`-product of the lifted digit powers
        (f^(r_d))^[p^d], and only powers f^t with t < p are ever expanded.

        Such an f^t comes from the multinomial theorem: for f = sum_i c_i
        x^(a_i) with s terms, f^t is the sum over the compositions b of t
        into s parts of t!/(b_1! ... b_s!) prod_i c_i^(b_i) x^(sum_i b_i a_i),
        and every b_i! is a unit mod p as b_i <= t < p (`_multinomial_power`).
        The guard `multinomial_fits` takes that route only while the
        C(t + s - 1, s - 1) compositions stay within the term pairs the chain
        f^(u+1) = f^u f can visit, s * sum_(u < t) C(u deg f + n, n).
        Otherwise, as for a dense f with many terms at a large p, f^t comes
        from that chain, shared by every digit.
        """
        if r < 0:
            raise DomainError("negative power")
        n, p = self.n, self.p
        if r == 0:
            return GFPoly.one(n, p)
        if not self._terms:
            return self
        chain = [self]  # chain[u - 1] = f^u
        result = None
        qv = 1
        while r:
            r, t = divmod(r, p)
            if t:
                if self.multinomial_fits(t):
                    piece = self._multinomial_power(t)
                else:
                    while len(chain) < t:
                        chain.append(chain[-1] * self)
                    piece = chain[t - 1]
                if qv > 1:
                    piece = piece.frobenius_power(qv)
                result = piece if result is None else result * piece
            qv *= p
        return result

    def multinomial_fits(self, t: int) -> bool:
        """Whether f^t, 0 < t < p, is to come from the multinomial theorem.

        With s terms, its C(t + s - 1, s - 1) compositions of t must be at most
        s * sum_(u < t) C(u deg f + n, n), the term pairs that the chain
        f^(u+1) = f^u f can visit, as f^u has at most C(u deg f + n, n) terms.
        A dense f with many terms at a large p fails that: a 14-term quartic
        in two variables at p = 101 has about 3.8e16 compositions of 100
        against a chain bound of about 3.7e7.  t deg f must also stay below
        EXPONENT_LIMIT, so that every monomial the theorem forms is in range;
        the chain checks its own products for overflow.
        """
        s, deg, n = len(self._terms), self.total_degree(), self.n
        if t * deg >= EXPONENT_LIMIT:
            return False
        compositions = math.comb(t + s - 1, s - 1)
        bound = 0
        for u in range(t):
            bound += s * math.comb(u * deg + n, n)
            if bound >= compositions:
                return True
        return False

    def power_terms_bound(self, r: int) -> int:
        """A bound on the terms of f^r, f nonzero with s terms: f^r is the
        product of the lifts (f^t)^[p^d] over r's base-p digits t, each with
        the terms of f^t, at most C(t + s - 1, t) and C(t deg f + n, n)."""
        s, deg, n = len(self._terms), self.total_degree(), self.n
        bound, rest = 1, r
        while rest:
            rest, t = divmod(rest, self.p)
            bound *= min(math.comb(t + s - 1, t), math.comb(t * deg + n, n))
        return bound

    def _multinomial_power(self, t: int) -> "GFPoly":
        """f^t for 0 < t < p by the multinomial theorem.

        f^t / t! is the coefficient of z^t in prod_i exp(z c_i x^(a_i)) over
        the terms c_i x^(a_i) of f, and every a! with a <= t < p is a unit
        mod p.  The product is taken one term at a time and cut at z^t:
        levels[j] holds its coefficient of z^j, and a factors of a term move
        level j up to j + a and shift its keys by a times the term's key (the
        keys are linear).  The last two terms are taken together, a and
        t - j - a factors, so that step visits each of the C(t + s - 1, s - 1)
        compositions of t once, and the steps before it fewer pairs.  Every
        key met has degree at most t deg f < EXPONENT_LIMIT, so no field
        carries.
        """
        if t == 1:
            return self
        n, p = self.n, self.p
        items = list(self._terms.items())
        if len(items) == 1:
            (key, c), = items
            return GFPoly(n, p, {t * key: pow(c, t, p)})
        fact = 1
        for a in range(2, t + 1):
            fact = fact * a % p
        inv = [1] * (t + 1)  # inv[a] = 1/a! mod p
        inv[t] = pow(fact, -1, p)
        for a in range(t, 1, -1):
            inv[a - 1] = inv[a] * a % p
        series = []  # per term: (a key, c^a / a!) for a = 0..t
        for key, c in items:
            steps, ca = [], 1
            for a in range(t + 1):
                steps.append((a * key, ca * inv[a] % p))
                ca = ca * c % p
            series.append(steps)
        *head, first, second = series
        levels: list = [{shift: w} for shift, w in head.pop(0)] if head else [{0: 1}]
        for steps in head:
            grown: list = [{} for _ in range(t + 1)]
            for j, level in enumerate(levels):
                for a in range(t + 1 - j):
                    shift, w = steps[a]
                    target = grown[j + a]
                    get = target.get
                    for m, v in level.items():
                        m += shift
                        target[m] = (get(m, 0) + v * w) % p
            levels = grown
        out: dict = {}
        get = out.get
        for j, level in enumerate(levels):
            for a in range(t + 1 - j):
                (shift1, w1), (shift2, w2) = first[a], second[t - j - a]
                shift, w = shift1 + shift2, w1 * w2 * fact % p
                for m, v in level.items():
                    m += shift
                    out[m] = (get(m, 0) + v * w) % p
        return GFPoly(n, p, _drop_zeros(out))

    def truncate(self, bound: int) -> "GFPoly":
        """Drop every term having some exponent >= bound; self itself when no
        term has one, at once when the total degree is below bound."""
        if self.total_degree() < bound:
            return self
        n = self.n
        w = _width(n)
        fields, bias, guards = _box(bound, n, w)
        kept = {m: c for m, c in self._terms.items()
                if not (m - ((m << w) & fields) + bias) & guards}
        return self if len(kept) == len(self._terms) else GFPoly(n, self.p, kept)

    def frobenius_power(self, qv: int) -> "GFPoly":
        """self^q for q a power of p: (sum c x^a)^q = sum c x^(q a) over F_p."""
        n = self.n
        w = _width(n)
        if self.total_degree() * qv < EXPONENT_LIMIT:
            return GFPoly(n, self.p, {m * qv: c for m, c in self._terms.items()})
        # Too large to multiply the packed keys: let `make` raise OverflowError.
        return GFPoly.make(n, self.p, [(tuple(e * qv for e in _unpack(m, n, w)), c)
                                       for m, c in self._terms.items()])

    def root_pieces(self, qv: int) -> list["GFPoly"]:
        """Split self = sum_gamma (g_gamma)^q * x^gamma, 0 <= gamma_i < q; return
        the nonzero g_gamma in ascending degrevlex order of gamma."""
        return [GFPoly(self.n, self.p, piece) for piece in _root_split(self._terms, self.n, qv)]

    def remainder(self, basis: Iterable["GFPoly"]) -> "GFPoly":
        """Remainder of multivariate division by `basis` under degrevlex.

        No term of the result is divisible by the lead monomial of any divisor.
        """
        n, p = self.n, self.p
        w = _width(n)
        fields, guards = _guards(n, w)
        divisors = []
        for g in basis:
            if g._terms:
                lead = max(g._terms)
                divisors.append((lead - ((lead << w) & fields), lead,
                                 pow(g._terms[lead], -1, p), g._terms))
        if not divisors or not self._terms:
            return self
        work = dict(self._terms)
        remainder: dict = {}
        while work:
            m = max(work)
            c = work[m]
            # Field i of em - lead_exps is e_i(m) - e_i(lead) + 2^(w-1): no
            # carries, as every exponent here is at most deg(self) < 2^(w-1).
            em = m - ((m << w) & fields) + guards
            for lead_exps, lead, inv, gterms in divisors:
                if (em - lead_exps) & guards == guards:
                    shift = m - lead
                    factor = (c * inv) % p
                    for gm, gc in gterms.items():
                        mm = gm + shift
                        v = (work.get(mm, 0) - factor * gc) % p
                        if v:
                            work[mm] = v
                        elif mm in work:
                            del work[mm]
                    break
            else:
                remainder[m] = c
                del work[m]
        _check_range(remainder, n, w)
        return GFPoly(n, p, remainder)

    def __str__(self) -> str:
        from .parsing import format_terms

        return format_terms(self.terms, self.n)

    def __repr__(self) -> str:
        return f"GFPoly({self}, n={self.n}, p={self.p})"


def update_pairs(pairs: list, leads: list[int], h: GFPoly) -> None:
    """The Gebauer-Moller update of an S-pair heap for h joining a basis.

    `leads` holds the packed lead monomials of the basis, and `pairs` is a heap
    of (lcm, i, j), i < j, lcm the packed lcm of leads i and j; packed keys
    compare as degrevlex.  Old pairs that the B-criterion drops leave the heap,
    the new pairs (t, j), j = len(leads), that the chain and product criteria
    keep join it, and h's lead is appended to `leads`.  The criteria and why
    they are safe: `groebner.groebner_basis`.
    """
    n = h.n
    w = _width(n)
    lead = max(h._terms)
    lcms = [_lcm(g, lead, n, w) for g in leads]
    coprime = [m == g + lead for m, g in zip(lcms, leads)]
    # B-criterion: drop (g1, g2) when LM(h) divides their lcm and lcm(g1, h),
    # lcm(g2, h) both differ from it.
    pairs[:] = [pair for pair in pairs
                if not (_divides(lead, pair[0], n, w)
                        and lcms[pair[1]] != pair[0] != lcms[pair[2]])]
    # Chain criterion: drop a new pair whose lcm some other new pair's lcm
    # divides, among the new pairs not yet dropped.  A divisor is never larger
    # in a monomial order, hence the cheap test first.  Coprime pairs are
    # witnesses here and are dropped after (product criterion).
    alive = set(range(len(leads)))
    for t, m in enumerate(lcms):
        if not coprime[t] and any(s != t and lcms[s] <= m and _divides(lcms[s], m, n, w)
                                  for s in alive):
            alive.discard(t)
    j = len(leads)
    pairs.extend((lcms[t], t, j) for t in alive if not coprime[t])
    heapq.heapify(pairs)
    leads.append(lead)


def s_polynomial(f: GFPoly, g: GFPoly) -> GFPoly:
    """lcm/LT(f) * f - lcm/LT(g) * g for the lcm of the two lead monomials."""
    n, p = f.n, f.p
    w = _width(n)
    lf, lg = max(f._terms), max(g._terms)
    lcm = _lcm(lf, lg, n, w)
    return (f.mul_term(_unpack(lcm - lf, n, w), pow(f._terms[lf], -1, p))
            - g.mul_term(_unpack(lcm - lg, n, w), pow(g._terms[lg], -1, p)))


def _root_split(terms: dict, n: int, qv: int) -> list[dict]:
    """The term dicts of the g_gamma in terms = sum_gamma (g_gamma)^q x^gamma,
    0 <= gamma_i < q, in ascending degrevlex order of gamma; every g_gamma
    is nonzero, and each dict is new."""
    w = _width(n)
    mask = (1 << w) - 1
    shifts = range(0, n * w, w)
    buckets: dict = {}
    for m, c in terms.items():
        gamma = sg = prev = 0
        for shift in shifts:
            s = (m >> shift) & mask
            sg += (s - prev) % qv
            prev = s
            gamma |= sg << shift
        # The fields are linear: m = q * beta + gamma with no carries.
        beta = (m - gamma) // qv
        bucket = buckets.get(gamma)
        if bucket is None:
            buckets[gamma] = {beta: c}
        else:
            bucket[beta] = c
    return [buckets[g] for g in sorted(buckets)]


def _add_row(pivots: dict, terms: dict, p: int) -> bool:
    """Reduce the row `terms` by the echelon `pivots`, which maps each pivot's
    lead to its monic terms, and add a nonzero rest as a new pivot.  Return
    whether it added one (False: the row lay in the span of the pivots).

    `terms` is read, never changed.  A one-term row c x^m, as most root
    pieces of a nu probe are, is settled by one lookup: with no pivot at m
    it becomes the pivot {m: 1}, and a one-term pivot at m, which is x^m,
    spans it.  Those are the pivots and answers of the general loop below,
    which runs for it only when the pivot at m has other terms.
    """
    if len(terms) == 1:
        m, = terms
        piv = pivots.get(m)
        if piv is None:
            pivots[m] = {m: 1}
            return True
        if len(piv) == 1:
            return False
    work = dict(terms)
    while work:
        m = max(work)
        piv = pivots.get(m)
        if piv is None:
            inv = pow(work[m], -1, p)
            pivots[m] = {mm: (cc * inv) % p for mm, cc in work.items()}
            return True
        c = work[m]
        for mm, cc in piv.items():
            v = (work.get(mm, 0) - c * cc) % p
            if v:
                work[mm] = v
            elif mm in work:
                del work[mm]
    return False


def _echelon(rows: Iterable[dict], p: int) -> list[dict]:
    """The pivots of the rows, added in the order given by _add_row, as monic
    term dicts in descending degrevlex order of their leads."""
    pivots: dict = {}
    for terms in rows:
        _add_row(pivots, terms, p)
    return [pivots[m] for m in sorted(pivots, reverse=True)]


def echelonize(polys: Iterable[GFPoly], n: int, p: int) -> list[GFPoly]:
    """Echelonize a generating set over F_p (same ideal, bounded count).

    Rows are combined linearly only, so the span (hence the ideal) is
    unchanged while the number of generators drops to at most the dimension
    of the ambient coefficient space.  Rows are taken in the order given, each
    reduced by the pivots so far; a row already in their span, such as a
    repeated row, reduces to zero.  Which rows become pivots depends on the
    order; the span does not.  The pivots come back monic, in descending
    degrevlex order of their lead monomials.  The echelon works on the term
    dicts (_echelon), with a one-term row settled by a lookup (_add_row).
    """
    return [GFPoly(n, p, t) for t in _echelon((g._terms for g in polys), p)]


def _root_rows(polys: Iterable[GFPoly], n: int, qv: int) -> Iterator[dict]:
    """The term dicts of the root pieces of each polynomial in turn, each
    polynomial's in ascending order of gamma (GFPoly.root_pieces)."""
    return itertools.chain.from_iterable(_root_split(g._terms, n, qv) for g in polys)


def root_echelon(polys: Iterable[GFPoly], n: int, p: int, qv: int) -> list[GFPoly]:
    """The q-th Frobenius root, q = qv, of the ideal generated by `polys`,
    echelonized: echelonize of their root pieces, polynomial by polynomial.
    `polys` is read once, and each polynomial's pieces go straight into the
    echelon as term dicts, so only the current basis is kept and no piece
    becomes a GFPoly."""
    return [GFPoly(n, p, t) for t in _echelon(_root_rows(polys, n, qv), p)]


def _local_rows(rows: list[dict], n: int, p: int, box: int) -> list[dict]:
    """The rows of local_generators, as term dicts: the rows that stay
    independent modulo the boxed shifts of every row and the rows kept
    before them.  The shifts of a one-term row c x^m are the one-term rows
    c x_i x^m inside the box, each settled by _add_row's lookup."""
    w = _width(n)
    fields, bias, guards = _box(box, n, w)
    shifts = [_pack([0] * i + [1] + [0] * (n - 1 - i), w) for i in range(n)]
    pivots: dict = {}
    for terms in rows:
        if len(terms) == 1:
            (m, c), = terms.items()
            for shift in shifts:
                mm = m + shift
                if not (mm - ((mm << w) & fields) + bias) & guards:
                    _add_row(pivots, {mm: c}, p)
            continue
        for shift in shifts:
            _add_row(pivots, {mm: c for m, c in terms.items()
                              if not ((mm := m + shift) - ((mm << w) & fields) + bias) & guards},
                     p)
    return [terms for terms in rows if _add_row(pivots, terms, p)]


def local_generators(rows: list[GFPoly], box: int) -> list[GFPoly]:
    """The rows, taken in the order given, that stay independent modulo V
    plus the rows kept before them; V is spanned by the shifts x_i g of every
    row g, with every term having some exponent >= box dropped.

    So every row lies in V plus the span of the kept rows: with I the ideal
    of the rows plus m^[box], I lies in (kept) + m^[box] + m I, and the kept
    rows with m^[box] generate I in the local ring at the origin (Nakayama).
    No shift has a constant term, so the first row that has one is kept.
    The work is on the term dicts (_local_rows), where the shifts of a
    one-term row are one-term rows, each settled by a lookup (_add_row).
    """
    if not rows:
        return []
    n, p = rows[0].n, rows[0].p
    return [GFPoly(n, p, t) for t in _local_rows([g._terms for g in rows], n, p, box)]


def root_local_generators(polys: Iterable[GFPoly], n: int, p: int, box: int) -> list[GFPoly]:
    """local_generators(root_echelon(polys, n, p, p), box) in one pass over
    term dicts: the p-th root pieces go into the echelon, its pivot dicts
    into _local_rows, and only the rows kept become GFPolys.  The rows and
    their order are those of the composition."""
    rows = _echelon(_root_rows(polys, n, p), p)
    return [GFPoly(n, p, t) for t in _local_rows(rows, n, p, box)]


def monomials_ascending(f: GFPoly) -> Iterator[Monomial]:
    """The monomials of f in ascending degrevlex order, hence by ascending total
    degree, each decoded only when it is reached."""
    n = f.n
    w = _width(n)
    return (_unpack(k, n, w) for k in sorted(f._terms))

