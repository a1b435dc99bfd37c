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
    test "every e_i < q" and divisibility are guard-bit tests (Monagan-Pearce);
    lcm and the root split e_i = q b_i + g_i unpack the fields one by one.

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

from collections.abc import Mapping
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .errors import CapacityError, DomainError
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
    return _pack(map(max, _unpack(a, n, w), _unpack(b, n, w)), w)


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
        return len(self._poly._terms)

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

    def min_degree(self) -> int:
        if not self._terms:
            return -1
        return min(self._terms) >> ((self.n - 1) * _width(self.n))

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

    def mul_truncated(self, other: "GFPoly", bound: int) -> "GFPoly":
        """Product with every term having some exponent >= bound dropped.

        Deletion happens inside the accumulation loop; sound because exponents
        only grow under multiplication, so a dropped term can never contribute
        to a surviving one later.
        """
        self._check_ambient(other)
        n = self.n
        w = _width(n)
        fields, bias, guards = _box(bound, n, w)
        p = self.p
        out: dict = {}
        get = out.get
        b = other._terms.items()
        for m1, c1 in self._terms.items():
            for m2, c2 in b:
                mm = m1 + m2
                if (mm - ((mm << w) & fields) + bias) & guards:
                    continue
                out[mm] = (get(mm, 0) + c1 * c2) % p
        _drop_zeros(out)
        _check_range(out, n, w)
        return GFPoly(n, self.p, out)

    def pow(self, r: int) -> "GFPoly":
        if r < 0:
            raise DomainError("negative power")
        result = GFPoly.one(self.n, self.p)
        base = self
        while r:
            if r & 1:
                result = result * base
            r >>= 1
            if r:
                base = base * base
        return result

    def truncate(self, bound: int) -> "GFPoly":
        """Drop every term having some exponent >= bound."""
        n = self.n
        w = _width(n)
        fields, bias, guards = _box(bound, n, w)
        return GFPoly(n, self.p, {m: c for m, c in self._terms.items()
                                  if not (m - ((m << w) & fields) + bias) & guards})

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
        n = self.n
        w = _width(n)
        mask = (1 << w) - 1
        shifts = range(0, n * w, w)
        buckets: dict = {}
        for m, c in self._terms.items():
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
        return [GFPoly(n, self.p, buckets[g]) for g in sorted(buckets)]

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


def lead_lcm(f: GFPoly, g: GFPoly) -> int:
    """Degrevlex sort key of lcm(LM(f), LM(g)); comparable only within one ring."""
    n = f.n
    return _lcm(max(f._terms), max(g._terms), n, _width(n))


def leads_coprime(f: GFPoly, g: GFPoly) -> bool:
    """True iff the lead monomials of f and g share no variable."""
    a, b = max(f._terms), max(g._terms)
    n = f.n
    return _lcm(a, b, n, _width(n)) == a + b


def s_polynomial(f: GFPoly, g: GFPoly) -> GFPoly:
    """lcm/LT(f) * f - lcm/LT(g) * g for the lcm of the two lead monomials."""
    n, p = f.n, f.p
    w = _width(n)
    lf, lg = max(f._terms), max(g._terms)
    lcm = _lcm(lf, lg, n, w)
    return (f.mul_term(_unpack(lcm - lf, n, w), pow(f._terms[lf], -1, p))
            - g.mul_term(_unpack(lcm - lg, n, w), pow(g._terms[lg], -1, p)))


def _row_key(terms: dict, n: int, w: int) -> tuple:
    """Order of rows in `echelonize`: the lead monomial, then the row's
    `sorted_terms` list as a tuple, without the lead monomial."""
    if len(terms) == 1:
        (item,) = terms.items()
        return item
    items = sorted(terms.items(), reverse=True)
    return (items[0][0], items[0][1]) + tuple((_unpack(m, n, w), c) for m, c in items[1:])


def echelonize(polys: Iterable[GFPoly], n: int, p: int) -> list[GFPoly]:
    """Echelonize a generating set over F_p (same ideal, bounded count).

    Rows are combined linearly only, so the span (hence the ideal) is
    unchanged while the number of generators drops to at most the dimension
    of the ambient coefficient space.  Rows are taken in descending degrevlex
    order of their lead monomials, and rows sharing a lead monomial in
    descending order of their `sorted_terms` lists compared as tuples.  Which
    row becomes a pivot decides the generators returned, so this order is part
    of the result.  Repeated rows are dropped.
    """
    w = _width(n)
    keyed = sorted(((_row_key(g._terms, n, w), g._terms) for g in polys if g._terms),
                   key=itemgetter(0), reverse=True)
    rows = [t for i, (key, t) in enumerate(keyed) if i == 0 or key != keyed[i - 1][0]]
    pivots: dict = {}
    for row in rows:
        work = dict(row)
        while work:
            m = max(work)
            piv = pivots.get(m)
            if piv is None:
                inv = pow(work[m], -1, p)
                pivots[m] = {mm: (cc * inv) % p for mm, cc in work.items()}
                break
            c = work[m]
            for mm, cc in piv.items():
                v = (work.get(mm, 0) - c * cc) % p
                if v:
                    work[mm] = v
                elif mm in work:
                    del work[mm]
    return [GFPoly(n, p, pivots[m]) for m in sorted(pivots, reverse=True)]


def truncated_powers(f: GFPoly, e: int, term_cap: int,
                     wanted: Callable[[int, int], bool]) -> Iterator[GFPoly | None]:
    """T_0, T_1, ..., T_K: T_k is f^k with every term having some exponent
    >= p^e dropped, and T_K the last nonzero one.  f must vanish at the origin
    and e be at least 1.

    f^k lies outside m^[p^e] iff T_k is nonzero; that holds for a prefix of k,
    and only for k < p^e since f^p = f^[p] lies in m^[p].  The powers are built
    one level L = 1..e at a time by the Frobenius split f^(a + p b) = f^a (f^b)^[p]
    with 0 <= a < p: T_(a + p b) at level L is trunc_(p^L)(f^a * T_b^[p]) for T_b
    of level L - 1.  That is exact: a term of (f^b)^[p] leaves the box p^L iff
    its term of f^b leaves the box p^(L-1), and products only raise exponents.
    The levels below e are built in full; level e is yielded as it is built.

    A product T_k of level e is built only if wanted(k, low) is true, where
    low is a lower bound for the total degree of its terms; None is yielded in
    its place otherwise.  Raises CapacityError when some T_k has more than
    term_cap terms.
    """
    if not f.vanishes_at_origin():
        raise DomainError("truncated powers need f to vanish at the origin")
    n, p = f.n, f.p
    qv = p**e
    one = GFPoly.one(n, p)
    small = [one]  # trunc_q(f^a) for a < p
    for _ in range(p - 1):
        small.append(small[-1].mul_truncated(f, qv))
    level = [one]
    for L in range(1, e):
        level = list(_split_level(level, small, p**L, term_cap, None))
    return _split_level(level, small, qv, term_cap, wanted)


def _split_level(level: list[GFPoly], small: list[GFPoly], bound: int, term_cap: int,
                 wanted: Callable[[int, int], bool] | None) -> Iterator[GFPoly | None]:
    """T_0, T_1, ... in the box `bound` from the T_b in the box bound / p, up to
    the first zero; small[a] is f^a, possibly truncated above `bound`."""
    p = len(small)
    factors = [s.truncate(bound) for s in small[1:]]
    for b, t in enumerate(level):
        lifted = t.frobenius_power(p)  # already inside the box
        yield lifted
        low = p * t.min_degree()
        for a, fa in enumerate(factors, start=1):
            if fa.is_zero:
                return
            if wanted is not None and not wanted(a + p * b, low + fa.min_degree()):
                yield None
                continue
            prod = fa.mul_truncated(lifted, bound)
            if prod.is_zero:
                return
            if len(prod._terms) > term_cap:
                raise CapacityError(f"term cap of {term_cap} exceeded in a truncated power")
            yield prod


def monomials_ascending(f: GFPoly) -> Iterator[Monomial]:
    """The monomials of f in ascending degrevlex order, hence by ascending total
    degree, each decoded only when it is reached."""
    n = f.n
    w = _width(n)
    return (_unpack(k, n, w) for k in sorted(f._terms))

