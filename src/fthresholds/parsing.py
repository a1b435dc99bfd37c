"""Polynomial text grammar shared by the CLI, the corpus file, and test fixtures.

    poly   := term (('+'|'-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := var ('^' uint)?
    var    := 'x' uint            (variables are x1, x2, ..., xn;
                                   'x', 'y', 'z' alias x1, x2, x3)
    coeff  := uint

Whitespace is ignored.  A leading sign on the first term is accepted so that
printed integer polynomials round-trip.  Coefficients are reduced mod p when
parsing over a prime field.
"""

from __future__ import annotations

from .errors import ParseError, VariableCountError
from .gfpoly import GFPoly, drl_key

TermDict = dict  # dict[tuple[int, ...], int], integer coefficients

_ALIASES = {"x": 1, "y": 2, "z": 3}


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind  # "int" | "var" | "op" | "end"
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", int(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            if ch == "x" and i + 1 < len(text) and text[i + 1].isdigit():
                j = i + 1
                while j < len(text) and text[j].isdigit():
                    j += 1
                idx = int(text[i + 1 : j])
                if idx < 1:
                    raise ParseError(f"variable index must be >= 1, got x{idx}", line, start_col)
                tokens.append(_Token("var", idx, line, start_col))
                col += j - i
                i = j
                continue
            if ch in _ALIASES:
                tokens.append(_Token("var", _ALIASES[ch], line, start_col))
                col += 1
                i += 1
                continue
            raise ParseError(f"unknown variable {ch!r}", line, start_col)
        if ch in "+-*^":
            tokens.append(_Token("op", ch, line, start_col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("end", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], n: int):
        self.tokens = tokens
        self.pos = 0
        self.n = n

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def parse_poly(self) -> TermDict:
        terms: TermDict = {}
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.value in "+-":
            sign = -1 if tok.value == "-" else 1
            self.next()
        self.parse_term(terms, sign)
        while True:
            tok = self.peek()
            if tok.kind == "end":
                break
            if tok.kind == "op" and tok.value in "+-":
                self.next()
                self.parse_term(terms, -1 if tok.value == "-" else 1)
            else:
                self.fail(f"expected '+' or '-', got {tok.value!r}")
        return {m: c for m, c in terms.items() if c != 0}

    def parse_term(self, terms: TermDict, sign: int):
        tok = self.peek()
        coeff = 1
        exps = [0] * self.n
        if tok.kind == "int":
            coeff = tok.value
            self.next()
            while self.peek().kind == "op" and self.peek().value == "*":
                self.next()
                self.parse_factor(exps)
        elif tok.kind == "var":
            self.parse_factor(exps)
            while self.peek().kind == "op" and self.peek().value == "*":
                self.next()
                self.parse_factor(exps)
        else:
            self.fail(f"expected a term, got {tok.value!r}")
        mono = tuple(exps)
        terms[mono] = terms.get(mono, 0) + sign * coeff

    def parse_factor(self, exps: list[int]):
        tok = self.next()
        if tok.kind != "var":
            raise ParseError(f"expected a variable, got {tok.value!r}", tok.line, tok.col)
        idx = tok.value
        if idx > self.n:
            raise VariableCountError(
                f"variable x{idx} exceeds variable count n={self.n}", tok.line, tok.col
            )
        power = 1
        if self.peek().kind == "op" and self.peek().value == "^":
            self.next()
            ptok = self.next()
            if ptok.kind != "int":
                raise ParseError("expected an integer exponent after '^'", ptok.line, ptok.col)
            power = ptok.value
        exps[idx - 1] += power


def parse_int_poly(text: str, n: int) -> TermDict:
    """Parse to an integer-coefficient term dict (zero terms dropped)."""
    return _Parser(_tokenize(text), n).parse_poly()


def parse_gfpoly(text: str, n: int, p: int) -> GFPoly:
    """Parse over F_p; coefficients are reduced mod p."""
    return GFPoly.make(n, p, parse_int_poly(text, n).items())


def parse_ideal(gens: list[str] | str, n: int, p: int):
    """Parse a comma-separated string or a list of generator strings."""
    from .groebner import Ideal

    if isinstance(gens, str):
        gens = [s for s in gens.split(",") if s.strip()]
    return Ideal([parse_gfpoly(s, n, p) for s in gens], n=n, p=p)


def variable_name(i: int, n: int) -> str:
    """Name of variable index i (0-based): x,y,z for n <= 3, else x1..xn."""
    if n <= 3:
        return "xyz"[i]
    return f"x{i + 1}"


def format_monomial(mono, n: int) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 0:
            continue
        name = variable_name(i, n)
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def format_terms(terms: TermDict, n: int) -> str:
    """Canonical rendering: descending degrevlex, explicit '*', minimal signs."""
    if not terms:
        return "0"
    items = sorted(terms.items(), key=lambda kv: drl_key(kv[0]), reverse=True)
    pieces = []
    for k, (mono, coeff) in enumerate(items):
        neg = coeff < 0
        mag = -coeff if neg else coeff
        body = format_monomial(mono, n)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if k == 0:
            pieces.append(f"-{text}" if neg else text)
        else:
            pieces.append(f"{'-' if neg else '+'} {text}")
    return " ".join(pieces)
