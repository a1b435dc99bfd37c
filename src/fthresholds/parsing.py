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

One compiled pattern scans the whole text into (kind, value, offset) tokens,
and a short recursive descent reads them; a ParseError works out its line and
column from the offset.  Generator lists are comma-separated.
"""

from __future__ import annotations

import re

from .errors import ParseError, VariableCountError
from .gfpoly import GFPoly, drl_key

TermDict = dict  # dict[tuple[int, ...], int], integer coefficients

_ALIASES = {"x": 1, "y": 2, "z": 3}
_TOKEN = re.compile(r"\s+|(\d+)|x(\d+)|([xyz])|([-+*^])|(.)")


def _error(cls, message: str, text: str, offset: int) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return cls(message, line, offset - text.rfind("\n", 0, offset))


def _scan(text: str) -> list[tuple]:
    """Tokens (kind, value, offset), ending with "end"; a var's value is its index."""
    tokens = []
    for match in _TOKEN.finditer(text):
        number, index, alias, op, other = match.groups()
        at = match.start()
        if other:
            what = "unknown variable" if other.isalpha() else "unexpected character"
            raise _error(ParseError, f"{what} {other!r}", text, at)
        if index and int(index) < 1:
            raise _error(ParseError, f"variable index must be >= 1, got x{int(index)}", text, at)
        if number:
            tokens.append(("int", int(number), at))
        elif index or alias:
            tokens.append(("var", int(index) if index else _ALIASES[alias], at))
        elif op:
            tokens.append(("op", op, at))
    tokens.append(("end", None, len(text)))
    return tokens


def _factor(tokens: list[tuple], i: int, exps: list[int], text: str) -> int:
    """Read the factor at tokens[i] into exps; return the index after it."""
    kind, idx, at = tokens[i]
    if kind != "var":
        raise _error(ParseError, f"expected a variable, got {idx!r}", text, at)
    if idx > len(exps):
        raise _error(VariableCountError,
                     f"variable x{idx} exceeds variable count n={len(exps)}", text, at)
    power = 1
    if tokens[i + 1][:2] == ("op", "^"):
        i += 2
        kind, power, at = tokens[i]
        if kind != "int":
            raise _error(ParseError, "expected an integer exponent after '^'", text, at)
    exps[idx - 1] += power
    return i + 1


def parse_int_poly(text: str, n: int) -> TermDict:
    """Parse to an integer-coefficient term dict (zero terms dropped)."""
    tokens = _scan(text)
    terms: TermDict = {}
    sign, i = 1, 0
    if tokens[0][0] == "op" and tokens[0][1] in "+-":
        sign, i = (-1 if tokens[0][1] == "-" else 1), 1
    while True:
        kind, value, at = tokens[i]
        coeff, exps = 1, [0] * n
        if kind == "int":
            coeff, i = value, i + 1
        elif kind == "var":
            i = _factor(tokens, i, exps, text)
        else:
            raise _error(ParseError, f"expected a term, got {value!r}", text, at)
        while tokens[i][:2] == ("op", "*"):
            i = _factor(tokens, i + 1, exps, text)
        mono = tuple(exps)
        terms[mono] = terms.get(mono, 0) + sign * coeff
        kind, value, at = tokens[i]
        if kind == "end":
            return {m: c for m, c in terms.items() if c != 0}
        if kind != "op" or value not in "+-":
            raise _error(ParseError, f"expected '+' or '-', got {value!r}", text, at)
        sign, i = (-1 if value == "-" else 1), i + 1


def parse_gfpoly(text: str, n: int, p: int) -> GFPoly:
    """Parse over F_p; coefficients are reduced mod p."""
    return GFPoly.make(n, p, parse_int_poly(text, n).items())


def split_generators(text: str) -> list[str]:
    """The comma-separated generators of `text`, stripped, blanks dropped."""
    return [s.strip() for s in text.split(",") if s.strip()]


def parse_ideal(gens: list[str] | str, n: int, p: int):
    """Parse a comma-separated string or a list of generator strings."""
    from .groebner import Ideal

    if isinstance(gens, str):
        gens = split_generators(gens)
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
