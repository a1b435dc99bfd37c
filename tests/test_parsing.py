"""Grammar round-trips and error positions."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fthresholds.errors import ParseError, VariableCountError
from fthresholds.gfpoly import GFPoly
from fthresholds.parsing import format_terms, parse_gfpoly, parse_int_poly, split_generators

from conftest import rand_gfpoly


def test_basic_examples():
    f = parse_gfpoly("x^2 + y^3", 2, 7)
    assert f.terms == {(2, 0): 1, (0, 3): 1}
    g = parse_gfpoly("3*x1^4*x2 - 2", 2, 5)
    assert g.terms == {(4, 1): 3, (0, 0): 3}


def test_aliases_and_indices():
    assert parse_gfpoly("x*y*z", 3, 5).terms == {(1, 1, 1): 1}
    assert parse_gfpoly("x1*x2*x3", 3, 5).terms == {(1, 1, 1): 1}
    assert parse_gfpoly("x4^2", 5, 3).terms == {(0, 0, 0, 2, 0): 1}


def test_variable_count_error():
    with pytest.raises(VariableCountError):
        parse_gfpoly("x3", 2, 5)


def test_syntax_error_position():
    with pytest.raises(ParseError) as exc:
        parse_gfpoly("x^2 + * y", 2, 5)
    assert exc.value.col == 7
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        parse_gfpoly("", 2, 5)
    with pytest.raises(ParseError):
        parse_gfpoly("x^", 2, 5)
    with pytest.raises(ParseError):
        parse_gfpoly("w + 1", 2, 5)


@pytest.mark.parametrize("text, n, cls, message", [
    ("x0 + y", 2, ParseError, "variable index must be >= 1, got x0 (line 1, column 1)"),
    ("x + w", 2, ParseError, "unknown variable 'w' (line 1, column 5)"),
    ("x + #", 2, ParseError, "unexpected character '#' (line 1, column 5)"),
    ("x*3", 2, ParseError, "expected a variable, got 3 (line 1, column 3)"),
    ("x3", 2, VariableCountError, "variable x3 exceeds variable count n=2 (line 1, column 1)"),
    ("x^y", 2, ParseError, "expected an integer exponent after '^' (line 1, column 3)"),
    ("x^", 2, ParseError, "expected an integer exponent after '^' (line 1, column 3)"),
    ("", 2, ParseError, "expected a term, got None (line 1, column 1)"),
    ("x + * y", 2, ParseError, "expected a term, got '*' (line 1, column 5)"),
    ("3y", 2, ParseError, "expected '+' or '-', got 2 (line 1, column 2)"),
    ("x^2 y", 2, ParseError, "expected '+' or '-', got 2 (line 1, column 5)"),
    ("x^2 +\n  y^3 * w", 2, ParseError, "unknown variable 'w' (line 2, column 9)"),
    ("x +\n\n *", 2, ParseError, "expected a term, got '*' (line 3, column 2)"),
    ("x + x1\n+ 2*x4", 3, VariableCountError,
     "variable x4 exceeds variable count n=3 (line 2, column 5)"),
    # A digit that is not decimal is an unexpected character, not an exponent.
    ("y^2 + x\u00b2", 2, ParseError, "unexpected character '\u00b2' (line 1, column 8)"),
])
def test_error_messages(text, n, cls, message):
    with pytest.raises(ParseError) as exc:
        parse_int_poly(text, n)
    assert type(exc.value) is cls
    assert str(exc.value) == message
    assert message.endswith(f"(line {exc.value.line}, column {exc.value.col})")


def test_split_generators():
    assert split_generators(" x^2 + y^3 ,, y ,\n") == ["x^2 + y^3", "y"]
    assert split_generators(" , ") == []


def test_zero_and_constants():
    assert parse_gfpoly("0", 2, 5).is_zero
    assert parse_gfpoly("7", 2, 7).is_zero
    assert parse_gfpoly("5 - 5", 1, 3).is_zero
    assert parse_gfpoly("2", 2, 5).terms == {(0, 0): 2}


def test_whitespace_and_signs():
    f = parse_gfpoly("  x ^ 2\n+ y^3 ", 2, 7)
    assert f.terms == {(2, 0): 1, (0, 3): 1}
    g = parse_int_poly("-x + 2*y", 2)
    assert g == {(1, 0): -1, (0, 1): 2}


def test_integer_poly_roundtrip():
    g = parse_int_poly("-x^2 + 3*y - 4", 2)
    assert parse_int_poly(format_terms(g, 2), 2) == g


@given(st.integers(0, 10**6))
def test_gfpoly_print_parse_roundtrip(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5, 7])
    n = rng.choice([1, 2, 3, 4])
    f = rand_gfpoly(rng, n, p, max_deg=5, max_terms=5)
    assert parse_gfpoly(str(f), n, p) == f


def test_many_variable_names():
    f = GFPoly.make(4, 5, {(1, 0, 0, 2): 3}.items())
    assert str(f) == "3*x1*x4^2"
    assert parse_gfpoly(str(f), 4, 5) == f
