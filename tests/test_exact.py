"""Rational and prime-power primitives."""

import re
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fthresholds.errors import DomainError
from fthresholds.exact import (
    PrimePower,
    format_rational,
    is_prime,
    parse_primes,
    parse_rational,
    prime_power,
)


def test_normalize_examples():
    assert Fraction(10, -12) == Fraction(-5, 6)
    assert Fraction(0, 7) == Fraction(0, 1)
    assert Fraction(35, 42) == Fraction(5, 6)


def test_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 0)


@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30).filter(lambda d: d != 0))
def test_normalized_storage(n, d):
    q = Fraction(n, d)
    assert q.denominator > 0
    from math import gcd

    assert gcd(abs(q.numerator), q.denominator) == 1


@given(
    st.fractions(max_denominator=10**6),
    st.fractions(max_denominator=10**6).filter(lambda b: b != 0),
)
def test_exactness_roundtrip(a, b):
    assert a + b - b == a
    assert (a * b) / b == a


@given(st.fractions(max_denominator=1000), st.fractions(max_denominator=1000))
def test_order_is_cross_multiplication(a, b):
    assert (a < b) == (a.numerator * b.denominator < b.numerator * a.denominator)


def test_serialization():
    assert format_rational(Fraction(5, 6)) == "5/6"
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    assert format_rational(Fraction(2)) == "2/1"
    assert parse_rational("5/6") == Fraction(5, 6)
    assert parse_rational("2") == Fraction(2)
    assert parse_rational("-1/3") == Fraction(-1, 3)
    with pytest.raises(DomainError):
        parse_rational("1.5")


@pytest.mark.parametrize("text", ["1/0", "-3/00", " 0/0 "])
def test_parse_rational_rejects_a_zero_denominator(text):
    # The regex admits d = 0; Fraction would raise a bare ZeroDivisionError.
    with pytest.raises(DomainError, match="zero denominator"):
        parse_rational(text)


def test_prime_power_examples():
    assert prime_power(7, 2).q == 49
    assert prime_power(2, 62).q == 2**62
    with pytest.raises(OverflowError):
        prime_power(2, 63)
    with pytest.raises(DomainError):
        prime_power(6, 2)
    with pytest.raises(DomainError, match=r"^exponent must be >= 1, got 0$"):
        prime_power(7, 0)


def test_prime_power_construction_validates():
    with pytest.raises(DomainError):
        PrimePower(7, 2, 50)


@given(st.sampled_from([2, 3, 5, 7, 11, 13, 31]), st.integers(1, 8))
def test_prime_power_invariants(p, e):
    pp = prime_power(p, e)
    assert pp.q % p == 0
    assert prime_power(p, 1).q == p


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_parse_primes():
    assert parse_primes("5..20") == [5, 7, 11, 13, 17, 19]
    assert parse_primes(" 0..3 ") == [2, 3]
    assert parse_primes("5,7,11") == [5, 7, 11]
    assert parse_primes(f"{2**31 - 8}..{2**31 - 1}") == [2**31 - 1]
    with pytest.raises(DomainError, match="9 is not prime"):
        parse_primes("5,9")
    for text, message in (("5..1", r"no primes in 5\.\.1"), ("24..28", r"no primes in 24\.\.28")):
        with pytest.raises(DomainError, match=message):
            parse_primes(text)
    # An end past the primality test's range is refused before any candidate
    # is tested, so the answer is immediate.
    start = time.perf_counter()
    for text in ("5..3000000000", f"2..{2**31}"):
        with pytest.raises(DomainError, match="out of range"):
            parse_primes(text)
    assert time.perf_counter() - start < 0.5


def test_parse_primes_rejects_a_list_without_primes():
    # As an empty range is refused, so is a comma list that names no prime.
    for text in (",", " , ,", ""):
        with pytest.raises(DomainError, match="no primes in"):
            parse_primes(text)


def test_parse_primes_names_text_that_is_not_a_number():
    # int() said only "invalid literal for int() with base 10: ''".
    for text in ("5..", "..7", "5..7..9", "x,7", "5.5"):
        with pytest.raises(DomainError, match=f"not a prime range .*: '{re.escape(text)}'$"):
            parse_primes(text)


def test_parse_primes_wide_range_is_sieved():
    cached = is_prime.cache_info().currsize
    assert len(parse_primes("2..3000000")) == 216816
    assert is_prime.cache_info().currsize == cached
