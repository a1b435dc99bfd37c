"""Exact arithmetic primitives: normalized rationals and checked prime powers.

Every threshold, exponent and report value in this package is an exact
rational; nothing in the core touches floating point.  Rationals are
`fractions.Fraction` (arbitrary precision, always stored reduced with a
positive denominator), with helpers for the canonical "n/d" wire format.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError

PRIME_LIMIT = 2**31
POWER_LIMIT = 2**63

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


@lru_cache(maxsize=None)
def is_prime(p: int) -> bool:
    """Deterministic primality test by trial division; valid for p < 2^31."""
    if p >= PRIME_LIMIT:
        raise DomainError(f"prime candidate {p} out of range (must be < 2^31)")
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def parse_primes(text: str) -> list[int]:
    """Either "a..b" (all primes in the range) or a comma list "5,7,11".

    A range must end below PRIME_LIMIT; either form must give a prime."""
    text = text.strip()
    parts = text.split("..", 1) if ".." in text else [s for s in text.split(",") if s.strip()]
    try:
        values = [int(s) for s in parts]
    except ValueError:
        raise DomainError(f"not a prime range a..b or list a,b,...: {text!r}") from None
    if ".." in text:
        lo, hi = values
        if hi >= PRIME_LIMIT:
            raise DomainError(f"prime range end {hi} out of range (must be < 2^31)")
        # Sieve of Eratosthenes, a byte per number of the range: strike the
        # multiples of each d <= sqrt(hi) from d^2 on (a composite d adds none).
        start = max(lo, 2)
        sieve = bytearray([1]) * max(hi - start + 1, 0)
        for d in range(2, math.isqrt(max(hi, 0)) + 1):
            first = max(d * d, -(-start // d) * d)
            sieve[first - start::d] = bytes(len(range(first, hi + 1, d)))
        primes = list(itertools.compress(range(start, hi + 1), sieve))
    else:
        primes = values
        for p in primes:
            if not is_prime(p):
                raise DomainError(f"{p} is not prime")
    if not primes:
        raise DomainError(f"no primes in {text}")
    return primes


def format_rational(q: Fraction) -> str:
    """Canonical serialized form "n/d", denominator always explicit."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "n/d" or a bare integer "n" (meaning n/1); d must not be 0."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise DomainError(f"not a rational: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise DomainError(f"zero denominator in {text!r}") from None


@dataclass(frozen=True)
class PrimePower:
    """A validated prime power q = p^e with q < 2^63."""

    p: int
    e: int
    q: int

    def __post_init__(self):
        if self.e < 1:
            raise DomainError(f"exponent must be >= 1, got {self.e}")
        if not is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
        expected = self.p**self.e
        if self.q != expected:
            raise DomainError(f"inconsistent prime power: {self.p}^{self.e} != {self.q}")
        if self.q >= POWER_LIMIT:
            raise OverflowError(f"{self.p}^{self.e} >= 2^63")

    def __str__(self) -> str:
        return f"{self.p}^{self.e}"


def prime_power(p: int, e: int) -> PrimePower:
    """Construct p^e, rejecting composite p and powers >= 2^63."""
    if e >= 63:
        # smallest admissible base is 2, and 2^63 already overflows
        raise OverflowError(f"{p}^{e} >= 2^63")
    return PrimePower(p, e, p**e)
