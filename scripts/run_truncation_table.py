#!/usr/bin/env python3
"""Tabulate how truncation a -> a + m^d moves the fpt enclosure.

Adding the d-th power of the maximal ideal changes the threshold by at most
n/d, so the enclosures must stay within that distance (up to their widths).
Prints one row per (p, d) and checks the bound exactly.

Usage:
    python3 scripts/run_truncation_table.py
    python3 scripts/run_truncation_table.py --gens "x^3+y^4" --primes 5,11 --dmax 10
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fthresholds.exact import format_rational, parse_primes
from fthresholds.experiment import largest_exponent
from fthresholds.frobenius import fpt_enclosure
from fthresholds.reduction import IntegerIdeal, reduce_mod_p, truncate_ideal


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--gens", default="x^2 + y^3")
    parser.add_argument("-n", type=int, default=2)
    parser.add_argument("--primes", default="7,13")
    parser.add_argument("--qmax", type=int, default=10**4)
    parser.add_argument("--dmin", type=int, default=3)
    parser.add_argument("--dmax", type=int, default=8)
    args = parser.parse_args()
    try:
        primes = parse_primes(args.primes)
    except ValueError as exc:
        parser.error(str(exc))

    model = IntegerIdeal.from_strings(args.gens, args.n)
    all_ok = True
    print(f"{'p':>4} {'e':>2} {'d':>3} {'base low':>14} {'trunc low':>14} "
          f"{'gap':>12} {'bound n/d':>10} {'ok':>3}")
    for p in primes:
        e = largest_exponent(p, args.qmax)
        if e is None:
            continue
        base_ideal = reduce_mod_p(model, p)
        base = fpt_enclosure(base_ideal, e)
        for d in range(args.dmin, args.dmax + 1):
            trunc = fpt_enclosure(truncate_ideal(base_ideal, d), e)
            gap = max(trunc.low - base.high, base.low - trunc.high, Fraction(0))
            bound = Fraction(args.n, d)
            ok = gap <= bound
            all_ok = all_ok and ok
            print(f"{p:>4} {e:>2} {d:>3} {format_rational(base.low):>14} "
                  f"{format_rational(trunc.low):>14} {format_rational(gap):>12} "
                  f"{format_rational(bound):>10} {'y' if ok else 'N'}")
    return 0 if all_ok else 3


if __name__ == "__main__":
    sys.exit(main())
