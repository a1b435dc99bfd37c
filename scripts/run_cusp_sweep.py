#!/usr/bin/env python3
"""Sweep F-pure threshold enclosures of a plane-curve ideal across primes and
compare against a characteristic-zero target.

The default configuration reproduces the headline experiment: the cusp
x^2 + y^3 over primes 5..47 with q_max = 10^5 against its log canonical
threshold 5/6.  The gap column (target - low) shrinks as p grows, and is
exactly zero-limited along p = 1 mod 6 where the threshold equals 5/6.

Usage:
    python3 scripts/run_cusp_sweep.py
    python3 scripts/run_cusp_sweep.py --gens "x^2+y^5" --target 7/10 --primes 5..100
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fthresholds.exact import format_rational, parse_primes, parse_rational
from fthresholds.experiment import convergence_report, emit, sweep
from fthresholds.reduction import IntegerIdeal


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--gens", default="x^2 + y^3")
    parser.add_argument("-n", type=int, default=2)
    parser.add_argument("--primes", default="5..47")
    parser.add_argument("--qmax", type=int, default=10**5)
    parser.add_argument("--target", default="5/6")
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    args = parser.parse_args()
    try:
        primes = parse_primes(args.primes)
    except ValueError as exc:
        parser.error(str(exc))

    ideal = IntegerIdeal.from_strings(args.gens, args.n)
    target = parse_rational(args.target) if args.target else None
    issues = []
    records = sweep(ideal, primes, args.qmax, issues=issues)
    for issue in issues:
        print(f"warning: p={issue.p} skipped ({issue.kind})", file=sys.stderr)
    report = convergence_report(records, target)

    print(f"{'p':>4} {'e':>2} {'nu':>8} {'low':>16} {'gap':>16}")
    for r in report.records:
        gap = format_rational(target - r.low) if target is not None else "-"
        print(f"{r.p:>4} {r.e:>2} {r.nu:>8} {format_rational(r.low):>16} {gap:>16}")
    print(f"monotone_ok={report.monotone_ok} below_lct_ok={report.below_lct_ok} "
          f"max_gap={format_rational(report.max_gap) if report.max_gap is not None else '-'}")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    emit(report, "json", args.out_dir / "sweep.json")
    emit(report, "csv", args.out_dir / "sweep.csv")
    print(f"reports written to {args.out_dir}/sweep.json and sweep.csv")
    return 0 if report.monotone_ok and report.below_lct_ok is not False else 3


if __name__ == "__main__":
    sys.exit(main())
