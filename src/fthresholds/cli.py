"""Command-line interface: one binary, subcommand style, exact output only.

The paper's two headline experiments:

    fthresh sweep --gens "x^2 + y^3" -n 2 --primes 5..47 --qmax 100000 \
        --target 5/6 > results/sweep.json
    fthresh truncation --gens "x^2 + y^3" -n 2 --primes 7,13 --qmax 10000

The first encloses fpt of the cusp's reductions against its lct 5/6; the
second checks that a -> a + m^d moves each enclosure by at most n/d, for
d = --dmin..--dmax.

Exit codes: 0 success, 1 usage/domain error, 2 capacity cap hit,
3 invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CapacityError, DomainError, InvariantViolation
from .exact import format_rational, parse_primes, parse_rational, prime_power
from .frobenius import (
    fpt_enclosure,
    fpt_point,
    frobenius_root,
    nu,
    test_ideal,
)
from .groebner import MonomialIdeal
from .newton import INFINITY, jumping_candidates, lct_monomial, multiplier_ideal_monomial
from .parsing import parse_ideal, parse_int_poly, split_generators
from .reduction import IntegerIdeal, corpus
from .experiment import (SweepIssue, convergence_report, report_to_csv, report_to_json,
                         sweep, truncation_table, truncation_to_json)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPACITY = 2
EXIT_INVARIANT = 3


def _split_gens(text: str) -> list[str]:
    parts = split_generators(text)
    if not parts:
        raise DomainError("--gens must list at least one polynomial")
    return parts


def _monomial_ideal_from_args(args) -> MonomialIdeal:
    # The lct-side commands accept the polynomial grammar restricted to
    # single-term generators; coefficients are irrelevant and must be absent.
    points = []
    for text in _split_gens(args.gens):
        terms = parse_int_poly(text, args.n)
        if len(terms) != 1:
            raise DomainError(f"not a monomial: {text!r}")
        (mono, coeff), = terms.items()
        if coeff != 1:
            raise DomainError(f"monomial generators take no coefficients: {text!r}")
        points.append(mono)
    return MonomialIdeal(points, args.n)


def _cmd_nu(args) -> int:
    ideal = parse_ideal(_split_gens(args.gens), args.n, args.p)
    value = nu(ideal, args.e)
    print(value.nu)
    return EXIT_OK


def _cmd_fpt(args) -> int:
    ideal = parse_ideal(_split_gens(args.gens), args.n, args.p)
    enc = fpt_enclosure(ideal, args.e)
    print(f"[{format_rational(enc.low)}, {format_rational(enc.high)}]")
    if args.certify:
        point = fpt_point(ideal, enc)
        if point is None:
            print("fpt: unconfirmed")
        else:
            print(f"fpt = {format_rational(point)} (confirmed)")
    return EXIT_OK


def _cmd_froot(args) -> int:
    ideal = parse_ideal(_split_gens(args.gens), args.n, args.p)
    root = frobenius_root(ideal, prime_power(args.p, args.e))
    basis = root.groebner_basis()
    print(json.dumps([str(g) for g in basis]))
    return EXIT_OK


def _cmd_tau(args) -> int:
    ideal = parse_ideal(_split_gens(args.gens), args.n, args.p)
    lam = parse_rational(args.lam)
    result = test_ideal(ideal, lam, args.emax)
    payload = {
        "ideal": [str(g) for g in result.ideal.groebner_basis()],
        "lambda": format_rational(result.lam),
        "e_used": result.e_used,
        "stabilized": result.stabilized,
    }
    print(json.dumps(payload))
    return EXIT_OK


def _cmd_lct(args) -> int:
    value = lct_monomial(_monomial_ideal_from_args(args))
    print("inf" if value is INFINITY else format_rational(value))
    return EXIT_OK


def _cmd_mult_ideal(args) -> int:
    a = _monomial_ideal_from_args(args)
    lam = parse_rational(args.lam)
    J = multiplier_ideal_monomial(a, lam)
    print(json.dumps(J.to_strings()))
    return EXIT_OK


def _cmd_jumps(args) -> int:
    a = _monomial_ideal_from_args(args)
    bound = parse_rational(args.bound)
    values = jumping_candidates(a, bound)
    print(json.dumps([format_rational(v) for v in values]))
    return EXIT_OK


def _run_experiment(args, run, report) -> int:
    """Write the report of one of the paper's experiments to stdout.

    run(ideal, primes, q_max, issues=...) gives the records, and
    report(records) their text with the message of a broken invariant, if
    any.  Exit 2 when capped primes left no record, 3 on a broken invariant,
    else 2 if any prime was capped."""
    ideal = IntegerIdeal.from_strings(_split_gens(args.gens), args.n)
    if not ideal.vanishes_at_origin():
        raise DomainError(f"{args.command} generators must vanish at the origin")
    primes = parse_primes(args.primes)
    issues: list[SweepIssue] = []
    records = run(ideal, primes, args.qmax, issues=issues)
    for issue in issues:
        print(f"warning: p={issue.p} skipped ({issue.kind}): {issue.message}",
              file=sys.stderr)
    capped = any(issue.kind == "capacity" for issue in issues)
    if capped and not records:
        return EXIT_CAPACITY
    text, violation = report(records)
    sys.stdout.write(text)
    if violation:
        print(violation, file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_CAPACITY if capped else EXIT_OK


def _cmd_sweep(args) -> int:
    target = parse_rational(args.target) if args.target else None

    def report(records):
        rep = convergence_report(records, target)
        broken = not rep.monotone_ok or rep.below_lct_ok is False
        return ((report_to_csv if args.format == "csv" else report_to_json)(rep),
                "invariant violation in sweep report" if broken else None)

    return _run_experiment(args, sweep, report)


def _cmd_truncation(args) -> int:
    return _run_experiment(
        args, lambda ideal, primes, q_max, issues: truncation_table(
            ideal, primes, q_max, args.dmin, args.dmax, issues),
        lambda records: (truncation_to_json(records), None if all(r.ok for r in records)
                         else "invariant violation: a truncation gap exceeds n/d"))


def _cmd_corpus(args) -> int:
    entries = []
    for entry in corpus():
        entries.append({
            "name": entry.name,
            "gens": entry.ideal.to_strings(),
            "n": entry.ideal.n,
            "lct0": format_rational(entry.lct0),
            "provenance": entry.provenance,
        })
    print(json.dumps(entries, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fthresh",
        description="Exact positive-characteristic singularity invariants and "
                    "log canonical thresholds of monomial ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ring_flags(p, with_e=True):
        p.add_argument("--gens", required=True,
                       help="comma-separated generators in the polynomial grammar")
        p.add_argument("-n", type=int, required=True, help="number of variables")
        p.add_argument("-p", type=int, required=True, help="prime characteristic")
        if with_e:
            p.add_argument("-e", type=int, required=True, help="Frobenius exponent")

    p_nu = sub.add_parser("nu", help="largest r with a^r outside m^[p^e]")
    add_ring_flags(p_nu)
    p_nu.set_defaults(func=_cmd_nu)

    p_fpt = sub.add_parser("fpt", help="enclosure of the F-pure threshold")
    add_ring_flags(p_fpt)
    p_fpt.add_argument("--certify", action="store_true",
                       help="print fpt where its proved bounds meet")
    p_fpt.set_defaults(func=_cmd_fpt)

    p_froot = sub.add_parser("froot", help="Frobenius root of an ideal")
    add_ring_flags(p_froot)
    p_froot.set_defaults(func=_cmd_froot)

    p_tau = sub.add_parser("tau", help="test ideal: Howald's formula for a monomial ideal "
                                       "(e_used 0), else the stabilizing chain")
    add_ring_flags(p_tau, with_e=False)
    p_tau.add_argument("--lambda", dest="lam", required=True, help='exponent "n/d"')
    p_tau.add_argument("--emax", type=int, default=6, help="maximum chain depth")
    p_tau.set_defaults(func=_cmd_tau)

    p_lct = sub.add_parser("lct", help="log canonical threshold of a monomial ideal")
    p_lct.add_argument("--gens", required=True, help="comma-separated monomials")
    p_lct.add_argument("-n", type=int, required=True)
    p_lct.set_defaults(func=_cmd_lct)

    p_mult = sub.add_parser("mult-ideal", help="multiplier ideal of a monomial ideal")
    p_mult.add_argument("--gens", required=True, help="comma-separated monomials")
    p_mult.add_argument("-n", type=int, required=True)
    p_mult.add_argument("--lambda", dest="lam", required=True, help='exponent "n/d"')
    p_mult.set_defaults(func=_cmd_mult_ideal)

    p_jumps = sub.add_parser("jumps", help="jumping numbers up to a bound")
    p_jumps.add_argument("--gens", required=True, help="comma-separated monomials")
    p_jumps.add_argument("-n", type=int, required=True)
    p_jumps.add_argument("--bound", required=True, help='bound "n/d"')
    p_jumps.set_defaults(func=_cmd_jumps)

    def add_experiment_flags(p):
        p.add_argument("--gens", required=True, help="comma-separated integer polynomials")
        p.add_argument("-n", type=int, required=True)
        p.add_argument("--primes", required=True, help='"a..b" or "p1,p2,..."')
        p.add_argument("--qmax", type=int, required=True,
                       help="use the largest e with p^e <= qmax")

    p_sweep = sub.add_parser("sweep", help="fpt enclosures across primes")
    add_experiment_flags(p_sweep)
    p_sweep.add_argument("--target", default=None, help='known lct "n/d" (optional)')
    p_sweep.add_argument("--format", choices=["csv", "json"], default="json")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_trunc = sub.add_parser("truncation", help="how a -> a + m^d moves fpt enclosures")
    add_experiment_flags(p_trunc)
    p_trunc.add_argument("--dmin", type=int, default=3, help="smallest d (default 3)")
    p_trunc.add_argument("--dmax", type=int, default=8, help="largest d (default 8)")
    p_trunc.set_defaults(func=_cmd_truncation)

    p_corpus = sub.add_parser("corpus", help="print the known-lct corpus")
    p_corpus.set_defaults(func=_cmd_corpus)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
