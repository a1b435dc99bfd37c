"""The paper's two experiments: prime sweeps of fpt enclosures with exact
convergence reports, and the table of how a -> a + m^d moves the enclosure.

For each prime the sweep uses the largest exponent e with p^e <= q_max,
computes the enclosure of the reduced ideal, and emits records sorted by
(p, e) so output bytes are independent of the order of the primes.  Reports never round:
gaps and flags are exact rational statements.

JSON reports deliberately omit elapsed_ms so that repeated runs are
byte-identical; the CSV keeps the timing column for plotting.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, DegenerateReductionError, DomainError
from .exact import format_rational
from .frobenius import FptEnclosure, fpt_enclosure
from .reduction import IntegerIdeal, reduce_mod_p, truncate_ideal

CSV_HEADER = "p,e,nu,low,high,elapsed_ms"


@dataclass(frozen=True)
class SweepRecord:
    p: int
    e: int
    nu: int
    low: Fraction
    high: Fraction
    elapsed_ms: int


@dataclass(frozen=True)
class SweepIssue:
    """A prime that produced no record, with the reason (not fatal)."""

    p: int
    kind: str  # "degenerate" | "capacity" | "no-exponent"
    message: str


@dataclass(frozen=True)
class TruncationRecord:
    """The enclosures of a_p and a_p + m^d at one (p, d), and their gap."""

    p: int
    e: int
    d: int
    base: FptEnclosure
    trunc: FptEnclosure
    gap: Fraction
    bound: Fraction
    ok: bool


@dataclass
class ConvergenceReport:
    target_lct: Fraction | None
    records: list[SweepRecord]
    max_gap: Fraction | None
    monotone_ok: bool
    below_lct_ok: bool | None
    trend_ok: bool | None


def largest_exponent(p: int, q_max: int) -> int | None:
    """The largest e >= 1 with p^e <= q_max, or None."""
    if p > q_max:
        return None
    e = 1
    while p ** (e + 1) <= q_max:
        e += 1
    return e


def _per_prime(ideal: IntegerIdeal, primes: list[int], q_max: int,
               skipped: list[SweepIssue], work) -> list:
    """work(p, e, a_p) for each prime in the order given, with e the largest
    exponent with p^e <= q_max.  A prime with no such e, a degenerate
    reduction, or whose work hits a capacity cap goes to `skipped` instead,
    and the others go on; any other error ends the experiment."""
    if len(set(primes)) != len(primes):
        raise DomainError("primes must be distinct")
    results = []
    for p in primes:
        e = largest_exponent(p, q_max)
        if e is None:
            skipped.append(SweepIssue(p, "no-exponent", f"{p} > q_max = {q_max}"))
            continue
        try:
            results.append(work(p, e, reduce_mod_p(ideal, p)))
        except DegenerateReductionError as exc:
            skipped.append(SweepIssue(p, "degenerate", str(exc)))
        except CapacityError as exc:
            skipped.append(SweepIssue(p, "capacity", str(exc)))
    return results


def sweep(ideal: IntegerIdeal, primes: list[int], q_max: int, *,
          issues: list[SweepIssue] | None = None) -> list[SweepRecord]:
    """One enclosure record per usable prime, sorted by (p, e).

    Degenerate reductions and capacity failures are recorded in `issues`
    (when given) and skipped; they never abort the sweep.
    """
    def record(p: int, e: int, reduced) -> SweepRecord:
        t0 = time.perf_counter()
        enc = fpt_enclosure(reduced, e)
        elapsed = int(round((time.perf_counter() - t0) * 1000))
        return SweepRecord(p=p, e=e, nu=enc.nu, low=enc.low, high=enc.high, elapsed_ms=elapsed)

    skipped: list[SweepIssue] = []
    records = sorted(_per_prime(ideal, primes, q_max, skipped, record),
                     key=lambda r: (r.p, r.e))
    if issues is not None:
        issues.extend(sorted(skipped, key=lambda i: i.p))
    return records


def truncation_table(ideal: IntegerIdeal, primes: list[int], q_max: int,
                     dmin: int, dmax: int,
                     issues: list[SweepIssue] | None = None) -> list[TruncationRecord]:
    """One record per (p, d), d = dmin..dmax, in the order of the primes given.

    Adding m^d moves the threshold by at most n/d, so the gap between the
    enclosures of a_p and a_p + m^d (zero when they overlap) must stay within
    that bound; `ok` says whether it does.  Primes must be distinct; those
    with p > q_max, a degenerate reduction or a capacity failure are recorded
    in `issues` (when given) and skipped with all their rows, as in sweep.
    """
    if not 1 <= dmin <= dmax:
        raise DomainError(f"need 1 <= dmin <= dmax, got dmin={dmin}, dmax={dmax}")
    def rows(p: int, e: int, base_ideal) -> list[TruncationRecord]:
        base = fpt_enclosure(base_ideal, e)
        out = []
        for d in range(dmin, dmax + 1):
            trunc = fpt_enclosure(truncate_ideal(base_ideal, d), e)
            gap = max(trunc.low - base.high, base.low - trunc.high, Fraction(0))
            bound = Fraction(ideal.n, d)
            out.append(TruncationRecord(p=p, e=e, d=d, base=base, trunc=trunc,
                                        gap=gap, bound=bound, ok=gap <= bound))
        return out

    skipped = [] if issues is None else issues
    return [r for prime_rows in _per_prime(ideal, primes, q_max, skipped, rows)
            for r in prime_rows]


def convergence_report(records: list[SweepRecord],
                       target: Fraction | None = None) -> ConvergenceReport:
    """Exact flags over a record list; target-dependent fields None without one."""
    if not records:
        raise DomainError("empty report")
    records = sorted(records, key=lambda r: (r.p, r.e))
    by_p: dict[int, list[SweepRecord]] = {}
    for r in records:
        by_p.setdefault(r.p, []).append(r)
    monotone_ok = all(
        group[i].low <= group[i + 1].low
        for group in by_p.values()
        for i in range(len(group) - 1)
    )
    max_gap = None
    below_ok = None
    trend_ok = None
    if target is not None:
        target = Fraction(target)
        gaps = [target - r.low for r in records]
        max_gap = max(gaps)
        below_ok = all(r.low <= target for r in records)
        first, last = records[0], records[-1]
        trend_ok = (target - last.low) <= (target - first.low) \
            + (first.high - first.low) + (last.high - last.low)
    return ConvergenceReport(
        target_lct=target,
        records=records,
        max_gap=max_gap,
        monotone_ok=monotone_ok,
        below_lct_ok=below_ok,
        trend_ok=trend_ok,
    )


def report_to_json(report: ConvergenceReport) -> str:
    """Canonical JSON serialization (bit-stable for identical inputs)."""
    obj: dict = {}
    if report.target_lct is not None:
        obj["target_lct"] = format_rational(report.target_lct)
    recs = []
    for r in report.records:
        rec = {
            "p": r.p,
            "e": r.e,
            "nu": r.nu,
            "low": format_rational(r.low),
            "high": format_rational(r.high),
        }
        if report.target_lct is not None:
            rec["gap"] = format_rational(report.target_lct - r.low)
        recs.append(rec)
    obj["records"] = recs
    obj["monotone_ok"] = report.monotone_ok
    if report.target_lct is not None:
        obj["below_lct_ok"] = report.below_lct_ok
        obj["max_gap"] = format_rational(report.max_gap)
        obj["trend_ok"] = report.trend_ok
    return json.dumps(obj) + "\n"


def report_to_csv(report: ConvergenceReport) -> str:
    lines = [CSV_HEADER]
    for r in report.records:
        lines.append(
            f"{r.p},{r.e},{r.nu},{format_rational(r.low)},"
            f"{format_rational(r.high)},{r.elapsed_ms}"
        )
    return "\n".join(lines) + "\n"

